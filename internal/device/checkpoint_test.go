package device

import "testing"

// FuzzImportCheckpoint feeds arbitrary bytes to the checkpoint importer of
// every model, seeded with dirtied exports of each. Import must never
// panic; an accepted checkpoint must leave a device that restores and
// exports again.
func FuzzImportCheckpoint(f *testing.F) {
	for i, id := range IDs() {
		m, _ := ModelByID(id)
		d := New(m)
		dirtyCollections(f, d)
		applyOps(d, int64(i), 150)
		blob, err := d.ExportCheckpoint()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(blob)
	}
	models := Models()
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, m := range models {
			d := New(m)
			if d.ImportCheckpoint(data) != nil {
				continue
			}
			if !d.Restore() {
				t.Fatalf("%s: restore after accepted import fell back", m.ID)
			}
			if _, err := d.ExportCheckpoint(); err != nil {
				t.Fatalf("%s: export after accepted import: %v", m.ID, err)
			}
		}
	})
}
