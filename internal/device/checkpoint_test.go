package device

import (
	"encoding/binary"
	"reflect"
	"testing"

	"droidfuzz/internal/drivers"
	"droidfuzz/internal/vkernel"
)

// FuzzImportCheckpoint feeds arbitrary bytes to the checkpoint importer of
// every model, seeded with dirtied exports of each and with an A1 export
// whose heap holds 4 MiB of GPU buffers no driver wrote. Import must never
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
	f.Add(exportLargeGPUHeap(f))
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

// exportLargeGPUHeap boots an A1, makes 64 GPU buffer objects of request
// size 65 472 (each a 65 536-byte heap object, as the driver allocates
// size%65536+64), and exports the device.
func exportLargeGPUHeap(t testing.TB) []byte {
	t.Helper()
	m, _ := ModelByID("A1")
	d := New(m)
	fd, err := d.K.Open(NativePID, vkernel.OriginNative, drivers.PathGPU, 0)
	if err != nil {
		t.Fatal(err)
	}
	arg := binary.LittleEndian.AppendUint64(nil, 65472)
	for i := 0; i < 64; i++ {
		if _, _, err := d.K.Ioctl(NativePID, vkernel.OriginNative, fd, drivers.GPUAlloc, arg); err != nil {
			t.Fatalf("GPUAlloc %d: %v", i, err)
		}
	}
	blob, err := d.ExportCheckpoint()
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

// TestUnwrittenHeapExportsSmall pins lazy heap backing at the device
// level: 4 MiB of GPU buffers nothing stored to must not travel in the
// checkpoint.
func TestUnwrittenHeapExportsSmall(t *testing.T) {
	if n := len(exportLargeGPUHeap(t)); n >= 16<<10 {
		t.Fatalf("checkpoint with 64 unwritten 64 KiB objects is %d bytes, want < 16 KiB", n)
	}
}

// TestHeapRoundTripsThroughCheckpoint takes a device heap holding
// never-written, written and quarantined objects through ExportCheckpoint,
// ImportCheckpoint and Restore, and checks the importing device loads the
// same bytes and reports the same errors as the exporting one.
func TestHeapRoundTripsThroughCheckpoint(t *testing.T) {
	m, _ := ModelByID("A1")
	src := New(m)
	h := src.K.Heap
	blank := h.Alloc(1<<16, "blank")
	written := h.Alloc(32, "written")
	h.Store(written, 3, []byte("lazy"), "w")
	freedBlank := h.Alloc(16, "freed_blank")
	freedWritten := h.Alloc(16, "freed_written")
	h.Store(freedWritten, 0, []byte{7}, "w")
	h.Free(freedBlank, "f1")
	h.Free(freedWritten, "f2")
	blob, err := src.ExportCheckpoint()
	if err != nil {
		t.Fatal(err)
	}
	dst := New(m)
	if err := dst.ImportCheckpoint(blob); err != nil {
		t.Fatalf("import: %v", err)
	}
	// Dirty the importer's heap so Restore has to wind it back.
	dst.K.Heap.Store(written, 0, []byte{0xff}, "scribble")
	dst.K.Heap.Free(blank, "scribble")
	if !dst.Restore() {
		t.Fatal("restore fell back to a reboot")
	}
	probe := func(d *Device) []any {
		h := d.K.Heap
		var out []any
		for _, id := range []uint64{blank, written, freedBlank, freedWritten, 0xdead} {
			data, rep := h.Load(id, 0, 16, "r")
			out = append(out, data, rep)
		}
		out = append(out, h.Free(freedWritten, "f3"), h.Free(blank, "f4"), h.Free(blank, "f5"))
		return append(out, h.LiveObjects())
	}
	if got, want := probe(dst), probe(src); !reflect.DeepEqual(got, want) {
		t.Fatalf("imported heap diverged:\n got %v\nwant %v", got, want)
	}
}
