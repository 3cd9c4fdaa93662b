package device

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"droidfuzz/internal/binder"
	"droidfuzz/internal/drivers"
	"droidfuzz/internal/kasan"
	"droidfuzz/internal/vkernel"
)

// TestCloneTwinsMatchBootedDevices is the twin-clone equivalence property
// test: devices stamped out by Clone(n) must be observationally identical
// to independently booted devices of the same model — same syscall
// returns, errnos, binder statuses, and parameter surface for any
// pseudo-random operation sequence.
func TestCloneTwinsMatchBootedDevices(t *testing.T) {
	const twins = 3
	for _, model := range []string{"A1", "A2", "B", "E"} {
		for seed := int64(0); seed < 4; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", model, seed), func(t *testing.T) {
				m, err := ModelByID(model)
				if err != nil {
					t.Fatal(err)
				}
				src := New(m)
				cloned := src.Clone(twins)
				if len(cloned) != twins {
					t.Fatalf("Clone(%d) returned %d devices", twins, len(cloned))
				}
				for i, tw := range cloned {
					booted := New(m)
					diffTraces(t, fmt.Sprintf("twin %d vs booted", i),
						applyOps(tw, seed, 120), applyOps(booted, seed, 120))
				}
				// Cloning must not have perturbed the source.
				diffTraces(t, "source after clone",
					applyOps(src, seed, 120), applyOps(New(m), seed, 120))
			})
		}
	}
}

// TestCloneOfDirtiedSourceForksItsState covers the hot-device case Clone
// exists for: the source accumulates arbitrary state, and every twin must
// inherit exactly that state — equivalent to each other and to a fresh
// device that imported the source's checkpoint — then diverge
// independently once driven apart.
func TestCloneOfDirtiedSourceForksItsState(t *testing.T) {
	m, _ := ModelByID("A1")
	src := New(m)
	applyOps(src, 7, 150) // arbitrary accumulated device state

	cloned := src.Clone(2)
	imported := New(m)
	blob, err := src.ExportCheckpoint()
	if err != nil {
		t.Fatalf("export: %v", err)
	}
	if err := imported.ImportCheckpoint(blob); err != nil {
		t.Fatalf("import: %v", err)
	}

	t0 := applyOps(cloned[0], 21, 150)
	t1 := applyOps(cloned[1], 21, 150)
	t2 := applyOps(imported, 21, 150)
	diffTraces(t, "twin0 vs twin1", t0, t1)
	diffTraces(t, "twin0 vs imported", t0, t2)

	// A twin's Restore rewinds to the imported state (the fork point),
	// not to boot: after restoring, it replays like a freshly stamped
	// sibling, not like a pristine device.
	if !cloned[0].Restore() {
		t.Fatal("twin restore fell back to reboot")
	}
	diffTraces(t, "restored twin vs fresh sibling",
		applyOps(cloned[0], 33, 150), applyOps(src.Clone(1)[0], 33, 150))
}

// TestExportImportRoundTrip cross-verifies checkpoint portability at the
// blob level for every model: importing an exported checkpoint and
// re-exporting must reproduce the source bytes exactly, and two exports of
// one state are byte-identical. The state is dirtied until every keyed
// collection a payload flattens into a sorted slice holds several entries,
// so the canonical ordering is exercised. (Sanitize builds additionally
// cross-check every subsystem payload by deep comparison inside the import
// itself — see verifyImport.)
func TestExportImportRoundTrip(t *testing.T) {
	// The payload slice each keyed collection is flattened into.
	collections := map[reflect.Type]string{
		reflect.TypeOf(&drivers.HCIDriver{}):  "Conns",
		reflect.TypeOf(&drivers.GPUDriver{}):  "Buffers",
		reflect.TypeOf(&drivers.V4L2Driver{}): "Ctrls",
		reflect.TypeOf(&kasan.Heap{}):         "Objects",
	}
	for _, id := range IDs() {
		t.Run(id, func(t *testing.T) {
			m, _ := ModelByID(id)
			src := New(m)
			dirtyCollections(t, src)
			applyOps(src, 11, 150)
			checked := 0
			for _, sub := range src.subs {
				field, ok := collections[reflect.TypeOf(sub)]
				if !ok {
					continue
				}
				checked++
				if n := reflect.ValueOf(sub.Checkpoint()).Elem().FieldByName(field).Len(); n < 2 {
					t.Errorf("%T payload %s has %d entries, want >= 2", sub, field, n)
				}
			}
			want := 1 // the heap
			for _, fam := range []string{FamHCI, FamGPU, FamV4L2} {
				if slices.Contains(m.Drivers, fam) {
					want++
				}
			}
			if checked != want {
				t.Errorf("checked %d keyed collections, model has %d", checked, want)
			}

			blob, err := src.ExportCheckpoint()
			if err != nil {
				t.Fatalf("export: %v", err)
			}
			again, err := src.ExportCheckpoint()
			if err != nil {
				t.Fatalf("second export: %v", err)
			}
			if !bytes.Equal(blob, again) {
				t.Fatalf("two exports of one state differ: %d vs %d bytes", len(blob), len(again))
			}
			dst := New(m)
			if err := dst.ImportCheckpoint(blob); err != nil {
				t.Fatalf("import: %v", err)
			}
			back, err := dst.ExportCheckpoint()
			if err != nil {
				t.Fatalf("re-export: %v", err)
			}
			if !bytes.Equal(blob, back) {
				t.Fatalf("round trip distorted the checkpoint: %d vs %d bytes", len(blob), len(back))
			}
		})
	}
}

// dirtyCollections opens HCI connections, allocates GPU buffers and sets
// V4L2 controls — three entries each, and heap objects behind the first
// two — on whichever of those drivers the model has.
func dirtyCollections(t testing.TB, d *Device) {
	t.Helper()
	u64s := func(vs ...uint64) []byte {
		b := make([]byte, 8*len(vs))
		for i, v := range vs {
			binary.LittleEndian.PutUint64(b[8*i:], v)
		}
		return b
	}
	fds := make(map[string]int)
	for _, op := range []struct {
		path string
		req  uint64
		arg  []byte
	}{
		{drivers.PathHCI, drivers.HCIUp, nil},
		{drivers.PathHCI, drivers.HCICreateConn, u64s(0xb1)},
		{drivers.PathHCI, drivers.HCICreateConn, u64s(0xb2)},
		{drivers.PathHCI, drivers.HCICreateConn, u64s(0xb3)},
		{drivers.PathGPU, drivers.GPUAlloc, u64s(4096)},
		{drivers.PathGPU, drivers.GPUAlloc, u64s(8192)},
		{drivers.PathGPU, drivers.GPUAlloc, u64s(512)},
		{drivers.PathVideo, drivers.VidiocSCtrl, u64s(13, 90)},
		{drivers.PathVideo, drivers.VidiocSCtrl, u64s(2, 7)},
		{drivers.PathVideo, drivers.VidiocSCtrl, u64s(40, 1)},
	} {
		if !slices.Contains(d.K.DevicePaths(), op.path) {
			continue
		}
		fd, ok := fds[op.path]
		if !ok {
			var err error
			if fd, err = d.K.Open(NativePID, vkernel.OriginNative, op.path, 0); err != nil {
				t.Fatalf("open %s: %v", op.path, err)
			}
			fds[op.path] = fd
		}
		if _, _, err := d.K.Ioctl(NativePID, vkernel.OriginNative, fd, op.req, op.arg); err != nil {
			t.Fatalf("ioctl %s %#x: %v", op.path, op.req, err)
		}
	}
}

// TestImportRejectsModelMismatch: a checkpoint is device-independent but
// not model-independent — importing onto a different model must fail
// loudly rather than stamp mismatched driver state. The same holds for a
// well-formed checkpoint whose payloads do not fit the receiver: swapped
// subsystems, a knob payload of the wrong slot count or family, a heap
// object whose data does not span its size, a foreign service registry. Checkpoints are outside input, so each must be an
// error returned before anything is restored, leaving the device exactly
// as it was.
func TestImportRejectsModelMismatch(t *testing.T) {
	a1, _ := ModelByID("A1")
	b, _ := ModelByID("B")
	// index returns the positions of the device's subsystems of type typ.
	index := func(d *Device, typ reflect.Type) []int {
		var out []int
		for i, sub := range d.subs {
			if reflect.TypeOf(sub) == typ {
				out = append(out, i)
			}
		}
		return out
	}
	knobs := reflect.TypeOf(&drivers.Knobs{})
	for _, tc := range []struct {
		name   string
		dst    Model
		mangle func(src *Device, payloads []any)
	}{
		{"other-model", b, nil},
		{"swapped-kernel-heap", a1, func(_ *Device, p []any) {
			p[0], p[1] = p[1], p[0]
		}},
		{"knob-slot-count", a1, func(src *Device, p []any) {
			ints := reflect.ValueOf(p[index(src, knobs)[0]]).Elem().FieldByName("Ints")
			ints.Set(ints.Slice(0, ints.Len()-1))
		}},
		{"knob-family", a1, func(src *Device, p []any) {
			ks := index(src, knobs)
			p[ks[0]], p[ks[1]] = p[ks[1]], p[ks[0]]
		}},
		{"heap-object-size", a1, func(src *Device, p []any) {
			obj := reflect.ValueOf(p[1]).Elem().FieldByName("Objects").Index(0)
			obj.FieldByName("Size").SetInt(obj.FieldByName("Size").Int() + 1)
		}},
		{"foreign-descriptors", a1, func(src *Device, p []any) {
			sm := index(src, reflect.TypeOf(&binder.ServiceManager{}))[0]
			ds := reflect.ValueOf(p[sm]).Elem().FieldByName("Descriptors")
			ds.Set(reflect.Append(ds, reflect.ValueOf("vendor.foreign.IFoo/default")))
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			src := New(a1)
			dirtyCollections(t, src)
			applyOps(src, 3, 150)
			blob, err := src.ExportCheckpoint()
			if err != nil {
				t.Fatal(err)
			}
			if tc.mangle != nil {
				var ck Checkpoint
				if err := gob.NewDecoder(bytes.NewReader(blob)).Decode(&ck); err != nil {
					t.Fatal(err)
				}
				tc.mangle(src, ck.Payloads)
				var buf bytes.Buffer
				if err := gob.NewEncoder(&buf).Encode(&ck); err != nil {
					t.Fatal(err)
				}
				blob = buf.Bytes()
			}

			dst := New(tc.dst)
			applyOps(dst, 5, 100)
			before, err := dst.ExportCheckpoint()
			if err != nil {
				t.Fatal(err)
			}
			if err := dst.ImportCheckpoint(blob); err == nil {
				t.Fatal("mismatched checkpoint imported without error")
			}
			after, err := dst.ExportCheckpoint()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(before, after) {
				t.Fatal("rejected import changed the device state")
			}
		})
	}
}

// TestCloneZeroAndNegative: degenerate fan-out counts return no twins.
func TestCloneZeroAndNegative(t *testing.T) {
	m, _ := ModelByID("E")
	d := New(m)
	if got := d.Clone(0); got != nil {
		t.Fatalf("Clone(0) = %v, want nil", got)
	}
	if got := d.Clone(-3); got != nil {
		t.Fatalf("Clone(-3) = %v, want nil", got)
	}
}

// TestRestoreRearmsDeathNotifications covers the fallout-matrix case the
// snapshot path used to miss: a death recipient linked at boot must fire
// once per alive→dead transition even when the recovery in between was a
// Restore (which revives the dead process in place) rather than the
// reboot fallback (which constructs new, armed processes).
func TestRestoreRearmsDeathNotifications(t *testing.T) {
	for _, reset := range []string{"restore", "reboot"} {
		t.Run(reset, func(t *testing.T) {
			m, _ := ModelByID("A1")
			d := New(m)
			c := newComposer(t, d)
			killGraphicsHAL(t, c)
			if got := d.HALDeaths(); got != 1 {
				t.Fatalf("HAL deaths after first kill = %d, want 1", got)
			}
			// A dead process must not double-fire while it stays dead.
			st := c.presentDisplay()
			if got := d.HALDeaths(); got != 1 {
				t.Fatalf("HAL deaths after poking dead HAL = %d (status %v), want 1", got, st)
			}
			if reset == "restore" {
				if !d.Restore() {
					t.Fatal("restore fell back")
				}
			} else {
				d.Reboot()
			}
			killGraphicsHAL(t, newComposer(t, d))
			if got := d.HALDeaths(); got != 2 {
				t.Fatalf("HAL deaths after kill-%s-kill = %d, want 2 (notification not re-armed)", reset, got)
			}
		})
	}
}
