package kasan

import (
	"bytes"
	"encoding/gob"
	"reflect"
	"strings"
	"testing"
)

// backing returns the object's backing slice as the heap holds it.
func backing(t *testing.T, h *Heap, id uint64) []byte {
	t.Helper()
	h.mu.Lock()
	defer h.mu.Unlock()
	obj, ok := h.objects[id]
	if !ok {
		t.Fatalf("object %d not on the heap", id)
	}
	return obj.Data
}

func TestLoadFromNeverWrittenObjectIsZero(t *testing.T) {
	h := NewHeap(0)
	id := h.Alloc(64, "a")
	if backing(t, h, id) != nil {
		t.Fatal("Alloc created a backing")
	}
	data, rep := h.Load(id, 8, 16, "r")
	if rep != nil {
		t.Fatalf("load: %v", rep)
	}
	if !bytes.Equal(data, make([]byte, 16)) {
		t.Fatalf("data = %x, want 16 zero bytes", data)
	}
	if backing(t, h, id) != nil {
		t.Fatal("Load created a backing")
	}
}

func TestStoreCreatesExactBacking(t *testing.T) {
	h := NewHeap(0)
	id := h.Alloc(64, "a")
	if rep := h.Store(id, 60, []byte{1, 2, 3, 4}, "w"); rep != nil {
		t.Fatalf("store: %v", rep)
	}
	if b := backing(t, h, id); len(b) != 64 || cap(b) != 64 {
		t.Fatalf("backing len/cap = %d/%d, want 64/64", len(b), cap(b))
	}
	data, _ := h.Load(id, 56, 8, "r")
	if !bytes.Equal(data, []byte{0, 0, 0, 0, 1, 2, 3, 4}) {
		t.Fatalf("data = %x", data)
	}
	// A rejected store creates nothing.
	other := h.Alloc(8, "a")
	if rep := h.Store(other, 4, make([]byte, 8), "w"); rep == nil || rep.Class != OutOfBounds {
		t.Fatalf("OOB store = %v", rep)
	}
	if backing(t, h, other) != nil {
		t.Fatal("an out-of-bounds store created a backing")
	}
}

// TestFreeDropsBacking checks that a freed object holds no bytes and that
// every access to it reports exactly what it reported when freed objects
// kept their bytes, whether or not the object was ever written.
func TestFreeDropsBacking(t *testing.T) {
	for _, written := range []bool{false, true} {
		h := NewHeap(0)
		id := h.Alloc(64, "alloc_site")
		if written {
			h.Store(id, 0, []byte{0xaa}, "w")
		}
		if rep := h.Free(id, "free_site"); rep != nil {
			t.Fatalf("free: %v", rep)
		}
		if backing(t, h, id) != nil {
			t.Fatalf("written=%v: Free kept the backing", written)
		}
		uaf := func(access AccessKind, site string, off int) *Report {
			return &Report{
				Class: UseAfterFree, Access: access, Site: site, Object: id,
				Size: 64, Offset: off, AllocSite: "alloc_site", FreeSite: "free_site",
			}
		}
		_, load := h.Load(id, 4, 4, "uaf_read")
		store := h.Store(id, 8, []byte{1}, "uaf_write")
		_, oob := h.Load(id, 60, 8, "oob_read") // the free check comes first
		double := h.Free(id, "free_again")
		for _, c := range []struct {
			name      string
			got, want *Report
		}{
			{"uaf read", load, uaf(Read, "uaf_read", 4)},
			{"uaf write", store, uaf(Write, "uaf_write", 8)},
			{"oob after free", oob, uaf(Read, "oob_read", 60)},
			{"double free", double, &Report{
				Class: DoubleFree, Access: Write, Site: "free_again", Object: id,
				Size: 64, AllocSite: "alloc_site", FreeSite: "free_site",
			}},
		} {
			if !reflect.DeepEqual(c.got, c.want) {
				t.Errorf("written=%v %s: report = %+v, want %+v", written, c.name, c.got, c.want)
			}
		}
		if backing(t, h, id) != nil {
			t.Fatalf("written=%v: a freed object regained a backing", written)
		}
	}
}

// TestCheckpointCarriesOnlyWrittenBytes takes a heap holding never-written,
// written and quarantined objects through Checkpoint, gob, Validate and
// Restore, and checks the restored heap loads the same bytes and reports
// the same errors as the original.
func TestCheckpointCarriesOnlyWrittenBytes(t *testing.T) {
	h := NewHeap(0)
	blank := h.Alloc(4096, "blank")
	written := h.Alloc(32, "written")
	h.Store(written, 3, []byte("lazy"), "w")
	freedBlank := h.Alloc(16, "freed_blank")
	freedWritten := h.Alloc(16, "freed_written")
	h.Store(freedWritten, 0, []byte{7}, "w")
	h.Free(freedBlank, "f1")
	h.Free(freedWritten, "f2")

	st := h.Checkpoint().(*heapState)
	for _, obj := range st.Objects {
		if want := obj.ID == written; (obj.Data != nil) != want {
			t.Errorf("object %d (%s) carries %d data bytes", obj.ID, obj.AllocSite, len(obj.Data))
		}
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(st); err != nil {
		t.Fatal(err)
	}
	if n := buf.Len(); n > 1024 {
		t.Fatalf("checkpoint of %d mostly unwritten bytes encodes to %d bytes", 4096+32+16+16, n)
	}
	dec := new(heapState)
	if err := gob.NewDecoder(&buf).Decode(dec); err != nil {
		t.Fatal(err)
	}
	r := NewHeap(0)
	if err := r.Validate(dec); err != nil {
		t.Fatalf("validate: %v", err)
	}
	r.Restore(dec)
	for _, id := range []uint64{blank, freedBlank, freedWritten} {
		if backing(t, r, id) != nil {
			t.Errorf("restored object %d has a backing", id)
		}
	}

	probe := func(h *Heap) []any {
		var out []any
		for _, id := range []uint64{blank, written, freedBlank, freedWritten, 0xdead} {
			data, rep := h.Load(id, 0, 16, "r")
			out = append(out, data, rep)
		}
		out = append(out, h.Free(freedWritten, "f3"), h.Free(blank, "f4"), h.Free(blank, "f5"))
		return append(out, h.LiveObjects())
	}
	if got, want := probe(r), probe(h); !reflect.DeepEqual(got, want) {
		t.Fatalf("restored heap diverged:\n got %v\nwant %v", got, want)
	}
}

// TestValidateRejectsHostileSizes checks the bound that replaced "data
// length equals size": a checkpoint may leave an object unbacked, but may
// not claim a size Alloc would never grant, since the first Store would
// allocate it.
func TestValidateRejectsHostileSizes(t *testing.T) {
	h := NewHeap(0)
	for _, c := range []struct {
		name string
		obj  object
		bad  string // substring of the error; "" for accepted
	}{
		{"unbacked", object{ID: 1, Size: 65536}, ""},
		{"backed", object{ID: 1, Size: 4, Data: make([]byte, 4)}, ""},
		{"empty", object{ID: 1}, ""},
		{"at max", object{ID: 1, Size: maxObjectSize}, ""},
		{"huge", object{ID: 1, Size: 1 << 40}, "outside"},
		{"above max", object{ID: 1, Size: maxObjectSize + 1}, "outside"},
		{"negative", object{ID: 1, Size: -1}, "outside"},
		{"short data", object{ID: 1, Size: 8, Data: make([]byte, 4)}, "data bytes"},
		{"long data", object{ID: 1, Size: 8, Data: make([]byte, 16)}, "data bytes"},
	} {
		err := h.Validate(&heapState{Objects: []object{c.obj}, NextID: 2, QuarCap: DefaultQuarantine})
		switch {
		case c.bad == "" && err != nil:
			t.Errorf("%s: rejected: %v", c.name, err)
		case c.bad != "" && (err == nil || !strings.Contains(err.Error(), c.bad)):
			t.Errorf("%s: error = %v, want one mentioning %q", c.name, err, c.bad)
		}
	}
}

func TestAllocAboveMaxReturnsNull(t *testing.T) {
	h := NewHeap(0)
	if id := h.Alloc(maxObjectSize+1, "huge"); id != 0 {
		t.Fatalf("Alloc above max = %d, want 0", id)
	}
	if id := h.Alloc(maxObjectSize, "max"); id == 0 {
		t.Fatal("Alloc at max failed")
	}
	if allocs, _ := h.Stats(); allocs != 1 {
		t.Fatalf("allocs = %d, want 1", allocs)
	}
	if _, rep := h.Load(0, 0, 1, "r"); rep == nil || rep.Class != InvalidAccess {
		t.Fatalf("access through handle 0 = %v, want invalid-access", rep)
	}
}

// BenchmarkHeapAllocFree is the GPU buffer-object lifetime: a 64 KiB
// object, one 8-byte load, free into the quarantine.
func BenchmarkHeapAllocFree(b *testing.B) {
	h := NewHeap(0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		id := h.Alloc(1<<16, "gpu_bo_create")
		h.Load(id, 0, 8, "gpu_bo_map")
		h.Free(id, "gpu_bo_free")
	}
}
