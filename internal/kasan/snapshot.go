package kasan

import (
	"cmp"
	"encoding/gob"
	"fmt"
	"slices"
)

// Heap checkpoint/restore. The post-boot heap is empty (drivers allocate
// only while servicing syscalls), so the common snapshot is trivially
// small, but Checkpoint deep-copies whatever is live so the contract holds
// for any capture point.

// heapState is the Heap's checkpoint payload. An object's Data travels as
// the heap holds it: nil for an object never stored to or already freed,
// otherwise exactly Size bytes, so the blob carries only bytes a driver
// wrote.
type heapState struct {
	Objects    []object // deep copies, sorted by ID
	NextID     uint64
	Quarantine []uint64
	QuarCap    int
	Allocs     uint64
	Frees      uint64
}

func init() { gob.Register(&heapState{}) }

// Checkpoint implements snap.Subsystem.
func (h *Heap) Checkpoint() any {
	h.mu.Lock()
	defer h.mu.Unlock()
	st := &heapState{
		NextID:  h.nextID,
		QuarCap: h.quarCap,
		Allocs:  h.allocs,
		Frees:   h.frees,
	}
	if len(h.objects) > 0 {
		st.Objects = make([]object, 0, len(h.objects))
		for _, obj := range h.objects { //droidvet:nondet collect-then-sort
			cc := *obj
			cc.Data = slices.Clone(obj.Data)
			st.Objects = append(st.Objects, cc)
		}
		slices.SortFunc(st.Objects, func(a, b object) int { return cmp.Compare(a.ID, b.ID) })
	}
	if len(h.quarantine) > 0 {
		st.Quarantine = slices.Clone(h.quarantine)
	}
	return st
}

// Restore implements snap.Subsystem. Pending reports are dropped: a restore
// happens after the broker drained the previous execution's fallout.
func (h *Heap) Restore(s any) {
	st := s.(*heapState)
	h.mu.Lock()
	defer h.mu.Unlock()
	h.objects = make(map[uint64]*object, len(st.Objects))
	for _, obj := range st.Objects {
		cc := obj
		cc.Data = slices.Clone(obj.Data)
		h.objects[cc.ID] = &cc
	}
	h.nextID = st.NextID
	h.quarantine = slices.Clone(st.Quarantine)
	h.quarCap = st.QuarCap
	h.allocs = st.Allocs
	h.frees = st.Frees
	h.reports = nil
}

// Validate implements snap.Validator: every object's size must be one
// Alloc could have granted, and its backing must be absent or span exactly
// that size, the bound every later access is checked against.
func (h *Heap) Validate(s any) error {
	for _, obj := range s.(*heapState).Objects {
		if obj.Size < 0 || obj.Size > maxObjectSize {
			return fmt.Errorf("kasan: checkpoint object %d has size %d outside [0, %d]", obj.ID, obj.Size, maxObjectSize)
		}
		if obj.Data != nil && len(obj.Data) != obj.Size {
			return fmt.Errorf("kasan: checkpoint object %d has %d data bytes for size %d", obj.ID, len(obj.Data), obj.Size)
		}
	}
	return nil
}
