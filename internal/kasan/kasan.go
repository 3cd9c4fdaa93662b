// Package kasan implements a Kernel Address Sanitizer analog for the virtual
// kernel. Drivers allocate objects from a virtual slab heap; every load and
// store is checked against the object's lifetime and bounds, so
// use-after-free, out-of-bounds, double-free and invalid-access bugs fire at
// the same program points a real KASAN build would report them.
//
// An object's bytes are backed lazily: Alloc records only its id, size and
// site, the first Store creates a backing of exactly the object's size, and
// a Load from an object no one wrote returns zeros, as kzalloc memory would.
// Freed objects are kept in a quarantine (as real KASAN does) so that
// delayed use-after-free accesses are still attributed to the original
// allocation rather than a recycled one; Free drops their backing, since
// every access to a freed object reports before it reads a byte.
package kasan

import (
	"fmt"
	"sync"

	"droidfuzz/internal/snap"
)

// BugClass identifies the kind of memory error detected.
type BugClass int

const (
	// UseAfterFree is an access to an object after it has been freed.
	UseAfterFree BugClass = iota
	// OutOfBounds is an access past the bounds of a live object.
	OutOfBounds
	// DoubleFree is a second free of an already-freed object.
	DoubleFree
	// InvalidAccess is an access to an address that was never allocated.
	InvalidAccess
	// InvalidFree is a free of an address that was never allocated.
	InvalidFree
)

// String returns the KASAN-style class name used in report titles.
func (c BugClass) String() string {
	switch c {
	case UseAfterFree:
		return "slab-use-after-free"
	case OutOfBounds:
		return "slab-out-of-bounds"
	case DoubleFree:
		return "double-free"
	case InvalidAccess:
		return "invalid-access"
	case InvalidFree:
		return "invalid-free"
	default:
		return fmt.Sprintf("BugClass(%d)", int(c))
	}
}

// AccessKind distinguishes reads from writes in reports.
type AccessKind int

const (
	// Read access.
	Read AccessKind = iota
	// Write access.
	Write
)

// String returns "Read" or "Write" as in KASAN report headers.
func (k AccessKind) String() string {
	if k == Write {
		return "Write"
	}
	return "Read"
}

// Report describes one detected memory error, in the shape of a KASAN splat:
// class, access kind, faulting site, and the object's alloc/free history.
type Report struct {
	Class     BugClass
	Access    AccessKind
	Site      string // function where the bad access happened
	Object    uint64 // virtual object id
	Size      int    // object size at allocation
	Offset    int    // access offset within/past the object
	AllocSite string
	FreeSite  string
}

// Title renders the syzkaller-style crash title, e.g.
// "KASAN: slab-use-after-free Read in bt_accept_unlink".
func (r *Report) Title() string {
	return fmt.Sprintf("KASAN: %s %s in %s", r.Class, r.Access, r.Site)
}

// String renders a multi-line report body resembling a kernel splat.
func (r *Report) String() string {
	s := "==================================================================\n"
	s += "BUG: " + r.Title() + "\n"
	s += fmt.Sprintf("%s of size at offset %d in object %#x (size %d)\n",
		r.Access, r.Offset, r.Object, r.Size)
	if r.AllocSite != "" {
		s += "Allocated by " + r.AllocSite + "\n"
	}
	if r.FreeSite != "" {
		s += "Freed by " + r.FreeSite + "\n"
	}
	s += "=================================================================="
	return s
}

type objState int

const (
	stateLive objState = iota
	stateFreed
)

// object is one live or quarantined allocation. Its fields are exported
// because heapState carries objects by value in the portable checkpoint.
type object struct {
	ID        uint64
	Size      int
	Data      []byte // nil until the first Store and after Free; else Size bytes
	State     objState
	AllocSite string
	FreeSite  string
}

// Heap is the virtual slab allocator. All driver-owned dynamic objects live
// here; handles (object ids) stand in for kernel pointers. The zero value is
// not usable; call NewHeap.
type Heap struct {
	snap.Dirty

	mu         sync.Mutex
	objects    map[uint64]*object
	nextID     uint64
	quarantine []uint64 // freed object ids, oldest first
	quarCap    int
	reports    []*Report
	allocs     uint64
	frees      uint64
}

// DefaultQuarantine is the default number of freed objects retained for
// use-after-free attribution.
const DefaultQuarantine = 4096

// maxObjectSize is the largest object Alloc hands out, kmalloc's
// KMALLOC_MAX_SIZE (4 MiB). It also bounds the size a checkpoint may
// claim for an object, which its blob no longer has to back with bytes.
const maxObjectSize = 4 << 20

// NewHeap returns an empty heap whose quarantine holds up to quarCap freed
// objects (DefaultQuarantine if quarCap <= 0).
func NewHeap(quarCap int) *Heap {
	if quarCap <= 0 {
		quarCap = DefaultQuarantine
	}
	return &Heap{
		objects: make(map[uint64]*object),
		nextID:  1,
		quarCap: quarCap,
	}
}

// Alloc allocates a zeroed object of the given size and returns its handle.
// site names the allocating function for later reports. Above
// maxObjectSize it returns 0, never a valid handle, as kmalloc returns NULL.
func (h *Heap) Alloc(size int, site string) uint64 {
	if size > maxObjectSize {
		return 0
	}
	if size < 0 {
		size = 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	id := h.nextID
	h.nextID++
	h.objects[id] = &object{
		ID:        id,
		Size:      size,
		State:     stateLive,
		AllocSite: site,
	}
	h.allocs++
	h.Touch()
	return id
}

// Free releases the object. A second free or a free of an unknown handle is
// recorded as a bug report and returned.
func (h *Heap) Free(id uint64, site string) *Report {
	h.mu.Lock()
	defer h.mu.Unlock()
	obj, ok := h.objects[id]
	if !ok {
		return h.report(&Report{
			Class: InvalidFree, Access: Write, Site: site, Object: id,
		})
	}
	if obj.State == stateFreed {
		return h.report(&Report{
			Class: DoubleFree, Access: Write, Site: site, Object: id,
			Size: obj.Size, AllocSite: obj.AllocSite, FreeSite: obj.FreeSite,
		})
	}
	obj.State = stateFreed
	obj.FreeSite = site
	obj.Data = nil
	h.frees++
	h.Touch()
	h.quarantine = append(h.quarantine, id)
	if len(h.quarantine) > h.quarCap {
		evict := h.quarantine[0]
		h.quarantine = h.quarantine[1:]
		delete(h.objects, evict)
	}
	return nil
}

// Load reads n bytes at offset off from the object. On a memory error the
// returned report is non-nil and the data is nil.
func (h *Heap) Load(id uint64, off, n int, site string) ([]byte, *Report) {
	h.mu.Lock()
	defer h.mu.Unlock()
	obj, rep := h.check(id, off, n, Read, site)
	if rep != nil {
		return nil, rep
	}
	out := make([]byte, n)
	if obj.Data != nil {
		copy(out, obj.Data[off:off+n])
	}
	return out, nil
}

// Store writes p to the object at offset off, returning a report on error.
func (h *Heap) Store(id uint64, off int, p []byte, site string) *Report {
	h.mu.Lock()
	defer h.mu.Unlock()
	obj, rep := h.check(id, off, len(p), Write, site)
	if rep != nil {
		return rep
	}
	if obj.Data == nil {
		obj.Data = make([]byte, obj.Size)
	}
	copy(obj.Data[off:off+len(p)], p)
	h.Touch()
	return nil
}

// check validates an access under h.mu and records a report on failure.
func (h *Heap) check(id uint64, off, n int, access AccessKind, site string) (*object, *Report) {
	obj, ok := h.objects[id]
	if !ok {
		return nil, h.report(&Report{
			Class: InvalidAccess, Access: access, Site: site, Object: id, Offset: off,
		})
	}
	if obj.State == stateFreed {
		return nil, h.report(&Report{
			Class: UseAfterFree, Access: access, Site: site, Object: id,
			Size: obj.Size, Offset: off,
			AllocSite: obj.AllocSite, FreeSite: obj.FreeSite,
		})
	}
	if off < 0 || n < 0 || off+n > obj.Size {
		return nil, h.report(&Report{
			Class: OutOfBounds, Access: access, Site: site, Object: id,
			Size: obj.Size, Offset: off + n, AllocSite: obj.AllocSite,
		})
	}
	return obj, nil
}

func (h *Heap) report(r *Report) *Report {
	h.reports = append(h.reports, r)
	h.Touch()
	return r
}

// Live reports whether the handle refers to a live (allocated, unfreed)
// object. It performs no access and records no report.
func (h *Heap) Live(id uint64) bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	obj, ok := h.objects[id]
	return ok && obj.State == stateLive
}

// Reports returns all memory-error reports recorded so far, oldest first.
func (h *Heap) Reports() []*Report {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make([]*Report, len(h.reports))
	copy(out, h.reports)
	return out
}

// TakeReports returns and clears the recorded reports.
func (h *Heap) TakeReports() []*Report {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := h.reports
	h.reports = nil
	return out
}

// Stats reports lifetime allocation and free counts.
func (h *Heap) Stats() (allocs, frees uint64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.allocs, h.frees
}

// LiveObjects reports the number of currently live objects.
func (h *Heap) LiveObjects() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	n := 0
	// Order-independent count; identical in any map iteration order.
	for _, obj := range h.objects { //droidvet:nondet order-independent count
		if obj.State == stateLive {
			n++
		}
	}
	return n
}
