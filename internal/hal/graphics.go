package hal

import (
	"sync"

	"droidfuzz/internal/binder"
	"droidfuzz/internal/bugs"
	"droidfuzz/internal/drivers"
)

// GraphicsDescriptor is the composer service's Binder descriptor.
const GraphicsDescriptor = "android.hardware.graphics.composer"

type layer struct {
	id     uint64
	buf    uint64 // kernel gpu_handle backing the layer
	w, h   uint64
	format uint64
}

// Graphics is the display composer HAL. It owns the GPU render node and
// translates layer management into buffer-object and command-stream
// syscalls. Two defects live on its paths:
//
//   - Bug №2 (enabled per device): destroyLayer leaves the layer id on the
//     presentation list; the next presentDisplay dereferences the stale
//     entry and the process segfaults.
//   - The kernel lockdep bug №3 is reached through presentDisplay: the
//     command stream's nesting depth equals the presentation list length,
//     so composing 8+ layers drives an invalid lockdep subclass into the
//     GPU driver.
type Graphics struct {
	Base
	sys  *Sys
	bugs bugs.Set

	mu        sync.Mutex
	gpuFD     int
	layers    map[uint64]*layer
	present   []uint64
	nextLayer uint64
	powerMode uint64
}

var graphicsTable = newTable(GraphicsDescriptor, "Graphics", []op[Graphics]{
	{sig("createLayer", "hal_layer",
		argInt("width", 1, 4096), argInt("height", 1, 4096),
		argFlags("format", 1, 2, 3)), (*Graphics).createLayer},
	{sig("destroyLayer", "",
		argRes("layer", "hal_layer")), (*Graphics).destroyLayer},
	{sig("setLayerBuffer", "",
		argRes("layer", "hal_layer"), argInt("slot", 0, 7)), (*Graphics).setLayerBuffer},
	{sig("presentDisplay", ""), (*Graphics).presentDisplay},
	{sig("setPowerMode", "",
		argFlags("mode", 0, 1, 2, 3)), (*Graphics).setPowerMode},
	{sig("getDisplayAttribute", "",
		argInt("attribute", 1, 3)), (*Graphics).getDisplayAttribute},
})

// NewGraphics constructs the composer service over the given syscall facade.
func NewGraphics(sys *Sys, b bugs.Set) *Graphics {
	g := &Graphics{
		sys:       sys,
		bugs:      b,
		gpuFD:     -1,
		layers:    make(map[uint64]*layer),
		nextLayer: 1,
	}
	g.Base = Base{graphicsTable, g}
	return g
}

// fd returns the composer's render-node fd, opening it on first use.
func (g *Graphics) fd() (int, binder.Status) {
	if g.gpuFD >= 0 {
		return g.gpuFD, binder.StatusOK
	}
	fd, err := g.sys.Open(drivers.PathGPU, 0)
	if err != nil {
		return -1, binder.StatusFailed
	}
	g.gpuFD = fd
	return fd, binder.StatusOK
}

func (g *Graphics) createLayer(in []Val, reply *binder.Parcel) binder.Status {
	g.mu.Lock()
	defer g.mu.Unlock()
	fd, st := g.fd()
	if st != binder.StatusOK {
		return st
	}
	w, h := in[0].U, in[1].U
	if w == 0 || h == 0 || w > 4096 || h > 4096 {
		return binder.StatusBadValue
	}
	size := w * h * 4
	if size > 1<<24 {
		size = 1 << 24
	}
	handle, _, err := g.sys.Ioctl(fd, drivers.GPUAlloc, drivers.PutU64(nil, size))
	if err != nil {
		return binder.StatusFailed
	}
	id := g.nextLayer
	g.nextLayer++
	g.layers[id] = &layer{id: id, buf: handle, w: w, h: h, format: in[2].U}
	g.present = append(g.present, id)
	reply.WriteUint64(id)
	return binder.StatusOK
}

func (g *Graphics) destroyLayer(in []Val, reply *binder.Parcel) binder.Status {
	g.mu.Lock()
	defer g.mu.Unlock()
	id := in[0].U
	l, ok := g.layers[id]
	if !ok {
		return binder.StatusBadValue
	}
	fd, st := g.fd()
	if st != binder.StatusOK {
		return st
	}
	_, _, _ = g.sys.Ioctl(fd, drivers.GPUFree, drivers.PutU64(nil, l.buf))
	delete(g.layers, id)
	if !g.bugs.Has(bugs.GraphicsHALCrash) {
		// Correct builds unlink the layer from the presentation list;
		// the buggy vendor blob forgets, leaving a dangling entry.
		for i, pid := range g.present {
			if pid == id {
				g.present = append(g.present[:i], g.present[i+1:]...)
				break
			}
		}
	}
	return binder.StatusOK
}

func (g *Graphics) setLayerBuffer(in []Val, reply *binder.Parcel) binder.Status {
	g.mu.Lock()
	defer g.mu.Unlock()
	l, ok := g.layers[in[0].U]
	if !ok {
		return binder.StatusBadValue
	}
	fd, st := g.fd()
	if st != binder.StatusOK {
		return st
	}
	if _, _, err := g.sys.Ioctl(fd, drivers.GPUMapBuf, drivers.PutU64(nil, l.buf)); err != nil {
		return binder.StatusFailed
	}
	return binder.StatusOK
}

func (g *Graphics) presentDisplay(in []Val, reply *binder.Parcel) binder.Status {
	g.mu.Lock()
	defer g.mu.Unlock()
	if len(g.present) == 0 {
		return binder.StatusBadValue
	}
	fd, st := g.fd()
	if st != binder.StatusOK {
		return st
	}
	depth := uint64(len(g.present))
	if depth > 15 {
		depth = 15
	}
	var first *layer
	nCmds := len(g.present) * 2
	if nCmds > 16 {
		nCmds = 16
	}
	magic := drivers.GPUCmdMagic
	stream := []byte{
		byte(magic), byte(magic >> 8), byte(magic >> 16), byte(magic >> 24),
		byte(depth), byte(nCmds), 0, 0,
	}
	for _, id := range g.present {
		l := g.layers[id]
		if l == nil {
			// Dangling presentation-list entry (bug №2): the composer
			// dereferences freed layer state and faults.
			g.segfault("composer_present_locked")
		}
		if first == nil {
			first = l
		}
		// Two command words per layer: a blit sized by width and a
		// format-conversion op.
		stream = append(stream, byte(l.w/256), byte(0x40+l.format*4+l.h/1024))
	}
	fence, _, err := g.sys.Ioctl(fd, drivers.GPUSubmit,
		append(drivers.PutU64(nil, first.buf), stream...))
	if err != nil {
		return binder.StatusFailed
	}
	_, _, _ = g.sys.Ioctl(fd, drivers.GPUWait, drivers.PutU64(nil, fence))
	reply.WriteUint64(fence)
	return binder.StatusOK
}

func (g *Graphics) setPowerMode(in []Val, reply *binder.Parcel) binder.Status {
	g.mu.Lock()
	defer g.mu.Unlock()
	fd, st := g.fd()
	if st != binder.StatusOK {
		return st
	}
	g.powerMode = in[0].U
	if _, _, err := g.sys.Ioctl(fd, drivers.GPUSetCtx, drivers.PutU64(nil, in[0].U&3)); err != nil {
		return binder.StatusFailed
	}
	return binder.StatusOK
}

func (g *Graphics) getDisplayAttribute(in []Val, reply *binder.Parcel) binder.Status {
	g.mu.Lock()
	defer g.mu.Unlock()
	fd, st := g.fd()
	if st != binder.StatusOK {
		return st
	}
	v, _, err := g.sys.Ioctl(fd, drivers.GPUGetParam, drivers.PutU64(nil, in[0].U))
	if err != nil {
		return binder.StatusBadValue
	}
	reply.WriteUint64(v)
	return binder.StatusOK
}
