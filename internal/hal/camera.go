package hal

import (
	"sync"

	"droidfuzz/internal/binder"
	"droidfuzz/internal/bugs"
	"droidfuzz/internal/drivers"
)

// CameraDescriptor is the camera provider's Binder descriptor.
const CameraDescriptor = "android.hardware.camera.provider"

// ctrlRotation is the V4L2 control id the provider uses for sensor rotation;
// odd rotations take the buggy buffer-release path at stream stop.
const ctrlRotation = 13

type stream struct {
	id        uint64
	rotation  uint64
	capturing bool
}

// Camera is the camera provider HAL over the V4L2 capture device. Bug №9:
// stopping a capture with an odd rotation configured releases the result
// buffer early; a subsequent captureFrame dereferences it and the process
// segfaults.
type Camera struct {
	Base
	sys  *Sys
	bugs bugs.Set

	mu         sync.Mutex
	videoFD    int
	streams    map[uint64]*stream
	nextStream uint64
}

var cameraTable = newTable(CameraDescriptor, "Camera", []op[Camera]{
	{sig("openStream", "hal_stream",
		argFlags("width", 640, 1280, 1920, 3840),
		argFlags("height", 480, 720, 1080, 2160),
		argFlags("format", drivers.PixFmtYUYV, drivers.PixFmtNV12, drivers.PixFmtMJPG)), (*Camera).openStream},
	{sig("startCapture", "",
		argRes("stream", "hal_stream")), (*Camera).startCapture},
	{sig("captureFrame", "",
		argRes("stream", "hal_stream")), (*Camera).captureFrame},
	{sig("stopCapture", "",
		argRes("stream", "hal_stream")), (*Camera).stopCapture},
	{sig("setParameter", "",
		argRes("stream", "hal_stream"),
		argInt("id", 1, 64), argInt("value", 0, 1<<16)), (*Camera).setParameter},
	{sig("closeStream", "",
		argRes("stream", "hal_stream")), (*Camera).closeStream},
})

// NewCamera constructs the camera provider over the given syscall facade.
func NewCamera(sys *Sys, b bugs.Set) *Camera {
	c := &Camera{
		sys:        sys,
		bugs:       b,
		videoFD:    -1,
		streams:    make(map[uint64]*stream),
		nextStream: 1,
	}
	c.Base = Base{cameraTable, c}
	return c
}

func (c *Camera) fd() (int, binder.Status) {
	if c.videoFD >= 0 {
		return c.videoFD, binder.StatusOK
	}
	fd, err := c.sys.Open(drivers.PathVideo, 0)
	if err != nil {
		return -1, binder.StatusFailed
	}
	c.videoFD = fd
	return fd, binder.StatusOK
}

func (c *Camera) openStream(in []Val, reply *binder.Parcel) binder.Status {
	c.mu.Lock()
	defer c.mu.Unlock()
	fd, st := c.fd()
	if st != binder.StatusOK {
		return st
	}
	arg := drivers.PutU64(nil, in[0].U)
	arg = drivers.PutU64(arg, in[1].U)
	arg = drivers.PutU64(arg, in[2].U)
	if _, _, err := c.sys.Ioctl(fd, drivers.VidiocSFmt, arg); err != nil {
		return binder.StatusBadValue
	}
	if _, _, err := c.sys.Ioctl(fd, drivers.VidiocReqbufs, drivers.PutU64(nil, 4)); err != nil {
		return binder.StatusFailed
	}
	for i := uint64(0); i < 4; i++ {
		_, _, _ = c.sys.Ioctl(fd, drivers.VidiocQbuf, drivers.PutU64(nil, i))
	}
	id := c.nextStream
	c.nextStream++
	c.streams[id] = &stream{id: id}
	reply.WriteUint64(id)
	return binder.StatusOK
}

func (c *Camera) startCapture(in []Val, reply *binder.Parcel) binder.Status {
	c.mu.Lock()
	defer c.mu.Unlock()
	s, ok := c.streams[in[0].U]
	if !ok {
		return binder.StatusBadValue
	}
	fd, st := c.fd()
	if st != binder.StatusOK {
		return st
	}
	if _, _, err := c.sys.Ioctl(fd, drivers.VidiocStreamon, nil); err != nil {
		return binder.StatusFailed
	}
	s.capturing = true
	return binder.StatusOK
}

func (c *Camera) captureFrame(in []Val, reply *binder.Parcel) binder.Status {
	c.mu.Lock()
	defer c.mu.Unlock()
	s, ok := c.streams[in[0].U]
	if !ok {
		return binder.StatusBadValue
	}
	if !s.capturing {
		return binder.StatusBadValue
	}
	fd, st := c.fd()
	if st != binder.StatusOK {
		return st
	}
	idx, _, err := c.sys.Ioctl(fd, drivers.VidiocDqbuf, nil)
	if err != nil {
		return binder.StatusFailed
	}
	_, _, _ = c.sys.Ioctl(fd, drivers.VidiocQbuf, drivers.PutU64(nil, idx))
	reply.WriteUint64(idx)
	return binder.StatusOK
}

func (c *Camera) stopCapture(in []Val, reply *binder.Parcel) binder.Status {
	c.mu.Lock()
	defer c.mu.Unlock()
	s, ok := c.streams[in[0].U]
	if !ok {
		return binder.StatusBadValue
	}
	fd, st := c.fd()
	if st != binder.StatusOK {
		return st
	}
	_, _, _ = c.sys.Ioctl(fd, drivers.VidiocStreamoff, nil)
	s.capturing = false
	return binder.StatusOK
}

// transposed reports whether a rotation value swaps width and height
// (90°, 270°, ...), the layouts with a dedicated result-buffer path.
func transposed(val uint64) bool { return (val/90)%2 == 1 }

func (c *Camera) setParameter(in []Val, reply *binder.Parcel) binder.Status {
	c.mu.Lock()
	defer c.mu.Unlock()
	s, ok := c.streams[in[0].U]
	if !ok {
		return binder.StatusBadValue
	}
	fd, st := c.fd()
	if st != binder.StatusOK {
		return st
	}
	id, val := in[1].U, in[2].U
	arg := drivers.PutU64(nil, id)
	arg = drivers.PutU64(arg, val)
	if _, _, err := c.sys.Ioctl(fd, drivers.VidiocSCtrl, arg); err != nil {
		return binder.StatusBadValue
	}
	if id == ctrlRotation {
		s.rotation = val
		// Bug №9: switching to a transposed rotation mid-capture makes
		// the blob release the in-flight result buffer under the still-
		// running capture thread, which faults on its next frame. The
		// framework always rotates before starting the stream, so only a
		// reordered sequence reaches the buggy path.
		if c.bugs.Has(bugs.CameraHALCrash) && s.capturing && transposed(val) {
			c.segfault("CameraProvider::processCaptureResult")
		}
	}
	return binder.StatusOK
}

func (c *Camera) closeStream(in []Val, reply *binder.Parcel) binder.Status {
	c.mu.Lock()
	defer c.mu.Unlock()
	s, ok := c.streams[in[0].U]
	if !ok {
		return binder.StatusBadValue
	}
	if s.capturing {
		if fd, st := c.fd(); st == binder.StatusOK {
			_, _, _ = c.sys.Ioctl(fd, drivers.VidiocStreamoff, nil)
		}
	}
	delete(c.streams, s.id)
	return binder.StatusOK
}
