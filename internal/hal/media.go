package hal

import (
	"sync"

	"droidfuzz/internal/binder"
	"droidfuzz/internal/bugs"
	"droidfuzz/internal/drivers"
)

// MediaDescriptor is the media codec service's Binder descriptor.
const MediaDescriptor = "android.hardware.media.codec"

type codec struct {
	id       uint64
	lowLat   bool
	started  bool
	flushed  bool
	capacity int
}

// Media is the media codec HAL. Its fast low-latency mixer path configures
// the PCM driver with the vendor magic flag, which is the realistic route
// into the kernel drain-loop hang (bug №5). Its own defect is bug №6: after
// a flush, queueing a buffer larger than the (reset) internal capacity runs
// an unchecked memcpy and the process segfaults.
type Media struct {
	Base
	sys  *Sys
	bugs bugs.Set

	mu        sync.Mutex
	pcmFD     int
	codecs    map[uint64]*codec
	nextCodec uint64
}

var mediaTable = newTable(MediaDescriptor, "Media", []op[Media]{
	{sig("createCodec", "hal_codec",
		argStr("mime", "audio/aac", "audio/opus", "audio/raw"),
		argFlags("lowLatency", 0, 1),
		argInt("periodHint", 0, 4096)), (*Media).createCodec},
	{sig("queueBuffer", "",
		argRes("codec", "hal_codec"), argBuf("data", 1024)), (*Media).queueBuffer},
	{sig("flush", "",
		argRes("codec", "hal_codec")), (*Media).flush},
	{sig("drain", "",
		argRes("codec", "hal_codec")), (*Media).drain},
	{sig("releaseCodec", "",
		argRes("codec", "hal_codec")), (*Media).releaseCodec},
	{sig("getMetrics", ""), (*Media).getMetrics},
})

// NewMedia constructs the media codec service over the given syscall facade.
func NewMedia(sys *Sys, b bugs.Set) *Media {
	m := &Media{
		sys:       sys,
		bugs:      b,
		pcmFD:     -1,
		codecs:    make(map[uint64]*codec),
		nextCodec: 1,
	}
	m.Base = Base{mediaTable, m}
	return m
}

func (m *Media) fd() (int, binder.Status) {
	if m.pcmFD >= 0 {
		return m.pcmFD, binder.StatusOK
	}
	fd, err := m.sys.Open(drivers.PathPCM, 0)
	if err != nil {
		return -1, binder.StatusFailed
	}
	m.pcmFD = fd
	return fd, binder.StatusOK
}

func (m *Media) createCodec(in []Val, reply *binder.Parcel) binder.Status {
	m.mu.Lock()
	defer m.mu.Unlock()
	fd, st := m.fd()
	if st != binder.StatusOK {
		return st
	}
	lowLat := in[1].U == 1
	periodHint := in[2].U
	rate := uint64(48000)
	switch in[0].S {
	case "audio/aac":
		rate = 44100
	case "audio/raw":
		rate = 96000
	}

	var period, flags uint64
	if lowLat {
		// The fast mixer uses the vendor low-latency path: the period
		// derives from the hint and the magic flag skips validation —
		// a zero-rounded hint produces the hang-prone zero period.
		period = periodHint % 128
		flags = drivers.AudioLowLatencyMagic
	} else {
		period = 1024
		flags = 0
	}
	arg := drivers.PutU64(nil, rate)
	arg = drivers.PutU64(arg, 2) // channels
	arg = drivers.PutU64(arg, period)
	arg = drivers.PutU64(arg, flags)
	if _, _, err := m.sys.Ioctl(fd, drivers.PCMHwParams, arg); err != nil {
		return binder.StatusFailed
	}
	if _, _, err := m.sys.Ioctl(fd, drivers.PCMPrepare, nil); err != nil {
		return binder.StatusFailed
	}
	id := m.nextCodec
	m.nextCodec++
	m.codecs[id] = &codec{id: id, lowLat: lowLat, capacity: 1024}
	reply.WriteUint64(id)
	return binder.StatusOK
}

func (m *Media) queueBuffer(in []Val, reply *binder.Parcel) binder.Status {
	m.mu.Lock()
	defer m.mu.Unlock()
	c, ok := m.codecs[in[0].U]
	if !ok {
		return binder.StatusBadValue
	}
	data := in[1].B
	if len(data) == 0 {
		return binder.StatusBadValue
	}
	if c.flushed {
		// Flush resets the ring to its small post-flush capacity but the
		// buggy blob keeps validating against the original one: large
		// queues overrun the ring (bug №6).
		if len(data) > 512 {
			if m.bugs.Has(bugs.MediaHALCrash) {
				m.segfault("MediaCodec::queueInputBuffer")
			}
			return binder.StatusBadValue
		}
		c.flushed = false
	}
	fd, st := m.fd()
	if st != binder.StatusOK {
		return st
	}
	if !c.started {
		if _, _, err := m.sys.Ioctl(fd, drivers.PCMStart, nil); err != nil {
			return binder.StatusFailed
		}
		c.started = true
	}
	if _, err := m.sys.Write(fd, data); err != nil {
		return binder.StatusFailed
	}
	return binder.StatusOK
}

func (m *Media) flush(in []Val, reply *binder.Parcel) binder.Status {
	m.mu.Lock()
	defer m.mu.Unlock()
	c, ok := m.codecs[in[0].U]
	if !ok {
		return binder.StatusBadValue
	}
	fd, st := m.fd()
	if st != binder.StatusOK {
		return st
	}
	if c.started {
		_, _, _ = m.sys.Ioctl(fd, drivers.PCMStop, nil)
		c.started = false
	}
	_, _, _ = m.sys.Ioctl(fd, drivers.PCMPrepare, nil)
	c.flushed = true
	return binder.StatusOK
}

func (m *Media) drain(in []Val, reply *binder.Parcel) binder.Status {
	m.mu.Lock()
	defer m.mu.Unlock()
	c, ok := m.codecs[in[0].U]
	if !ok {
		return binder.StatusBadValue
	}
	fd, st := m.fd()
	if st != binder.StatusOK {
		return st
	}
	if !c.started {
		return binder.StatusBadValue
	}
	// The kernel drain loop with a zero period is bug №5: the watchdog
	// wedges the kernel and the ioctl returns EIO.
	if _, _, err := m.sys.Ioctl(fd, drivers.PCMDrain, nil); err != nil {
		return binder.StatusFailed
	}
	c.started = false
	return binder.StatusOK
}

func (m *Media) releaseCodec(in []Val, reply *binder.Parcel) binder.Status {
	m.mu.Lock()
	defer m.mu.Unlock()
	c, ok := m.codecs[in[0].U]
	if !ok {
		return binder.StatusBadValue
	}
	if c.started {
		if fd, st := m.fd(); st == binder.StatusOK {
			_, _, _ = m.sys.Ioctl(fd, drivers.PCMStop, nil)
		}
	}
	delete(m.codecs, c.id)
	return binder.StatusOK
}

func (m *Media) getMetrics(in []Val, reply *binder.Parcel) binder.Status {
	m.mu.Lock()
	defer m.mu.Unlock()
	fd, st := m.fd()
	if st != binder.StatusOK {
		return st
	}
	_, out, err := m.sys.Ioctl(fd, drivers.PCMGetPos, nil)
	if err != nil {
		return binder.StatusFailed
	}
	reply.WriteUint64(drivers.ArgU64(out, 0))
	reply.WriteUint64(drivers.ArgU64(out, 1))
	return binder.StatusOK
}
