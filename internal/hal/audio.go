package hal

import (
	"sync"

	"droidfuzz/internal/binder"
	"droidfuzz/internal/bugs"
	"droidfuzz/internal/drivers"
)

// AudioDescriptor is the audio HAL's Binder descriptor.
const AudioDescriptor = "android.hardware.audio"

type audioStream struct {
	id      uint64
	started bool
}

// Audio is the primary audio HAL: output-stream management over the PCM
// driver using the validated (non-low-latency) configuration path.
type Audio struct {
	Base
	sys  *Sys
	bugs bugs.Set

	mu       sync.Mutex
	pcmFD    int
	streams  map[uint64]*audioStream
	nextID   uint64
	volume   uint64
	routings uint64
}

var audioTable = newTable(AudioDescriptor, "Audio", []op[Audio]{
	{sig("openOutput", "hal_audio",
		argFlags("rate", 8000, 16000, 44100, 48000, 96000),
		argInt("channels", 1, 8)), (*Audio).openOutput},
	{sig("writeAudio", "",
		argRes("stream", "hal_audio"), argBuf("frames", 1024)), (*Audio).writeAudio},
	{sig("setVolume", "",
		argInt("volume", 0, 100)), (*Audio).setVolume},
	{sig("standby", "",
		argRes("stream", "hal_audio")), (*Audio).standby},
	{sig("getPosition", "",
		argRes("stream", "hal_audio")), (*Audio).getPosition},
})

// NewAudio constructs the audio HAL over the given syscall facade.
func NewAudio(sys *Sys, b bugs.Set) *Audio {
	a := &Audio{
		sys:     sys,
		bugs:    b,
		pcmFD:   -1,
		streams: make(map[uint64]*audioStream),
		nextID:  1,
	}
	a.Base = Base{audioTable, a}
	return a
}

func (a *Audio) fd() (int, binder.Status) {
	if a.pcmFD >= 0 {
		return a.pcmFD, binder.StatusOK
	}
	fd, err := a.sys.Open(drivers.PathPCM, 0)
	if err != nil {
		return -1, binder.StatusFailed
	}
	a.pcmFD = fd
	return fd, binder.StatusOK
}

func (a *Audio) openOutput(in []Val, reply *binder.Parcel) binder.Status {
	a.mu.Lock()
	defer a.mu.Unlock()
	fd, st := a.fd()
	if st != binder.StatusOK {
		return st
	}
	arg := drivers.PutU64(nil, in[0].U) // rate
	arg = drivers.PutU64(arg, in[1].U)  // channels
	arg = drivers.PutU64(arg, 1024)     // period
	arg = drivers.PutU64(arg, 0)        // flags: validated path
	if _, _, err := a.sys.Ioctl(fd, drivers.PCMHwParams, arg); err != nil {
		return binder.StatusBadValue
	}
	if _, _, err := a.sys.Ioctl(fd, drivers.PCMPrepare, nil); err != nil {
		return binder.StatusFailed
	}
	id := a.nextID
	a.nextID++
	a.streams[id] = &audioStream{id: id}
	reply.WriteUint64(id)
	return binder.StatusOK
}

func (a *Audio) writeAudio(in []Val, reply *binder.Parcel) binder.Status {
	a.mu.Lock()
	defer a.mu.Unlock()
	s, ok := a.streams[in[0].U]
	if !ok {
		return binder.StatusBadValue
	}
	if len(in[1].B) == 0 {
		return binder.StatusBadValue
	}
	fd, st := a.fd()
	if st != binder.StatusOK {
		return st
	}
	if !s.started {
		if _, _, err := a.sys.Ioctl(fd, drivers.PCMStart, nil); err != nil {
			return binder.StatusFailed
		}
		s.started = true
	}
	if _, err := a.sys.Write(fd, in[1].B); err != nil {
		return binder.StatusFailed
	}
	return binder.StatusOK
}

func (a *Audio) setVolume(in []Val, reply *binder.Parcel) binder.Status {
	a.mu.Lock()
	defer a.mu.Unlock()
	fd, st := a.fd()
	if st != binder.StatusOK {
		return st
	}
	a.volume = in[0].U
	if _, _, err := a.sys.Ioctl(fd, drivers.PCMSetVol, drivers.PutU64(nil, in[0].U)); err != nil {
		return binder.StatusBadValue
	}
	return binder.StatusOK
}

func (a *Audio) standby(in []Val, reply *binder.Parcel) binder.Status {
	a.mu.Lock()
	defer a.mu.Unlock()
	s, ok := a.streams[in[0].U]
	if !ok {
		return binder.StatusBadValue
	}
	if !s.started {
		return binder.StatusOK
	}
	fd, st := a.fd()
	if st != binder.StatusOK {
		return st
	}
	_, _, _ = a.sys.Ioctl(fd, drivers.PCMStop, nil)
	s.started = false
	return binder.StatusOK
}

func (a *Audio) getPosition(in []Val, reply *binder.Parcel) binder.Status {
	a.mu.Lock()
	defer a.mu.Unlock()
	if _, ok := a.streams[in[0].U]; !ok {
		return binder.StatusBadValue
	}
	fd, st := a.fd()
	if st != binder.StatusOK {
		return st
	}
	_, out, err := a.sys.Ioctl(fd, drivers.PCMGetPos, nil)
	if err != nil {
		return binder.StatusFailed
	}
	reply.WriteUint64(drivers.ArgU64(out, 0))
	return binder.StatusOK
}
