package hal

import (
	"sync"

	"droidfuzz/internal/binder"
	"droidfuzz/internal/bugs"
	"droidfuzz/internal/drivers"
)

// InputDescriptor is the input/touch HAL's Binder descriptor.
const InputDescriptor = "android.hardware.input.touch"

// Input is the touch HAL over the capacitive controller: it owns the
// calibration lifecycle, translates gesture configuration, injects
// synthetic event streams (the framework's pointer pipeline), and drives
// the vendor firmware-update path with the proper image header.
type Input struct {
	Base
	sys  *Sys
	bugs bugs.Set

	mu      sync.Mutex
	touchFD int
}

var inputTable = newTable(InputDescriptor, "Input", []op[Input]{
	{sig("calibrate", "",
		argInt("refx", 0, 1079), argInt("refy", 0, 1919)), (*Input).calibrate},
	{sig("setMode", "",
		argFlags("mode", drivers.TouchModeFinger, drivers.TouchModeStylus,
			drivers.TouchModeGesture)), (*Input).setMode},
	{sig("injectSwipe", "",
		argInt("x0", 0, 1000), argInt("y0", 0, 1800),
		argInt("steps", 1, 6)), (*Input).injectSwipe},
	{sig("firmwareUpdate", "",
		argInt("version", 1, 0xffff), argBuf("payload", 48)), (*Input).firmwareUpdate},
	{sig("selfTest", ""), (*Input).selfTest},
})

// NewInput constructs the touch HAL over the given syscall facade.
func NewInput(sys *Sys, b bugs.Set) *Input {
	t := &Input{sys: sys, bugs: b, touchFD: -1}
	t.Base = Base{inputTable, t}
	return t
}

func (t *Input) fd() (int, binder.Status) {
	if t.touchFD >= 0 {
		return t.touchFD, binder.StatusOK
	}
	fd, err := t.sys.Open(drivers.PathTouch, 0)
	if err != nil {
		return -1, binder.StatusFailed
	}
	t.touchFD = fd
	return fd, binder.StatusOK
}

func (t *Input) calibrate(in []Val, reply *binder.Parcel) binder.Status {
	t.mu.Lock()
	defer t.mu.Unlock()
	fd, st := t.fd()
	if st != binder.StatusOK {
		return st
	}
	arg := drivers.PutU64(nil, in[0].U)
	arg = drivers.PutU64(arg, in[1].U)
	if _, _, err := t.sys.Ioctl(fd, drivers.TouchCalibrate, arg); err != nil {
		return binder.StatusBadValue
	}
	return binder.StatusOK
}

func (t *Input) setMode(in []Val, reply *binder.Parcel) binder.Status {
	t.mu.Lock()
	defer t.mu.Unlock()
	fd, st := t.fd()
	if st != binder.StatusOK {
		return st
	}
	// The HAL calibrates lazily before the first mode change, the way the
	// real pipeline brings a panel up.
	arg := drivers.PutU64(nil, 540)
	arg = drivers.PutU64(arg, 960)
	_, _, _ = t.sys.Ioctl(fd, drivers.TouchCalibrate, arg)
	if _, _, err := t.sys.Ioctl(fd, drivers.TouchSetMode, drivers.PutU64(nil, in[0].U)); err != nil {
		return binder.StatusBadValue
	}
	return binder.StatusOK
}

func (t *Input) injectSwipe(in []Val, reply *binder.Parcel) binder.Status {
	t.mu.Lock()
	defer t.mu.Unlock()
	fd, st := t.fd()
	if st != binder.StatusOK {
		return st
	}
	x, y, steps := in[0].U, in[1].U, in[2].U
	if steps == 0 || steps > 6 {
		return binder.StatusBadValue
	}
	var stream []byte
	for i := uint64(0); i < steps; i++ {
		px := x + i*8
		py := y + i*8
		stream = append(stream,
			byte(px), byte(px>>8),
			byte(py), byte(py>>8),
			0x40, 0x00, // pressure
		)
	}
	if _, err := t.sys.Write(fd, stream); err != nil {
		return binder.StatusFailed
	}
	return binder.StatusOK
}

func (t *Input) firmwareUpdate(in []Val, reply *binder.Parcel) binder.Status {
	t.mu.Lock()
	defer t.mu.Unlock()
	fd, st := t.fd()
	if st != binder.StatusOK {
		return st
	}
	// Updates require the panel off; the HAL sequences that itself.
	_, _, _ = t.sys.Ioctl(fd, drivers.TouchSetMode, drivers.PutU64(nil, drivers.TouchModeOff))
	ver := in[0].U
	img := append([]byte{'T', 'P', byte(ver), byte(ver >> 8)}, in[1].B...)
	v, _, err := t.sys.Ioctl(fd, drivers.TouchFwUpdate, img)
	if err != nil {
		return binder.StatusBadValue
	}
	reply.WriteUint64(v)
	return binder.StatusOK
}

func (t *Input) selfTest(in []Val, reply *binder.Parcel) binder.Status {
	t.mu.Lock()
	defer t.mu.Unlock()
	fd, st := t.fd()
	if st != binder.StatusOK {
		return st
	}
	v, _, err := t.sys.Ioctl(fd, drivers.TouchSelfTest, nil)
	if err != nil {
		return binder.StatusFailed
	}
	reply.WriteUint64(v)
	return binder.StatusOK
}
