package hal

import (
	"strings"
	"testing"

	"droidfuzz/internal/binder"
	"droidfuzz/internal/bugs"
	"droidfuzz/internal/drivers"
	"droidfuzz/internal/vkernel"
)

// halRig boots a kernel with every driver and wraps one service in a
// process with a respawn reconstructor, the way the device package does.
type halRig struct {
	t    *testing.T
	k    *vkernel.Kernel
	proc *Process
}

func newHALRig(t *testing.T, b bugs.Set, build func(*Sys, bugs.Set) binder.Service, label string) *halRig {
	t.Helper()
	k := vkernel.New()
	k.RegisterDevice(drivers.PathTCPC, drivers.NewTCPC(b))
	k.RegisterDevice(drivers.PathHCI, drivers.NewHCI(b))
	k.RegisterDevice(drivers.PathVideo, drivers.NewV4L2(b))
	k.RegisterDevice(drivers.PathPCM, drivers.NewAudio(b))
	k.RegisterDevice(drivers.PathGPU, drivers.NewGPU(b))
	k.RegisterDevice(drivers.PathIIO, drivers.NewSensor(b))
	k.RegisterDevice(drivers.PathNFC, drivers.NewNFC(b))
	k.RegisterDevice(drivers.PathThermal, drivers.NewThermal(b))
	k.RegisterDevice(drivers.PathTouch, drivers.NewTouch(b))
	sys := &Sys{K: k, PID: 1000}
	proc := NewProcess(1000, build(sys, b), label)
	proc.SetRebuild(func() binder.Service { return build(sys, b) })
	return &halRig{t: t, k: k, proc: proc}
}

// call invokes a method by name via reflection + transaction.
func (r *halRig) call(method string, marshal func(*binder.Parcel)) (*binder.Parcel, binder.Status) {
	r.t.Helper()
	reflOut := binder.NewParcel()
	if st := r.proc.Transact(binder.InterfaceTransaction, binder.NewParcel(), reflOut); st != binder.StatusOK {
		r.t.Fatalf("reflect: %v", st)
	}
	methods, err := binder.UnmarshalMethods(reflOut)
	if err != nil {
		r.t.Fatal(err)
	}
	for _, m := range methods {
		if m.Name == method {
			in, out := binder.NewParcel(), binder.NewParcel()
			if marshal != nil {
				marshal(in)
			}
			return out, r.proc.Transact(m.Code, in, out)
		}
	}
	r.t.Fatalf("no method %q", method)
	return nil, binder.StatusFailed
}

func (r *halRig) mustCall(method string, marshal func(*binder.Parcel)) *binder.Parcel {
	r.t.Helper()
	out, st := r.call(method, marshal)
	if st != binder.StatusOK {
		r.t.Fatalf("%s: %v", method, st)
	}
	return out
}

func u64(p *binder.Parcel) uint64 {
	v, _ := p.ReadUint64()
	return v
}

func asService(f func(*Sys, bugs.Set) binder.Service) func(*Sys, bugs.Set) binder.Service {
	return f
}

func TestGraphicsComposerFlow(t *testing.T) {
	r := newHALRig(t, nil, asService(func(s *Sys, b bugs.Set) binder.Service { return NewGraphics(s, b) }), "Graphics")
	out := r.mustCall("createLayer", func(p *binder.Parcel) {
		p.WriteUint64(1280)
		p.WriteUint64(720)
		p.WriteUint64(1)
	})
	layer := u64(out)
	if layer == 0 {
		t.Fatal("no layer id")
	}
	r.mustCall("setLayerBuffer", func(p *binder.Parcel) { p.WriteUint64(layer); p.WriteUint64(0) })
	r.mustCall("presentDisplay", nil)
	r.mustCall("destroyLayer", func(p *binder.Parcel) { p.WriteUint64(layer) })
	// With the bug disabled, present after destroy is clean (empty list).
	if _, st := r.call("presentDisplay", nil); st != binder.StatusBadValue {
		t.Fatalf("present with no layers = %v", st)
	}
	// The kernel saw real GPU work from the HAL's pid.
	if r.k.SyscallCount() == 0 {
		t.Fatal("no syscalls issued")
	}
}

func TestGraphicsBug2CrashAfterDestroy(t *testing.T) {
	r := newHALRig(t, bugs.NewSet(bugs.GraphicsHALCrash),
		asService(func(s *Sys, b bugs.Set) binder.Service { return NewGraphics(s, b) }), "Graphics")
	a := u64(r.mustCall("createLayer", func(p *binder.Parcel) {
		p.WriteUint64(64)
		p.WriteUint64(64)
		p.WriteUint64(1)
	}))
	r.mustCall("destroyLayer", func(p *binder.Parcel) { p.WriteUint64(a) })
	// The dangling presentation-list entry crashes the process.
	if _, st := r.call("presentDisplay", nil); st != binder.StatusDeadObject {
		t.Fatalf("status = %v, want DEAD_OBJECT", st)
	}
	if !r.proc.Dead() {
		t.Fatal("process should be dead")
	}
	crashes := r.proc.TakeCrashes()
	if len(crashes) != 1 || crashes[0].Title() != "Native crash in Graphics HAL" {
		t.Fatalf("crashes = %v", crashes)
	}
	if !strings.Contains(crashes[0].String(), "SIGSEGV") {
		t.Fatalf("detail = %q", crashes[0].String())
	}
	// Dead process refuses everything, including reflection.
	if st := r.proc.Transact(binder.InterfaceTransaction, binder.NewParcel(), binder.NewParcel()); st != binder.StatusDeadObject {
		t.Fatal("dead process answered")
	}
}

func TestGraphicsLockdepRouteViaLayers(t *testing.T) {
	r := newHALRig(t, bugs.NewSet(bugs.LockdepSubclass),
		asService(func(s *Sys, b bugs.Set) binder.Service { return NewGraphics(s, b) }), "Graphics")
	for i := 0; i < 8; i++ {
		r.mustCall("createLayer", func(p *binder.Parcel) {
			p.WriteUint64(64)
			p.WriteUint64(64)
			p.WriteUint64(1)
		})
	}
	// presentDisplay with 8 layers drives subclass 8 into lockdep.
	if _, st := r.call("presentDisplay", nil); st != binder.StatusFailed {
		t.Fatalf("status = %v", st)
	}
	if !r.k.Wedged() {
		t.Fatal("kernel should be wedged by the lockdep BUG")
	}
}

func TestMediaBug6FlushOverrun(t *testing.T) {
	r := newHALRig(t, bugs.NewSet(bugs.MediaHALCrash),
		asService(func(s *Sys, b bugs.Set) binder.Service { return NewMedia(s, b) }), "Media")
	id := u64(r.mustCall("createCodec", func(p *binder.Parcel) {
		p.WriteString("audio/aac")
		p.WriteUint64(0)
		p.WriteUint64(1024)
	}))
	r.mustCall("flush", func(p *binder.Parcel) { p.WriteUint64(id) })
	if _, st := r.call("queueBuffer", func(p *binder.Parcel) {
		p.WriteUint64(id)
		p.WriteBytes(make([]byte, 600))
	}); st != binder.StatusDeadObject {
		t.Fatalf("status = %v, want DEAD_OBJECT", st)
	}
	crashes := r.proc.TakeCrashes()
	if len(crashes) != 1 || crashes[0].Title() != "Native crash in Media HAL" {
		t.Fatalf("crashes = %v", crashes)
	}
}

func TestMediaFlushSafeWithoutBug(t *testing.T) {
	r := newHALRig(t, nil,
		asService(func(s *Sys, b bugs.Set) binder.Service { return NewMedia(s, b) }), "Media")
	id := u64(r.mustCall("createCodec", func(p *binder.Parcel) {
		p.WriteString("audio/aac")
		p.WriteUint64(0)
		p.WriteUint64(1024)
	}))
	r.mustCall("flush", func(p *binder.Parcel) { p.WriteUint64(id) })
	if _, st := r.call("queueBuffer", func(p *binder.Parcel) {
		p.WriteUint64(id)
		p.WriteBytes(make([]byte, 600))
	}); st != binder.StatusBadValue {
		t.Fatalf("status = %v, want BAD_VALUE", st)
	}
	if r.proc.Dead() {
		t.Fatal("process died without bug enabled")
	}
}

func TestMediaLowLatencyDrainHang(t *testing.T) {
	r := newHALRig(t, bugs.NewSet(bugs.AudioHang),
		asService(func(s *Sys, b bugs.Set) binder.Service { return NewMedia(s, b) }), "Media")
	r.k.StepBudget = 1000
	id := u64(r.mustCall("createCodec", func(p *binder.Parcel) {
		p.WriteString("audio/raw")
		p.WriteUint64(1)   // low latency
		p.WriteUint64(256) // hint % 128 == 0 -> zero period
	}))
	r.mustCall("queueBuffer", func(p *binder.Parcel) {
		p.WriteUint64(id)
		p.WriteBytes(make([]byte, 128))
	})
	if _, st := r.call("drain", func(p *binder.Parcel) { p.WriteUint64(id) }); st != binder.StatusFailed {
		t.Fatalf("status = %v", st)
	}
	if !r.k.Wedged() {
		t.Fatal("kernel drain hang should wedge")
	}
}

func TestCameraBug9BothFlavors(t *testing.T) {
	open := func(r *halRig) uint64 {
		return u64(r.mustCall("openStream", func(p *binder.Parcel) {
			p.WriteUint64(1280)
			p.WriteUint64(720)
			p.WriteUint64(drivers.PixFmtNV12)
		}))
	}
	rotate := func(r *halRig, id, val uint64) (binder.Status, *binder.Parcel) {
		out, st := r.call("setParameter", func(p *binder.Parcel) {
			p.WriteUint64(id)
			p.WriteUint64(13)
			p.WriteUint64(val)
		})
		return st, out
	}

	// A live transposed-rotation change mid-capture crashes the capture
	// thread immediately (bug №9).
	for _, val := range []uint64{90, 270} {
		r := newHALRig(t, bugs.NewSet(bugs.CameraHALCrash),
			asService(func(s *Sys, b bugs.Set) binder.Service { return NewCamera(s, b) }), "Camera")
		id := open(r)
		r.mustCall("startCapture", func(p *binder.Parcel) { p.WriteUint64(id) })
		if st, _ := rotate(r, id, val); st != binder.StatusDeadObject {
			t.Fatalf("live rotation %d status = %v, want DEAD_OBJECT", val, st)
		}
		if c := r.proc.TakeCrashes(); len(c) != 1 || c[0].Title() != "Native crash in Camera HAL" {
			t.Fatalf("crashes = %v", c)
		}
	}

	// The framework's order — rotation before start — never crashes.
	r := newHALRig(t, bugs.NewSet(bugs.CameraHALCrash),
		asService(func(s *Sys, b bugs.Set) binder.Service { return NewCamera(s, b) }), "Camera")
	id := open(r)
	rotate(r, id, 90)
	r.mustCall("startCapture", func(p *binder.Parcel) { p.WriteUint64(id) })
	r.mustCall("captureFrame", func(p *binder.Parcel) { p.WriteUint64(id) })
	r.mustCall("stopCapture", func(p *binder.Parcel) { p.WriteUint64(id) })
	if r.proc.Dead() {
		t.Fatal("framework order crashed")
	}

	// A live change to a non-transposed rotation is harmless.
	r = newHALRig(t, bugs.NewSet(bugs.CameraHALCrash),
		asService(func(s *Sys, b bugs.Set) binder.Service { return NewCamera(s, b) }), "Camera")
	id = open(r)
	r.mustCall("startCapture", func(p *binder.Parcel) { p.WriteUint64(id) })
	if st, _ := rotate(r, id, 180); st != binder.StatusOK {
		t.Fatalf("rotation 180 status = %v", st)
	}
	r.mustCall("captureFrame", func(p *binder.Parcel) { p.WriteUint64(id) })
	if r.proc.Dead() {
		t.Fatal("non-transposed live rotation crashed")
	}
}

func TestBluetoothDiscoveryDrivesKernel(t *testing.T) {
	r := newHALRig(t, nil,
		asService(func(s *Sys, b bugs.Set) binder.Service { return NewBluetooth(s, b) }), "Bluetooth")
	r.mustCall("enable", nil)
	r.mustCall("startDiscovery", func(p *binder.Parcel) { p.WriteUint64(drivers.HCIScanInquiry) })
	out := r.mustCall("connect", func(p *binder.Parcel) { p.WriteUint64(0x42) })
	handle := u64(out)
	if handle == 0 {
		t.Fatal("no handle")
	}
	r.mustCall("acceptConnection", nil)
	r.mustCall("disconnect", func(p *binder.Parcel) { p.WriteUint64(handle) })
	r.mustCall("getSupportedCodecs", nil)
	r.mustCall("disable", nil)
}

func TestUSBReprobeArmsVendorRegister(t *testing.T) {
	r := newHALRig(t, bugs.NewSet(bugs.TCPCProbe),
		asService(func(s *Sys, b bugs.Set) binder.Service { return NewUSB(s, b) }), "Usb")
	r.mustCall("enableContract", func(p *binder.Parcel) { p.WriteUint64(9000) })
	r.mustCall("startToggling", nil)
	// reprobeChip writes the init register first, so the kernel WARN fires.
	if _, st := r.call("reprobeChip", nil); st != binder.StatusFailed {
		t.Fatalf("status = %v", st)
	}
	found := false
	for _, c := range r.k.TakeCrashes() {
		if strings.Contains(c.Title, "rt1711_i2c_probe") {
			found = true
		}
	}
	if !found {
		t.Fatal("HAL route did not trigger bug №1")
	}
}

func TestSensorsAndThermalAndNFC(t *testing.T) {
	r := newHALRig(t, nil,
		asService(func(s *Sys, b bugs.Set) binder.Service { return NewSensors(s, b) }), "Sensors")
	r.mustCall("activate", func(p *binder.Parcel) { p.WriteUint64(0); p.WriteUint64(1) })
	r.mustCall("batch", func(p *binder.Parcel) { p.WriteUint64(0); p.WriteUint64(100) })
	out := r.mustCall("poll", nil)
	if data, err := out.ReadBytes(); err != nil || len(data) == 0 {
		t.Fatalf("poll data = %v/%v", data, err)
	}

	r = newHALRig(t, nil,
		asService(func(s *Sys, b bugs.Set) binder.Service { return NewThermal(s, b) }), "Thermal")
	out = r.mustCall("getTemperature", func(p *binder.Parcel) { p.WriteUint64(0) })
	if u64(out) == 0 {
		t.Fatal("zero temperature")
	}

	r = newHALRig(t, nil,
		asService(func(s *Sys, b bugs.Set) binder.Service { return NewNFC(s, b) }), "Nfc")
	r.mustCall("enable", nil)
	r.mustCall("transceive", func(p *binder.Parcel) { p.WriteBytes([]byte{0x00, 0xa4}) })
	r.mustCall("firmwareUpdate", func(p *binder.Parcel) { p.WriteBytes([]byte{1, 2, 3}) })
}

func TestAudioHALFlow(t *testing.T) {
	r := newHALRig(t, nil,
		asService(func(s *Sys, b bugs.Set) binder.Service { return NewAudio(s, b) }), "Audio")
	id := u64(r.mustCall("openOutput", func(p *binder.Parcel) {
		p.WriteUint64(48000)
		p.WriteUint64(2)
	}))
	r.mustCall("writeAudio", func(p *binder.Parcel) {
		p.WriteUint64(id)
		p.WriteBytes(make([]byte, 512))
	})
	r.mustCall("setVolume", func(p *binder.Parcel) { p.WriteUint64(50) })
	out := r.mustCall("getPosition", func(p *binder.Parcel) { p.WriteUint64(id) })
	_ = out
	r.mustCall("standby", func(p *binder.Parcel) { p.WriteUint64(id) })
}

func TestUnknownTransaction(t *testing.T) {
	r := newHALRig(t, nil,
		asService(func(s *Sys, b bugs.Set) binder.Service { return NewGraphics(s, b) }), "Graphics")
	if st := r.proc.Transact(0xdead, binder.NewParcel(), binder.NewParcel()); st != binder.StatusUnknownTransaction {
		t.Fatalf("status = %v", st)
	}
}

func TestShortParcelIsBadValue(t *testing.T) {
	r := newHALRig(t, nil,
		asService(func(s *Sys, b bugs.Set) binder.Service { return NewGraphics(s, b) }), "Graphics")
	// createLayer is code 1 and wants three u64s; send none.
	if st := r.proc.Transact(1, binder.NewParcel(), binder.NewParcel()); st != binder.StatusBadValue {
		t.Fatalf("status = %v", st)
	}
}
