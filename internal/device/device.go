// Package device assembles virtual embedded Android devices: a virtual
// kernel with the model's driver tree, the vendor HAL processes behind a
// Binder ServiceManager, the framework layer, and the eBPF hub — one
// package per physical device of Table I.
package device

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"

	"droidfuzz/internal/binder"
	"droidfuzz/internal/bugs"
	"droidfuzz/internal/drivers"
	"droidfuzz/internal/dsl"
	"droidfuzz/internal/ebpf"
	"droidfuzz/internal/hal"
	"droidfuzz/internal/kcov"
	"droidfuzz/internal/snap"
	"droidfuzz/internal/vkernel"
)

// Driver family names used in model driver lists.
const (
	FamTCPC    = "tcpc"
	FamHCI     = "hci"
	FamL2CAP   = "l2cap"
	FamV4L2    = "v4l2"
	FamAudio   = "audio"
	FamGPU     = "gpu"
	FamWLAN    = "wlan"
	FamIIO     = "iio"
	FamNFC     = "nfc"
	FamThermal = "thermal"
	FamTouch   = "touch"
)

// Model describes one Table I device.
type Model struct {
	ID      string // "A1", "A2", "B", "C1", "C2", "D", "E"
	Name    string
	Vendor  string
	Arch    string
	AOSP    int
	Kernel  string
	Bugs    bugs.Set
	Drivers []string // driver family names
	HALs    []string // Binder descriptors
}

// The model table is built once at init; Models/IDs/ModelByID hand out the
// precomputed entries instead of reallocating seven model structs (plus bug
// sets and driver lists) per lookup. Model contents are read-only by
// convention: every Device shares the table's Bugs/Drivers/HALs values.
var (
	modelTable = buildModels()
	modelIDs   = func() []string {
		out := make([]string, len(modelTable))
		for i, m := range modelTable {
			out[i] = m.ID
		}
		return out
	}()
	modelIndex = func() map[string]int {
		idx := make(map[string]int, len(modelTable))
		for i, m := range modelTable {
			idx[m.ID] = i
		}
		return idx
	}()
)

// Models returns the seven Table I device models with their injected
// Table II bug sets.
func Models() []Model {
	out := make([]Model, len(modelTable))
	copy(out, modelTable)
	return out
}

func buildModels() []Model {
	return []Model{
		{
			ID: "A1", Name: "Phone Dev Board", Vendor: "Xiaomi",
			Arch: "aarch64", AOSP: 15, Kernel: "6.6",
			Bugs: bugs.NewSet(bugs.TCPCProbe, bugs.GraphicsHALCrash,
				bugs.LockdepSubclass, bugs.TCPCVbus, bugs.TCPCContractOVP),
			Drivers: []string{FamTCPC, FamHCI, FamL2CAP, FamV4L2, FamAudio,
				FamGPU, FamWLAN, FamIIO, FamNFC, FamThermal, FamTouch},
			HALs: []string{hal.GraphicsDescriptor, hal.MediaDescriptor,
				hal.CameraDescriptor, hal.AudioDescriptor,
				hal.BluetoothDescriptor, hal.NFCDescriptor,
				hal.SensorsDescriptor, hal.USBDescriptor,
				hal.ThermalDescriptor, hal.InputDescriptor},
		},
		{
			ID: "A2", Name: "Tablet Dev Board", Vendor: "Xiaomi",
			Arch: "aarch64", AOSP: 15, Kernel: "6.6",
			Bugs: bugs.NewSet(bugs.AudioHang, bugs.MediaHALCrash, bugs.HCICodecs),
			Drivers: []string{FamTCPC, FamHCI, FamL2CAP, FamV4L2, FamAudio,
				FamGPU, FamWLAN, FamIIO, FamThermal, FamTouch},
			HALs: []string{hal.GraphicsDescriptor, hal.MediaDescriptor,
				hal.CameraDescriptor, hal.AudioDescriptor,
				hal.BluetoothDescriptor, hal.SensorsDescriptor,
				hal.USBDescriptor, hal.ThermalDescriptor,
				hal.InputDescriptor},
		},
		{
			ID: "B", Name: "Pi 5", Vendor: "Raspberry Pi",
			Arch: "aarch64", AOSP: 15, Kernel: "5.15",
			Bugs: bugs.NewSet(bugs.L2capDisconn),
			Drivers: []string{FamHCI, FamL2CAP, FamV4L2, FamAudio, FamGPU,
				FamWLAN, FamIIO, FamThermal},
			HALs: []string{hal.GraphicsDescriptor, hal.AudioDescriptor,
				hal.BluetoothDescriptor, hal.SensorsDescriptor,
				hal.ThermalDescriptor},
		},
		{
			ID: "C1", Name: "Commercial Tablet", Vendor: "Sunmi",
			Arch: "aarch64", AOSP: 13, Kernel: "5.15",
			Bugs: bugs.NewSet(bugs.CameraHALCrash),
			Drivers: []string{FamTCPC, FamHCI, FamL2CAP, FamV4L2, FamAudio,
				FamGPU, FamWLAN, FamIIO, FamNFC, FamThermal, FamTouch},
			HALs: []string{hal.GraphicsDescriptor, hal.CameraDescriptor,
				hal.AudioDescriptor, hal.BluetoothDescriptor,
				hal.NFCDescriptor, hal.SensorsDescriptor,
				hal.USBDescriptor, hal.ThermalDescriptor,
				hal.InputDescriptor},
		},
		{
			ID: "C2", Name: "Cashier Kiosk", Vendor: "Sunmi",
			Arch: "aarch64", AOSP: 13, Kernel: "5.15",
			Bugs: bugs.NewSet(bugs.RateInit),
			Drivers: []string{FamTCPC, FamHCI, FamL2CAP, FamV4L2, FamAudio,
				FamGPU, FamWLAN, FamIIO, FamNFC, FamThermal, FamTouch},
			HALs: []string{hal.GraphicsDescriptor, hal.MediaDescriptor,
				hal.AudioDescriptor, hal.BluetoothDescriptor,
				hal.NFCDescriptor, hal.SensorsDescriptor,
				hal.USBDescriptor, hal.ThermalDescriptor,
				hal.InputDescriptor},
		},
		{
			ID: "D", Name: "LubanCat 5", Vendor: "EmbedFire",
			Arch: "aarch64", AOSP: 13, Kernel: "5.10",
			Bugs: bugs.NewSet(bugs.BTAcceptUnlink),
			Drivers: []string{FamHCI, FamL2CAP, FamV4L2, FamAudio, FamGPU,
				FamWLAN, FamIIO, FamThermal, FamTouch},
			HALs: []string{hal.GraphicsDescriptor, hal.MediaDescriptor,
				hal.AudioDescriptor, hal.BluetoothDescriptor,
				hal.SensorsDescriptor, hal.ThermalDescriptor,
				hal.InputDescriptor},
		},
		{
			ID: "E", Name: "UP Core Plus", Vendor: "AAEON",
			Arch: "amd64", AOSP: 13, Kernel: "5.10",
			Bugs: bugs.NewSet(bugs.V4LQuerycap),
			Drivers: []string{FamTCPC, FamHCI, FamL2CAP, FamV4L2, FamAudio,
				FamGPU, FamWLAN, FamIIO, FamThermal, FamTouch},
			HALs: []string{hal.GraphicsDescriptor, hal.MediaDescriptor,
				hal.CameraDescriptor, hal.AudioDescriptor,
				hal.BluetoothDescriptor, hal.SensorsDescriptor,
				hal.USBDescriptor, hal.ThermalDescriptor,
				hal.InputDescriptor},
		},
	}
}

// ModelByID returns the Table I model with the given ID.
func ModelByID(id string) (Model, error) {
	if i, ok := modelIndex[id]; ok {
		return modelTable[i], nil
	}
	return Model{}, fmt.Errorf("device: unknown model %q (valid: %s)",
		id, strings.Join(IDs(), ", "))
}

// IDs returns the Table I model IDs in listing order, for flag validation
// and error messages.
func IDs() []string {
	out := make([]string, len(modelIDs))
	copy(out, modelIDs)
	return out
}

// Device is one booted virtual device.
type Device struct {
	Model Model
	K     *vkernel.Kernel
	Hub   *ebpf.Hub
	SM    *binder.ServiceManager
	Procs []*hal.Process
	FW    *hal.Framework

	// subs lists every snapshot-capable subsystem in deterministic order;
	// snap holds the checkpoint Restore winds back to: the post-boot state
	// after boot/Reboot, or the imported state after ImportCheckpoint.
	// snapPristine records which of the two it is (the sanitize build only
	// cross-checks restores against a fresh boot when it is the former).
	subs         []snap.Subsystem
	snap         *Snapshot
	snapPristine bool

	// Byte-identity bookkeeping for the ImportCheckpoint fast paths:
	// snapCache holds the snapshots captured by the most recent imports,
	// keyed by the exact blob bytes, so re-importing one of them (the
	// lineage scheduler alternates between a post-prefix and a pristine
	// blob) rewinds by generation-checked restore instead of a gob decode.
	// exportBlob/exportGens record the last ExportCheckpoint and the
	// subsystem generations at that moment. All cleared on boot — they
	// refer to the previous subsystem tree.
	snapCache  [2]snapCacheEntry
	exportBlob []byte
	exportGens []uint64

	// knobSets is the live runtime-parameter state per driver family, in
	// model driver-list order.
	knobSets []*drivers.Knobs

	// Counters are atomics: the broker reads them for Info/Stats while
	// another goroutine may be resetting the device.
	reboots   atomic.Int64
	restores  atomic.Int64
	halDeaths atomic.Int64
}

// HAL process PIDs start here; the native executor uses NativePID.
const (
	halPIDBase = 1000
	// NativePID is the process id the native executor issues syscalls as.
	NativePID = 4242
)

// New boots a device for the model.
func New(m Model) *Device {
	d := &Device{Model: m, Hub: ebpf.NewHub()}
	d.boot()
	return d
}

// deviceDriver is what every registered driver family implements: the
// kernel-facing driver surface, checkpoint/restore, and the family's
// runtime-parameter state.
type deviceDriver interface {
	vkernel.Driver
	snap.Subsystem
	Knobs() *drivers.Knobs
}

// newDriver constructs the driver for a family and returns its /dev path.
func newDriver(fam string, b bugs.Set) (string, deviceDriver) {
	switch fam {
	case FamTCPC:
		return drivers.PathTCPC, drivers.NewTCPC(b)
	case FamHCI:
		return drivers.PathHCI, drivers.NewHCI(b)
	case FamL2CAP:
		return drivers.PathL2CAP, drivers.NewL2CAP(b)
	case FamV4L2:
		return drivers.PathVideo, drivers.NewV4L2(b)
	case FamAudio:
		return drivers.PathPCM, drivers.NewAudio(b)
	case FamGPU:
		return drivers.PathGPU, drivers.NewGPU(b)
	case FamWLAN:
		return drivers.PathWLAN, drivers.NewWLAN(b)
	case FamIIO:
		return drivers.PathIIO, drivers.NewSensor(b)
	case FamNFC:
		return drivers.PathNFC, drivers.NewNFC(b)
	case FamThermal:
		return drivers.PathThermal, drivers.NewThermal(b)
	case FamTouch:
		return drivers.PathTouch, drivers.NewTouch(b)
	default:
		panic(fmt.Sprintf("device: unknown driver family %q", fam))
	}
}

// halService is the constructor surface device boot needs from a HAL.
type halService interface {
	binder.Service
	Label() string
}

// newHALService constructs the service for a Binder descriptor over sys.
func newHALService(desc string, sys *hal.Sys, b bugs.Set) halService {
	switch desc {
	case hal.GraphicsDescriptor:
		return hal.NewGraphics(sys, b)
	case hal.MediaDescriptor:
		return hal.NewMedia(sys, b)
	case hal.CameraDescriptor:
		return hal.NewCamera(sys, b)
	case hal.AudioDescriptor:
		return hal.NewAudio(sys, b)
	case hal.BluetoothDescriptor:
		return hal.NewBluetooth(sys, b)
	case hal.NFCDescriptor:
		return hal.NewNFC(sys, b)
	case hal.SensorsDescriptor:
		return hal.NewSensors(sys, b)
	case hal.USBDescriptor:
		return hal.NewUSB(sys, b)
	case hal.ThermalDescriptor:
		return hal.NewThermal(sys, b)
	case hal.InputDescriptor:
		return hal.NewInput(sys, b)
	default:
		panic(fmt.Sprintf("device: unknown HAL %q", desc))
	}
}

func (d *Device) boot() {
	d.bootTree()
	// The checkpoint is taken at the very end of boot, so every Reboot —
	// including the probing pass's trailing one — refreshes the snapshot.
	d.snap = captureSnapshot(d.subs)
	d.snapPristine = true
	d.snapCache = [2]snapCacheEntry{}
	d.exportBlob, d.exportGens = nil, nil
}

// bootTree constructs the subsystem tree without capturing a snapshot.
// Clone twins boot their tree, import the source checkpoint, and only then
// capture (or share) a snapshot of the imported state.
func (d *Device) bootTree() {
	k := vkernel.New()
	subs := make([]snap.Subsystem, 0, 2+len(d.Model.Drivers)+len(d.Model.HALs)+3)
	subs = append(subs, k, k.Heap)
	d.knobSets = d.knobSets[:0]
	for _, fam := range d.Model.Drivers {
		path, drv := newDriver(fam, d.Model.Bugs)
		k.RegisterDevice(path, drv)
		// The family's runtime parameters go into the sysfs namespace and
		// snapshot as their own subsystem: a knob write never passes
		// through a device fd, so the driver's own dirty tracking cannot
		// stand in for the knobs'.
		kn := drv.Knobs()
		kn.Register(k)
		d.knobSets = append(d.knobSets, kn)
		subs = append(subs, drv, kn)
	}
	d.Hub.Install(k)
	d.K = k

	sm := binder.NewServiceManager()
	d.Procs = nil
	for i, desc := range d.Model.HALs {
		pid := halPIDBase + i
		sys := &hal.Sys{K: k, PID: pid}
		svc := newHALService(desc, sys, d.Model.Bugs)
		proc := hal.NewProcess(pid, svc, svc.Label())
		// Restore respawns the HAL service the way init would: a fresh
		// instance over the same syscall facade (and thus this kernel).
		proc.SetRebuild(func() binder.Service {
			return newHALService(desc, sys, d.Model.Bugs)
		})
		// The device plays the framework's death-recipient role: every
		// HAL death is counted, and respawn paths (reboot here, Restore
		// in hal) re-arm the one-shot notification.
		proc.LinkToDeath(func() { d.halDeaths.Add(1) })
		d.Procs = append(d.Procs, proc)
		sm.Register(proc)
		subs = append(subs, proc)
	}
	d.SM = sm
	d.FW = hal.NewFramework(sm)
	subs = append(subs, sm, d.FW, d.Hub)
	d.subs = subs
}

// Reboot tears the device down and boots fresh kernel and HAL state, as the
// harness does after any crash (paper §V-A). Attached eBPF probes survive:
// the hub is reinstalled on the new kernel.
func (d *Device) Reboot() {
	d.reboots.Add(1)
	d.boot()
}

// Reboots reports how many times the device rebooted.
func (d *Device) Reboots() int { return int(d.reboots.Load()) }

// Restores reports how many times the device was snapshot-restored.
func (d *Device) Restores() int { return int(d.restores.Load()) }

// HALDeaths reports how many HAL death notifications the device received.
// Each alive→dead transition of a process with an armed recipient counts
// once; respawn paths (reboot, restore) re-arm.
func (d *Device) HALDeaths() int { return int(d.halDeaths.Load()) }

// Healthy reports whether the kernel is not wedged and every HAL process is
// alive.
func (d *Device) Healthy() bool {
	if d.K.Wedged() {
		return false
	}
	for _, p := range d.Procs {
		if p.Dead() {
			return false
		}
	}
	return true
}

// TakeHALCrashes drains native-crash records from all HAL processes. It
// returns nil, allocating nothing, when no process crashed.
func (d *Device) TakeHALCrashes() []hal.Crash {
	var out []hal.Crash
	for _, p := range d.Procs {
		out = append(out, p.TakeCrashes()...)
	}
	return out
}

// SyscallDescs returns the static DSL descriptions for the device's driver
// families — what the fuzzer knows before probing.
func (d *Device) SyscallDescs() []*dsl.CallDesc {
	var out []*dsl.CallDesc
	for _, fam := range d.Model.Drivers {
		switch fam {
		case FamTCPC:
			out = append(out, drivers.TCPCDescs()...)
		case FamHCI:
			out = append(out, drivers.HCIDescs()...)
		case FamL2CAP:
			out = append(out, drivers.L2CAPDescs()...)
		case FamV4L2:
			out = append(out, drivers.V4L2Descs()...)
		case FamAudio:
			out = append(out, drivers.AudioDescs()...)
		case FamGPU:
			out = append(out, drivers.GPUDescs()...)
		case FamWLAN:
			out = append(out, drivers.WLANDescs()...)
		case FamIIO:
			out = append(out, drivers.SensorDescs()...)
		case FamNFC:
			out = append(out, drivers.NFCDescs()...)
		case FamThermal:
			out = append(out, drivers.ThermalDescs()...)
		case FamTouch:
			out = append(out, drivers.TouchDescs()...)
		}
	}
	return out
}

// ParamSurface returns the live runtime-parameter state of every driver
// family, in model driver-list order.
func (d *Device) ParamSurface() []*drivers.Knobs { return d.knobSets }

// ParamDescs returns the DSL descriptions of every writable runtime
// parameter on the device, statically weighted; the probing pass replaces
// the weights with normalized vendor-init occurrence counts.
func (d *Device) ParamDescs() []*dsl.CallDesc {
	var out []*dsl.CallDesc
	for _, kn := range d.knobSets {
		out = append(out, kn.Descs()...)
	}
	return out
}

// pcIndexCache memoizes PCIndex results per (driver list, maxSite): the
// index depends only on the model's driver families, and rebuilding the
// full PC→module map (thousands of kcov.PC hashes) per call was a
// measurable per-campaign cost.
var pcIndexCache sync.Map // string -> map[uint32]string

// PCIndex maps every plausible cover-point PC of the device's driver
// modules back to its module name, for per-driver coverage accounting
// (paper §V-C: per-driver coverage increased 17% on average). Site ids are
// enumerated up to maxSite per module. The returned map is shared and must
// be treated as read-only.
func (d *Device) PCIndex(maxSite uint32) map[uint32]string {
	key := fmt.Sprintf("%s:%d", strings.Join(d.Model.Drivers, ","), maxSite)
	if cached, ok := pcIndexCache.Load(key); ok {
		return cached.(map[uint32]string)
	}
	idx := make(map[uint32]string, int(maxSite)*len(d.Model.Drivers))
	for _, fam := range d.Model.Drivers {
		for site := uint32(0); site < maxSite; site++ {
			idx[kcov.PC(fam, site)] = fam
		}
	}
	idx2, _ := pcIndexCache.LoadOrStore(key, idx)
	return idx2.(map[uint32]string)
}
