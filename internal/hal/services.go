package hal

import (
	"sync"

	"droidfuzz/internal/binder"
	"droidfuzz/internal/bugs"
	"droidfuzz/internal/drivers"
)

// Binder descriptors of the remaining vendor services.
const (
	BluetoothDescriptor = "android.hardware.bluetooth"
	NFCDescriptor       = "android.hardware.nfc"
	SensorsDescriptor   = "android.hardware.sensors"
	USBDescriptor       = "android.hardware.usb"
	ThermalDescriptor   = "android.hardware.thermal"
)

// Bluetooth is the BT HAL over the HCI driver. Its realistic sequences are
// the HAL-mediated routes to the two injected Bluetooth kernel bugs: №7
// (stale codec table after disable-with-inquiry-scan) and №11 (accept-queue
// use-after-free).
type Bluetooth struct {
	Base
	sys  *Sys
	bugs bugs.Set

	mu    sync.Mutex
	hciFD int
}

var bluetoothTable = newTable(BluetoothDescriptor, "Bluetooth", []op[Bluetooth]{
	{sig("enable", ""), (*Bluetooth).enable},
	{sig("disable", ""), (*Bluetooth).disable},
	{sig("startDiscovery", "",
		argFlags("mode", drivers.HCIScanPage, drivers.HCIScanInquiry,
			drivers.HCIScanPage|drivers.HCIScanInquiry)), (*Bluetooth).startDiscovery},
	{sig("getSupportedCodecs", ""), (*Bluetooth).getSupportedCodecs},
	{sig("connect", "hal_btconn",
		argInt("peer", 1, 0xffff)), (*Bluetooth).connect},
	{sig("acceptConnection", ""), (*Bluetooth).acceptConnection},
	{sig("disconnect", "",
		argRes("conn", "hal_btconn")), (*Bluetooth).disconnect},
	{sig("sendHciCommand", "",
		argInt("opcode", 0, 0xffff), argBuf("params", 32)), (*Bluetooth).sendHciCommand},
})

// NewBluetooth constructs the BT HAL over the given syscall facade.
func NewBluetooth(sys *Sys, b bugs.Set) *Bluetooth {
	t := &Bluetooth{sys: sys, bugs: b, hciFD: -1}
	t.Base = Base{bluetoothTable, t}
	return t
}

func (t *Bluetooth) fd() (int, binder.Status) {
	if t.hciFD >= 0 {
		return t.hciFD, binder.StatusOK
	}
	fd, err := t.sys.Open(drivers.PathHCI, 0)
	if err != nil {
		return -1, binder.StatusFailed
	}
	t.hciFD = fd
	return fd, binder.StatusOK
}

func (t *Bluetooth) ioctl(req uint64, arg []byte, reply *binder.Parcel, retVal bool) binder.Status {
	fd, st := t.fd()
	if st != binder.StatusOK {
		return st
	}
	v, _, err := t.sys.Ioctl(fd, req, arg)
	if err != nil {
		return binder.StatusFailed
	}
	if retVal {
		reply.WriteUint64(v)
	}
	return binder.StatusOK
}

func (t *Bluetooth) enable(in []Val, reply *binder.Parcel) binder.Status {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.ioctl(drivers.HCIUp, nil, reply, false)
}

func (t *Bluetooth) disable(in []Val, reply *binder.Parcel) binder.Status {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.ioctl(drivers.HCIDown, nil, reply, false)
}

func (t *Bluetooth) startDiscovery(in []Val, reply *binder.Parcel) binder.Status {
	t.mu.Lock()
	defer t.mu.Unlock()
	if st := t.ioctl(drivers.HCISetScan, drivers.PutU64(nil, in[0].U), reply, false); st != binder.StatusOK {
		return st
	}
	fd, st := t.fd()
	if st != binder.StatusOK {
		return st
	}
	// Issue the actual HCI_OP_INQUIRY command packet (LAP GIAC, 10.24 s,
	// unlimited responses) — the part of discovery only the stack knows.
	op := drivers.HCIOpInquiry
	pkt := []byte{byte(op), byte(op >> 8), 0x33, 0x8b, 0x9e, 0x08, 0x00}
	if _, err := t.sys.Write(fd, pkt); err != nil {
		return binder.StatusFailed
	}
	return t.ioctl(drivers.HCIInquiry, nil, reply, false)
}

func (t *Bluetooth) getSupportedCodecs(in []Val, reply *binder.Parcel) binder.Status {
	t.mu.Lock()
	defer t.mu.Unlock()
	fd, st := t.fd()
	if st != binder.StatusOK {
		return st
	}
	_, data, err := t.sys.Ioctl(fd, drivers.HCIReadCodecs, nil)
	if err != nil {
		return binder.StatusFailed
	}
	reply.WriteBytes(data)
	return binder.StatusOK
}

func (t *Bluetooth) connect(in []Val, reply *binder.Parcel) binder.Status {
	t.mu.Lock()
	defer t.mu.Unlock()
	// The stack always negotiates secure simple pairing on outgoing
	// connections — the vendor flag whose teardown path carries bug №11.
	arg := drivers.PutU64(nil, in[0].U)
	arg = drivers.PutU64(arg, drivers.HCIConnSSP)
	return t.ioctl(drivers.HCICreateConn, arg, reply, true)
}

func (t *Bluetooth) acceptConnection(in []Val, reply *binder.Parcel) binder.Status {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.ioctl(drivers.HCIAcceptConn, nil, reply, true)
}

func (t *Bluetooth) disconnect(in []Val, reply *binder.Parcel) binder.Status {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.ioctl(drivers.HCIDisconn, drivers.PutU64(nil, in[0].U), reply, false)
}

func (t *Bluetooth) sendHciCommand(in []Val, reply *binder.Parcel) binder.Status {
	t.mu.Lock()
	defer t.mu.Unlock()
	fd, st := t.fd()
	if st != binder.StatusOK {
		return st
	}
	pkt := []byte{byte(in[0].U), byte(in[0].U >> 8)}
	pkt = append(pkt, in[1].B...)
	if _, err := t.sys.Write(fd, pkt); err != nil {
		return binder.StatusFailed
	}
	return binder.StatusOK
}

// NFC is the NFC HAL over the NFC controller driver.
type NFC struct {
	Base
	sys  *Sys
	bugs bugs.Set

	mu    sync.Mutex
	nfcFD int
}

var nfcTable = newTable(NFCDescriptor, "Nfc", []op[NFC]{
	{sig("enable", ""), (*NFC).enable},
	{sig("disable", ""), (*NFC).disable},
	{sig("transceive", "",
		argBuf("frame", 255)), (*NFC).transceive},
	{sig("firmwareUpdate", "",
		argBuf("image", 120)), (*NFC).firmwareUpdate},
})

// NewNFC constructs the NFC HAL over the given syscall facade.
func NewNFC(sys *Sys, b bugs.Set) *NFC {
	n := &NFC{sys: sys, bugs: b, nfcFD: -1}
	n.Base = Base{nfcTable, n}
	return n
}

func (n *NFC) fd() (int, binder.Status) {
	if n.nfcFD >= 0 {
		return n.nfcFD, binder.StatusOK
	}
	fd, err := n.sys.Open(drivers.PathNFC, 0)
	if err != nil {
		return -1, binder.StatusFailed
	}
	n.nfcFD = fd
	return fd, binder.StatusOK
}

func (n *NFC) enable(in []Val, reply *binder.Parcel) binder.Status {
	n.mu.Lock()
	defer n.mu.Unlock()
	fd, st := n.fd()
	if st != binder.StatusOK {
		return st
	}
	if _, _, err := n.sys.Ioctl(fd, drivers.NFCPower, drivers.PutU64(nil, 1)); err != nil {
		return binder.StatusFailed
	}
	return binder.StatusOK
}

func (n *NFC) disable(in []Val, reply *binder.Parcel) binder.Status {
	n.mu.Lock()
	defer n.mu.Unlock()
	fd, st := n.fd()
	if st != binder.StatusOK {
		return st
	}
	if _, _, err := n.sys.Ioctl(fd, drivers.NFCPower, drivers.PutU64(nil, 0)); err != nil {
		return binder.StatusFailed
	}
	return binder.StatusOK
}

func (n *NFC) transceive(in []Val, reply *binder.Parcel) binder.Status {
	n.mu.Lock()
	defer n.mu.Unlock()
	fd, st := n.fd()
	if st != binder.StatusOK {
		return st
	}
	frame := in[0].B
	if len(frame) == 0 {
		return binder.StatusBadValue
	}
	v, _, err := n.sys.Ioctl(fd, drivers.NFCRawXfer, frame)
	if err != nil {
		return binder.StatusFailed
	}
	reply.WriteUint64(v)
	return binder.StatusOK
}

func (n *NFC) firmwareUpdate(in []Val, reply *binder.Parcel) binder.Status {
	n.mu.Lock()
	defer n.mu.Unlock()
	fd, st := n.fd()
	if st != binder.StatusOK {
		return st
	}
	_, _, _ = n.sys.Ioctl(fd, drivers.NFCPower, drivers.PutU64(nil, 0))
	// The HAL prepends the vendor firmware header the driver validates.
	img := append([]byte{0x4e, 0x46, 0x43, 0x01}, in[0].B...)
	if _, _, err := n.sys.Ioctl(fd, drivers.NFCFwDnld, img); err != nil {
		return binder.StatusBadValue
	}
	return binder.StatusOK
}

// Sensors is the sensors HAL over the IIO hub.
type Sensors struct {
	Base
	sys  *Sys
	bugs bugs.Set

	mu    sync.Mutex
	iioFD int
}

var sensorsTable = newTable(SensorsDescriptor, "Sensors", []op[Sensors]{
	{sig("activate", "",
		argInt("sensor", 0, 7), argFlags("enabled", 0, 1)), (*Sensors).activate},
	{sig("batch", "",
		argInt("sensor", 0, 7), argInt("rateHz", 1, 1000)), (*Sensors).batch},
	{sig("poll", ""), (*Sensors).poll},
})

// NewSensors constructs the sensors HAL over the given syscall facade.
func NewSensors(sys *Sys, b bugs.Set) *Sensors {
	s := &Sensors{sys: sys, bugs: b, iioFD: -1}
	s.Base = Base{sensorsTable, s}
	return s
}

func (s *Sensors) fd() (int, binder.Status) {
	if s.iioFD >= 0 {
		return s.iioFD, binder.StatusOK
	}
	fd, err := s.sys.Open(drivers.PathIIO, 0)
	if err != nil {
		return -1, binder.StatusFailed
	}
	s.iioFD = fd
	return fd, binder.StatusOK
}

func (s *Sensors) activate(in []Val, reply *binder.Parcel) binder.Status {
	s.mu.Lock()
	defer s.mu.Unlock()
	fd, st := s.fd()
	if st != binder.StatusOK {
		return st
	}
	req := drivers.IIOEnable
	if in[1].U == 0 {
		req = drivers.IIODisable
	}
	if _, _, err := s.sys.Ioctl(fd, req, drivers.PutU64(nil, in[0].U)); err != nil {
		return binder.StatusBadValue
	}
	return binder.StatusOK
}

func (s *Sensors) batch(in []Val, reply *binder.Parcel) binder.Status {
	s.mu.Lock()
	defer s.mu.Unlock()
	fd, st := s.fd()
	if st != binder.StatusOK {
		return st
	}
	if _, _, err := s.sys.Ioctl(fd, drivers.IIOSetFreq, drivers.PutU64(nil, in[1].U)); err != nil {
		return binder.StatusBadValue
	}
	return binder.StatusOK
}

func (s *Sensors) poll(in []Val, reply *binder.Parcel) binder.Status {
	s.mu.Lock()
	defer s.mu.Unlock()
	fd, st := s.fd()
	if st != binder.StatusOK {
		return st
	}
	if _, _, err := s.sys.Ioctl(fd, drivers.IIOTrigger, nil); err != nil {
		return binder.StatusFailed
	}
	data, err := s.sys.Read(fd, 64)
	if err != nil {
		return binder.StatusFailed
	}
	reply.WriteBytes(data)
	return binder.StatusOK
}

// USB is the USB/power-delivery HAL over the Type-C port controller. Its
// realistic role sequences are the HAL-mediated route to the TCPC bugs
// №1 (re-probe during DRP toggle) and №4 (VBUS with masked OC alert).
type USB struct {
	Base
	sys  *Sys
	bugs bugs.Set

	mu     sync.Mutex
	tcpcFD int
	role   uint64
}

var usbTable = newTable(USBDescriptor, "Usb", []op[USB]{
	{sig("setPortRole", "",
		argFlags("role", drivers.TCPCModeOff, drivers.TCPCModeUFP,
			drivers.TCPCModeDFP, drivers.TCPCModeDRP)), (*USB).setPortRole},
	{sig("enableContract", "",
		argFlags("millivolts", 5000, 9000, 12000, 15000, 20000)), (*USB).enableContract},
	{sig("startToggling", ""), (*USB).startToggling},
	{sig("reprobeChip", ""), (*USB).reprobeChip},
	{sig("queryPortStatus", ""), (*USB).queryPortStatus},
	{sig("setAlertMask", "",
		argInt("mask", 0, 0xffff)), (*USB).setAlertMask},
})

// NewUSB constructs the USB HAL over the given syscall facade.
func NewUSB(sys *Sys, b bugs.Set) *USB {
	u := &USB{sys: sys, bugs: b, tcpcFD: -1}
	u.Base = Base{usbTable, u}
	return u
}

func (u *USB) fd() (int, binder.Status) {
	if u.tcpcFD >= 0 {
		return u.tcpcFD, binder.StatusOK
	}
	fd, err := u.sys.Open(drivers.PathTCPC, 0)
	if err != nil {
		return -1, binder.StatusFailed
	}
	u.tcpcFD = fd
	return fd, binder.StatusOK
}

func (u *USB) setPortRole(in []Val, reply *binder.Parcel) binder.Status {
	u.mu.Lock()
	defer u.mu.Unlock()
	fd, st := u.fd()
	if st != binder.StatusOK {
		return st
	}
	if _, _, err := u.sys.Ioctl(fd, drivers.TCPCSetMode, drivers.PutU64(nil, in[0].U)); err != nil {
		return binder.StatusBadValue
	}
	u.role = in[0].U
	return binder.StatusOK
}

func (u *USB) enableContract(in []Val, reply *binder.Parcel) binder.Status {
	u.mu.Lock()
	defer u.mu.Unlock()
	fd, st := u.fd()
	if st != binder.StatusOK {
		return st
	}
	if u.role == drivers.TCPCModeOff {
		// Negotiating a contract implies an active role.
		if _, _, err := u.sys.Ioctl(fd, drivers.TCPCSetMode, drivers.PutU64(nil, drivers.TCPCModeDRP)); err != nil {
			return binder.StatusFailed
		}
		u.role = drivers.TCPCModeDRP
	}
	if _, _, err := u.sys.Ioctl(fd, drivers.TCPCSetVoltage, drivers.PutU64(nil, in[0].U)); err != nil {
		return binder.StatusBadValue
	}
	if _, _, err := u.sys.Ioctl(fd, drivers.TCPCAttach, nil); err != nil {
		return binder.StatusFailed
	}
	if _, _, err := u.sys.Ioctl(fd, drivers.TCPCVbusOn, nil); err != nil {
		return binder.StatusFailed
	}
	return binder.StatusOK
}

func (u *USB) startToggling(in []Val, reply *binder.Parcel) binder.Status {
	u.mu.Lock()
	defer u.mu.Unlock()
	fd, st := u.fd()
	if st != binder.StatusOK {
		return st
	}
	if u.role != drivers.TCPCModeDRP {
		if _, _, err := u.sys.Ioctl(fd, drivers.TCPCSetMode, drivers.PutU64(nil, drivers.TCPCModeDRP)); err != nil {
			return binder.StatusFailed
		}
		u.role = drivers.TCPCModeDRP
	}
	if _, _, err := u.sys.Ioctl(fd, drivers.TCPCEnableToggle, nil); err != nil {
		return binder.StatusFailed
	}
	return binder.StatusOK
}

func (u *USB) reprobeChip(in []Val, reply *binder.Parcel) binder.Status {
	u.mu.Lock()
	defer u.mu.Unlock()
	fd, st := u.fd()
	if st != binder.StatusOK {
		return st
	}
	// Vendor init handshake: arm the rt1711h soft-reset register before
	// re-probing — proprietary knowledge only the HAL blob carries.
	arg := drivers.PutU64(nil, drivers.RT1711Addr)
	arg = drivers.PutU64(arg, drivers.RT1711InitReg)
	arg = drivers.PutU64(arg, uint64(drivers.RT1711InitVal))
	if _, _, err := u.sys.Ioctl(fd, drivers.TCPCI2CXfer, arg); err != nil {
		return binder.StatusFailed
	}
	if _, _, err := u.sys.Ioctl(fd, drivers.TCPCProbeChip, drivers.PutU64(nil, drivers.RT1711Addr)); err != nil {
		return binder.StatusFailed
	}
	return binder.StatusOK
}

func (u *USB) queryPortStatus(in []Val, reply *binder.Parcel) binder.Status {
	u.mu.Lock()
	defer u.mu.Unlock()
	fd, st := u.fd()
	if st != binder.StatusOK {
		return st
	}
	_, out, err := u.sys.Ioctl(fd, drivers.TCPCGetStatus, nil)
	if err != nil {
		return binder.StatusFailed
	}
	reply.WriteUint64(drivers.ArgU64(out, 0))
	reply.WriteUint64(drivers.ArgU64(out, 1))
	reply.WriteUint64(drivers.ArgU64(out, 2))
	return binder.StatusOK
}

func (u *USB) setAlertMask(in []Val, reply *binder.Parcel) binder.Status {
	u.mu.Lock()
	defer u.mu.Unlock()
	fd, st := u.fd()
	if st != binder.StatusOK {
		return st
	}
	if _, _, err := u.sys.Ioctl(fd, drivers.TCPCSetAlert, drivers.PutU64(nil, in[0].U)); err != nil {
		return binder.StatusBadValue
	}
	return binder.StatusOK
}

// Thermal is the thermal HAL over the thermal-zone driver.
type Thermal struct {
	Base
	sys  *Sys
	bugs bugs.Set

	mu      sync.Mutex
	thermFD int
}

var thermalTable = newTable(ThermalDescriptor, "Thermal", []op[Thermal]{
	{sig("getTemperature", "",
		argInt("zone", 0, 3)), (*Thermal).getTemperature},
	{sig("setThrottling", "",
		argInt("zone", 0, 3), argInt("tripMilliC", 0, 120000)), (*Thermal).setThrottling},
	{sig("setPolicy", "",
		argFlags("policy", 0, 1, 2)), (*Thermal).setPolicy},
})

// NewThermal constructs the thermal HAL over the given syscall facade.
func NewThermal(sys *Sys, b bugs.Set) *Thermal {
	t := &Thermal{sys: sys, bugs: b, thermFD: -1}
	t.Base = Base{thermalTable, t}
	return t
}

func (t *Thermal) fd() (int, binder.Status) {
	if t.thermFD >= 0 {
		return t.thermFD, binder.StatusOK
	}
	fd, err := t.sys.Open(drivers.PathThermal, 0)
	if err != nil {
		return -1, binder.StatusFailed
	}
	t.thermFD = fd
	return fd, binder.StatusOK
}

func (t *Thermal) getTemperature(in []Val, reply *binder.Parcel) binder.Status {
	t.mu.Lock()
	defer t.mu.Unlock()
	fd, st := t.fd()
	if st != binder.StatusOK {
		return st
	}
	v, _, err := t.sys.Ioctl(fd, drivers.ThermalGetTemp, drivers.PutU64(nil, in[0].U))
	if err != nil {
		return binder.StatusBadValue
	}
	reply.WriteUint64(v)
	return binder.StatusOK
}

func (t *Thermal) setThrottling(in []Val, reply *binder.Parcel) binder.Status {
	t.mu.Lock()
	defer t.mu.Unlock()
	fd, st := t.fd()
	if st != binder.StatusOK {
		return st
	}
	arg := drivers.PutU64(nil, in[0].U)
	arg = drivers.PutU64(arg, in[1].U)
	if _, _, err := t.sys.Ioctl(fd, drivers.ThermalSetTrip, arg); err != nil {
		return binder.StatusBadValue
	}
	return binder.StatusOK
}

func (t *Thermal) setPolicy(in []Val, reply *binder.Parcel) binder.Status {
	t.mu.Lock()
	defer t.mu.Unlock()
	fd, st := t.fd()
	if st != binder.StatusOK {
		return st
	}
	if _, _, err := t.sys.Ioctl(fd, drivers.ThermalSetPolicy, drivers.PutU64(nil, in[0].U)); err != nil {
		return binder.StatusBadValue
	}
	return binder.StatusOK
}
