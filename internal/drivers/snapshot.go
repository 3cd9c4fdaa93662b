package drivers

import (
	"cmp"
	"encoding/gob"
	"slices"
)

// Per-driver checkpoint/restore for device snapshots. Each driver embeds
// snap.Dirty (the kernel bumps it centrally on open and on every fd op
// reaching the driver) and implements snap.Subsystem here: Checkpoint
// deep-copies the live state into an immutable value, Restore copies it
// back. The state types below are registered with droidvet's snapshot
// pass, so any mutation of a captured state outside these methods is
// flagged — the snapshot must stay reusable across many restores.
//
// The same values are the portable checkpoint: exported fields only, maps
// as slices sorted by key, empty collections as nil — so a gob round trip
// reproduces them exactly and the encoding is deterministic.

func init() {
	gob.Register(&tcpcState{})
	gob.Register(&hciState{})
	gob.Register(&v4l2State{})
	gob.Register(&audioState{})
	gob.Register(&gpuState{})
	gob.Register(&wlanState{})
	gob.Register(&sensorState{})
	gob.Register(&nfcState{})
	gob.Register(&thermalState{})
	gob.Register(&touchState{})
	gob.Register(&knobsState{})
}

// --- TCPC ---

type tcpcState struct {
	Mode      uint64
	VoltageMV uint64
	Toggling  bool
	Attached  bool
	AlertMask uint64
	VbusOn    bool
	Probed    bool
	I2CRegs   [256]byte
	Opens     int
}

// Checkpoint implements snap.Subsystem.
func (d *TCPCDriver) Checkpoint() any {
	d.mu.Lock()
	defer d.mu.Unlock()
	return &tcpcState{
		Mode: d.mode, VoltageMV: d.voltageMV, Toggling: d.toggling,
		Attached: d.attached, AlertMask: d.alertMask, VbusOn: d.vbusOn,
		Probed: d.probed, I2CRegs: d.i2cRegs, Opens: d.opens,
	}
}

// Restore implements snap.Subsystem.
func (d *TCPCDriver) Restore(s any) {
	st := s.(*tcpcState)
	d.mu.Lock()
	defer d.mu.Unlock()
	d.mode, d.voltageMV = st.Mode, st.VoltageMV
	d.toggling, d.attached = st.Toggling, st.Attached
	d.alertMask = st.AlertMask
	d.vbusOn, d.probed = st.VbusOn, st.Probed
	d.i2cRegs = st.I2CRegs
	d.opens = st.Opens
}

// --- HCI ---

type hciState struct {
	Up         bool
	ScanMode   uint64
	Inquiring  bool
	CodecTable uint64
	CodecStale bool
	Conns      []hciConnection // by value, sorted by handle
	AcceptQ    []uint64
	NextHandle uint64
	Name       string
}

// Checkpoint implements snap.Subsystem.
func (d *HCIDriver) Checkpoint() any {
	d.mu.Lock()
	defer d.mu.Unlock()
	st := &hciState{
		Up: d.up, ScanMode: d.scanMode, Inquiring: d.inquiring,
		CodecTable: d.codecTable, CodecStale: d.codecStale,
		NextHandle: d.nextHandle, Name: d.name,
	}
	if len(d.conns) > 0 {
		st.Conns = make([]hciConnection, 0, len(d.conns))
		for _, conn := range d.conns { //droidvet:nondet collect-then-sort
			st.Conns = append(st.Conns, *conn)
		}
		slices.SortFunc(st.Conns, func(a, b hciConnection) int { return cmp.Compare(a.Handle, b.Handle) })
	}
	if len(d.acceptQ) > 0 {
		st.AcceptQ = slices.Clone(d.acceptQ)
	}
	return st
}

// Restore implements snap.Subsystem.
func (d *HCIDriver) Restore(s any) {
	st := s.(*hciState)
	d.mu.Lock()
	defer d.mu.Unlock()
	d.up, d.scanMode, d.inquiring = st.Up, st.ScanMode, st.Inquiring
	d.codecTable, d.codecStale = st.CodecTable, st.CodecStale
	d.conns = make(map[uint64]*hciConnection, len(st.Conns))
	for _, conn := range st.Conns {
		cc := conn
		d.conns[cc.Handle] = &cc
	}
	d.acceptQ = slices.Clone(st.AcceptQ)
	d.nextHandle = st.NextHandle
	d.name = st.Name
}

// --- L2CAP ---

// L2CAP keeps all mutable state per-fd (in l2capChan); closing the fds —
// which the kernel restore does by dropping its file table — is the whole
// restore. The driver itself is stateless.

// Checkpoint implements snap.Subsystem.
func (d *L2CAPDriver) Checkpoint() any { return nil }

// Restore implements snap.Subsystem.
func (d *L2CAPDriver) Restore(any) {}

// --- V4L2 ---

type v4l2State struct {
	Width     uint64
	Height    uint64
	Pixfmt    uint64
	NBufs     uint64
	Queued    []uint64
	Streaming bool
	Frames    uint64
	Ctrls     []v4l2Ctrl // sorted by ID
}

// v4l2Ctrl is one control value in a v4l2State.
type v4l2Ctrl struct {
	ID  uint64
	Val uint64
}

// Checkpoint implements snap.Subsystem.
func (d *V4L2Driver) Checkpoint() any {
	d.mu.Lock()
	defer d.mu.Unlock()
	st := &v4l2State{
		Width: d.width, Height: d.height, Pixfmt: d.pixfmt, NBufs: d.nbufs,
		Streaming: d.streaming, Frames: d.frames,
	}
	if len(d.queued) > 0 {
		st.Queued = slices.Clone(d.queued)
	}
	if len(d.ctrls) > 0 {
		st.Ctrls = make([]v4l2Ctrl, 0, len(d.ctrls))
		for id, val := range d.ctrls { //droidvet:nondet collect-then-sort
			st.Ctrls = append(st.Ctrls, v4l2Ctrl{ID: id, Val: val})
		}
		slices.SortFunc(st.Ctrls, func(a, b v4l2Ctrl) int { return cmp.Compare(a.ID, b.ID) })
	}
	return st
}

// Restore implements snap.Subsystem.
func (d *V4L2Driver) Restore(s any) {
	st := s.(*v4l2State)
	d.mu.Lock()
	defer d.mu.Unlock()
	d.width, d.height, d.pixfmt, d.nbufs = st.Width, st.Height, st.Pixfmt, st.NBufs
	d.streaming, d.frames = st.Streaming, st.Frames
	d.queued = slices.Clone(st.Queued)
	d.ctrls = make(map[uint64]uint64, len(st.Ctrls))
	for _, c := range st.Ctrls {
		d.ctrls[c.ID] = c.Val
	}
}

// --- Audio ---

type audioState struct {
	State    pcmState
	Rate     uint64
	Channels uint64
	Period   uint64
	Buffered uint64
	Volume   uint64
	Pos      uint64
}

// Checkpoint implements snap.Subsystem.
func (d *AudioDriver) Checkpoint() any {
	d.mu.Lock()
	defer d.mu.Unlock()
	return &audioState{
		State: d.state, Rate: d.rate, Channels: d.channels,
		Period: d.period, Buffered: d.buffered, Volume: d.volume, Pos: d.pos,
	}
}

// Restore implements snap.Subsystem.
func (d *AudioDriver) Restore(s any) {
	st := s.(*audioState)
	d.mu.Lock()
	defer d.mu.Unlock()
	d.state, d.rate, d.channels = st.State, st.Rate, st.Channels
	d.period, d.buffered, d.volume, d.pos = st.Period, st.Buffered, st.Volume, st.Pos
}

// --- GPU ---

type gpuState struct {
	Buffers  []gpuBuffer // sorted by handle
	NextBuf  uint64
	Fence    uint64
	CtxPrio  uint64
	Submits  uint64
	MapCount uint64
}

// gpuBuffer is one buffer object in a gpuState. The driver's buffers and
// sizes maps share a key space, so one entry carries both values.
type gpuBuffer struct {
	Handle uint64
	Obj    uint64
	Size   uint64
}

// Checkpoint implements snap.Subsystem.
func (d *GPUDriver) Checkpoint() any {
	d.mu.Lock()
	defer d.mu.Unlock()
	st := &gpuState{
		NextBuf: d.nextBuf, Fence: d.fence, CtxPrio: d.ctxPrio,
		Submits: d.submits, MapCount: d.mapCount,
	}
	if len(d.buffers) > 0 {
		st.Buffers = make([]gpuBuffer, 0, len(d.buffers))
		for h, obj := range d.buffers { //droidvet:nondet collect-then-sort
			st.Buffers = append(st.Buffers, gpuBuffer{Handle: h, Obj: obj, Size: d.sizes[h]})
		}
		slices.SortFunc(st.Buffers, func(a, b gpuBuffer) int { return cmp.Compare(a.Handle, b.Handle) })
	}
	return st
}

// Restore implements snap.Subsystem.
func (d *GPUDriver) Restore(s any) {
	st := s.(*gpuState)
	d.mu.Lock()
	defer d.mu.Unlock()
	d.buffers = make(map[uint64]uint64, len(st.Buffers))
	d.sizes = make(map[uint64]uint64, len(st.Buffers))
	for _, b := range st.Buffers {
		d.buffers[b.Handle] = b.Obj
		d.sizes[b.Handle] = b.Size
	}
	d.nextBuf, d.fence, d.ctxPrio = st.NextBuf, st.Fence, st.CtxPrio
	d.submits, d.mapCount = st.Submits, st.MapCount
}

// --- WLAN ---

type wlanState struct {
	Scanned  bool
	Assoc    bool
	WasAssoc bool
	BSSID    uint64
	RateMask uint64
	Channel  uint64
	Power    uint64
	TxFrames uint64
}

// Checkpoint implements snap.Subsystem.
func (d *WLANDriver) Checkpoint() any {
	d.mu.Lock()
	defer d.mu.Unlock()
	return &wlanState{
		Scanned: d.scanned, Assoc: d.assoc, WasAssoc: d.wasAssoc,
		BSSID: d.bssid, RateMask: d.rateMask, Channel: d.channel,
		Power: d.power, TxFrames: d.txFrames,
	}
}

// Restore implements snap.Subsystem.
func (d *WLANDriver) Restore(s any) {
	st := s.(*wlanState)
	d.mu.Lock()
	defer d.mu.Unlock()
	d.scanned, d.assoc, d.wasAssoc = st.Scanned, st.Assoc, st.WasAssoc
	d.bssid, d.rateMask, d.channel = st.BSSID, st.RateMask, st.Channel
	d.power, d.txFrames = st.Power, st.TxFrames
}

// --- Sensor hub ---

type sensorState struct {
	Enabled  [8]bool
	Freq     uint64
	Triggers uint64
}

// Checkpoint implements snap.Subsystem.
func (d *SensorDriver) Checkpoint() any {
	d.mu.Lock()
	defer d.mu.Unlock()
	return &sensorState{Enabled: d.enabled, Freq: d.freq, Triggers: d.triggers}
}

// Restore implements snap.Subsystem.
func (d *SensorDriver) Restore(s any) {
	st := s.(*sensorState)
	d.mu.Lock()
	defer d.mu.Unlock()
	d.enabled, d.freq, d.triggers = st.Enabled, st.Freq, st.Triggers
}

// --- NFC ---

type nfcState struct {
	Powered bool
	FwLen   uint64
}

// Checkpoint implements snap.Subsystem.
func (d *NFCDriver) Checkpoint() any {
	d.mu.Lock()
	defer d.mu.Unlock()
	return &nfcState{Powered: d.powered, FwLen: d.fwLen}
}

// Restore implements snap.Subsystem.
func (d *NFCDriver) Restore(s any) {
	st := s.(*nfcState)
	d.mu.Lock()
	defer d.mu.Unlock()
	d.powered, d.fwLen = st.Powered, st.FwLen
}

// --- Thermal ---

type thermalState struct {
	Trips  [4]uint64
	Policy uint64
}

// Checkpoint implements snap.Subsystem.
func (d *ThermalDriver) Checkpoint() any {
	d.mu.Lock()
	defer d.mu.Unlock()
	return &thermalState{Trips: d.trips, Policy: d.policy}
}

// Restore implements snap.Subsystem.
func (d *ThermalDriver) Restore(s any) {
	st := s.(*thermalState)
	d.mu.Lock()
	defer d.mu.Unlock()
	d.trips, d.policy = st.Trips, st.Policy
}

// --- Touch ---

type touchState struct {
	Calibrated bool
	Mode       uint64
	GridW      uint64
	GridH      uint64
	FwVersion  uint64
	Events     uint64
	SelfTests  uint64
}

// Checkpoint implements snap.Subsystem.
func (d *TouchDriver) Checkpoint() any {
	d.mu.Lock()
	defer d.mu.Unlock()
	return &touchState{
		Calibrated: d.calibrated, Mode: d.mode, GridW: d.gridW, GridH: d.gridH,
		FwVersion: d.fwVersion, Events: d.events, SelfTests: d.selfTests,
	}
}

// Restore implements snap.Subsystem.
func (d *TouchDriver) Restore(s any) {
	st := s.(*touchState)
	d.mu.Lock()
	defer d.mu.Unlock()
	d.calibrated, d.mode = st.Calibrated, st.Mode
	d.gridW, d.gridH, d.fwVersion = st.GridW, st.GridH, st.FwVersion
	d.events, d.selfTests = st.Events, st.SelfTests
}
