package drivers

import (
	"fmt"
	"slices"
	"sync"

	"droidfuzz/internal/bugs"
	"droidfuzz/internal/snap"
	"droidfuzz/internal/vkernel"
)

// HCI ioctl request codes (Bluetooth host controller interface).
const (
	HCIUp         uint64 = 0xa201
	HCIDown       uint64 = 0xa202
	HCIResetCmd   uint64 = 0xa203
	HCIReadCodecs uint64 = 0xa204
	HCISetScan    uint64 = 0xa205
	HCICreateConn uint64 = 0xa206
	HCIAcceptConn uint64 = 0xa207
	HCIDisconn    uint64 = 0xa208
	HCISetName    uint64 = 0xa209
	HCIInquiry    uint64 = 0xa20a
)

// Scan mode bits.
const (
	HCIScanPage    uint64 = 1
	HCIScanInquiry uint64 = 2
)

// HCIOpInquiry is the HCI command opcode (OGF 0x01, OCF 0x001) that starts
// device discovery; the BT HAL sends it as a raw command packet.
const HCIOpInquiry uint64 = 0x0401

// HCIConnSSP is the vendor connection flag for secure simple pairing; its
// teardown path carries bug №11.
const HCIConnSSP uint64 = 0x20

type hciConnState int

const (
	hciConnPending hciConnState = iota
	hciConnAccepted
	hciConnClosed
)

// hciConnection is one ACL connection. Its fields are exported because
// hciState carries connections by value in the portable checkpoint.
type hciConnection struct {
	Handle uint64
	Peer   uint64
	SSP    bool // created with secure-simple-pairing (vendor flag 0x20)
	State  hciConnState
	Obj    uint64 // KASAN heap object backing the connection
}

// HCIDriver is the Bluetooth controller driver. The supported-codecs table
// lives on the KASAN heap and is freed when the adapter goes down,
// reproducing bug №7; the accept queue keeps freed connection objects
// linked, reproducing bug №11.
type HCIDriver struct {
	bugs bugs.Set //droidvet:checkpoint ephemeral injected fault set, fixed at construction
	snap.Dirty

	mu         sync.Mutex
	up         bool
	scanMode   uint64
	inquiring  bool   // an inquiry ran under the current power cycle
	codecTable uint64 // heap object; 0 when never allocated
	codecStale bool   // table pointer left dangling after down (bug №7 gate)
	conns      map[uint64]*hciConnection
	acceptQ    []uint64 // conn handles pending/retained on the accept queue
	nextHandle uint64
	name       string

	knobs *Knobs
}

// NewHCI returns the driver with the given enabled bug set.
func NewHCI(b bugs.Set) *HCIDriver {
	return &HCIDriver{
		bugs: b, conns: make(map[uint64]*hciConnection), nextHandle: 1,
		knobs: NewKnobs("hci", hciKnobSpecs),
	}
}

// Name implements vkernel.Driver.
func (d *HCIDriver) Name() string { return "hci" }

// Knobs returns the runtime-parameter state.
func (d *HCIDriver) Knobs() *Knobs { return d.knobs }

// Open implements vkernel.Driver.
func (d *HCIDriver) Open(ctx *vkernel.Ctx) (vkernel.Conn, error) {
	ctx.Cover("hci", 1)
	return &hciConn{d: d}, nil
}

type hciConn struct {
	vkernel.BaseConn
	d *HCIDriver
}

func (c *hciConn) Ioctl(ctx *vkernel.Ctx, req uint64, arg []byte) (uint64, []byte, error) {
	d := c.d
	d.mu.Lock()
	defer d.mu.Unlock()
	switch req {
	case HCIUp:
		ctx.Cover("hci", 10)
		if d.up {
			ctx.Cover("hci", 11)
			return 0, nil, vkernel.EBUSY
		}
		d.up = true
		d.inquiring = false
		ctx.Logf("hci0", "adapter up")
		// Allocate the supported-codecs table (16 codec entries x 8 bytes).
		d.codecTable = ctx.Heap().Alloc(128, "hci_alloc_codec_table")
		d.codecStale = false
		seed := []byte{0x01, 0x02, 0x04, 0x08}
		if !ctx.CheckStore(d.codecTable, 0, seed, "hci_init_codecs") {
			return 0, nil, vkernel.EIO
		}
		ctx.Cover("hci", 12)
		return 0, nil, nil

	case HCIDown:
		ctx.Cover("hci", 20)
		if !d.up {
			ctx.Cover("hci", 21)
			return 0, nil, vkernel.ENODEV
		}
		d.up = false
		ctx.Logf("hci0", "adapter down (scan=%#x)", d.scanMode)
		if d.codecTable != 0 {
			if !ctx.CheckFree(d.codecTable, "hci_free_codec_table") {
				return 0, nil, vkernel.EIO
			}
			// Vendor bug: powering down mid-discovery — inquiry scan
			// still enabled and an inquiry actually issued — leaves the
			// codec-table pointer dangling instead of cleared (bug №7).
			if d.bugs.Has(bugs.HCICodecs) && d.scanMode&HCIScanInquiry != 0 && d.inquiring {
				ctx.Cover("hci", 22)
				d.codecStale = true
			} else {
				d.codecTable = 0
			}
		}
		ctx.Cover("hci", 23)
		return 0, nil, nil

	case HCIResetCmd:
		ctx.Cover("hci", 30)
		d.scanMode = 0
		d.name = ""
		// Tear down in ascending handle order: Heap.Free mutates shared
		// allocator state, so map-order teardown would make reset replay
		// nondeterministic (droidvet:nondet caught this).
		handles := make([]uint64, 0, len(d.conns))
		for h := range d.conns {
			handles = append(handles, h)
		}
		slices.Sort(handles)
		for _, h := range handles {
			conn := d.conns[h]
			if conn.State != hciConnClosed {
				ctx.Heap().Free(conn.Obj, "hci_reset_teardown")
			}
			delete(d.conns, h)
		}
		d.acceptQ = nil
		ctx.Cover("hci", 31)
		return 0, nil, nil

	case HCIReadCodecs:
		ctx.Cover("hci", 40)
		if d.codecTable == 0 {
			ctx.Cover("hci", 41)
			return 0, nil, vkernel.ENODEV
		}
		if d.codecStale {
			ctx.Cover("hci", 42)
		}
		// Bug №7 fires here: the load hits the freed (stale) table.
		data, ok := ctx.CheckLoad(d.codecTable, 0, 16, "hci_read_supported_codecs")
		if !ok {
			return 0, nil, vkernel.EIO
		}
		ctx.Cover("hci", 43)
		return 0, data, nil

	case HCISetScan:
		ctx.Cover("hci", 50)
		mode := ArgU64(arg, 0)
		if mode > (HCIScanPage | HCIScanInquiry) {
			ctx.Cover("hci", 51)
			return 0, nil, vkernel.EINVAL
		}
		d.scanMode = mode
		ctx.Cover("hci", 52+uint32(mode))
		return 0, nil, nil

	case HCICreateConn:
		ctx.Cover("hci", 60)
		if !d.up {
			ctx.Cover("hci", 61)
			return 0, nil, vkernel.ENODEV
		}
		peer := ArgU64(arg, 0)
		connFlags := ArgU64(arg, 1)
		if connFlags&^0x3f != 0 {
			// Reserved connection-flag bits must be zero.
			ctx.Cover("hci", 63)
			return 0, nil, vkernel.EINVAL
		}
		if connFlags&HCIConnSSP != 0 && d.knobs.Int(hciKnobSSPMode) == 0 {
			// Secure simple pairing disabled via module param: the
			// legacy-pairing fallback rejects SSP connection requests.
			ctx.Cover("hci", 620)
			return 0, nil, vkernel.EINVAL
		}
		if uint64(len(d.conns)) >= d.knobs.Int(hciKnobMaxConns) {
			// Connection-table cap; the default (64) is beyond anything a
			// single program can allocate, lowering it gates the path.
			ctx.Cover("hci", 630+bucket(d.knobs.Int(hciKnobMaxConns), 4))
			return 0, nil, vkernel.EBUSY
		}
		h := d.nextHandle
		d.nextHandle++
		conn := &hciConnection{
			Handle: h,
			Peer:   peer,
			SSP:    connFlags&HCIConnSSP != 0,
			State:  hciConnPending,
			Obj:    ctx.Heap().Alloc(64, "bt_conn_alloc"),
		}
		if conn.SSP {
			ctx.Cover("hci", 70) // secure-pairing setup path
		}
		d.conns[h] = conn
		d.acceptQ = append(d.acceptQ, h)
		ctx.Cover("hci", 300+logBucket(h, 12)) // connection-table growth paths
		ctx.Cover("hci", 64+bucket(peer, 4))
		return h, nil, nil

	case HCIAcceptConn:
		ctx.Cover("hci", 80)
		if len(d.acceptQ) == 0 {
			ctx.Cover("hci", 81)
			return 0, nil, vkernel.EAGAIN
		}
		h := d.acceptQ[0]
		conn := d.conns[h]
		if conn == nil {
			d.acceptQ = d.acceptQ[1:]
			ctx.Cover("hci", 82)
			return 0, nil, vkernel.EIO
		}
		// bt_accept_unlink reads the connection object while unlinking it
		// from the accept queue. If the connection was disconnected while
		// still queued (bug №11), the object is already freed: UAF read.
		data, ok := ctx.CheckLoad(conn.Obj, 0, 8, "bt_accept_unlink")
		if !ok {
			d.acceptQ = d.acceptQ[1:]
			return 0, nil, vkernel.EIO
		}
		_ = data
		d.acceptQ = d.acceptQ[1:]
		conn.State = hciConnAccepted
		ctx.Cover("hci", 83)
		return h, nil, nil

	case HCIDisconn:
		ctx.Cover("hci", 90)
		h := ArgU64(arg, 0)
		conn := d.conns[h]
		if conn == nil || conn.State == hciConnClosed {
			ctx.Cover("hci", 91)
			return 0, nil, vkernel.ENOENT
		}
		conn.State = hciConnClosed
		if !ctx.CheckFree(conn.Obj, "hci_conn_del") {
			return 0, nil, vkernel.EIO
		}
		if !d.bugs.Has(bugs.BTAcceptUnlink) || !conn.SSP {
			// Correct kernels unlink the connection from the accept
			// queue before freeing; the buggy vendor tree forgets to on
			// its secure-simple-pairing teardown path.
			for i, qh := range d.acceptQ {
				if qh == h {
					d.acceptQ = append(d.acceptQ[:i], d.acceptQ[i+1:]...)
					break
				}
			}
		} else {
			ctx.Cover("hci", 92)
		}
		ctx.Cover("hci", 93)
		return 0, nil, nil

	case HCISetName:
		ctx.Cover("hci", 100)
		name := ArgBytes(arg, 0)
		if len(name) > 248 {
			ctx.Cover("hci", 101)
			return 0, nil, vkernel.EINVAL
		}
		d.name = string(name)
		ctx.Cover("hci", 102+bucket(uint64(len(name)), 8))
		if d.up && d.scanMode != 0 {
			// A live name change regenerates the EIR response per length
			// class while discoverable.
			ctx.Cover("hci", 430+bucket(uint64(len(name)), 16))
		}
		return 0, nil, nil

	case HCIInquiry:
		ctx.Cover("hci", 110)
		if !d.up {
			ctx.Cover("hci", 111)
			return 0, nil, vkernel.ENODEV
		}
		if d.scanMode&HCIScanInquiry == 0 {
			ctx.Cover("hci", 112)
			return 0, nil, vkernel.EINVAL
		}
		ctx.Cover("hci", 113)
		// Discovered-device report: handle count + adapter state.
		out := PutU64(nil, uint64(len(d.conns)))
		out = PutU64(out, d.scanMode)
		return 0, out, nil

	default:
		if ret, out, err, ok := ChaffIoctl(ctx, "hci", req); ok {
			return ret, out, err
		}
		ctx.Cover("hci", 3)
		return 0, nil, vkernel.ENOTTY
	}
}

// Write accepts raw HCI command packets: opcode (2 bytes LE) + params.
func (c *hciConn) Write(ctx *vkernel.Ctx, p []byte) (int, error) {
	d := c.d
	d.mu.Lock()
	defer d.mu.Unlock()
	ctx.Cover("hci", 120)
	if !d.up {
		return 0, vkernel.ENODEV
	}
	if len(p) < 2 {
		ctx.Cover("hci", 121)
		return 0, vkernel.EINVAL
	}
	opcode := uint64(p[0]) | uint64(p[1])<<8
	if d.knobs.Int(hciKnobDutMode) == 1 {
		// Device-under-test mode: raw vendor test commands take their own
		// dispatch table, unreachable while the param is at its default.
		ctx.Cover("hci", 600+bucket(opcode, 8))
	}
	if opcode == HCIOpInquiry && d.scanMode&HCIScanInquiry != 0 {
		// A real inquiry is in flight only after the HCI_OP_INQUIRY
		// command packet goes down with inquiry scan enabled.
		d.inquiring = true
	}
	ctx.Cover("hci", 122+bucket(opcode, 32))
	live := 0
	// Pure count over the map; the total is the same in any iteration
	// order, so replay cannot diverge here.
	for _, conn := range d.conns { //droidvet:nondet order-independent count
		if conn.State == hciConnAccepted {
			live++
		}
	}
	if live > 0 {
		// Command dispatch against live ACL links takes per-opcode
		// scheduling paths.
		ctx.Cover("hci", 400+bucket(opcode, 32))
	}
	if len(p) > 2 {
		ctx.Cover("hci", 160+bucket(uint64(p[2]), 8))
	}
	return len(p), nil
}

// Read returns pending HCI events.
func (c *hciConn) Read(ctx *vkernel.Ctx, n int) ([]byte, error) {
	d := c.d
	d.mu.Lock()
	defer d.mu.Unlock()
	ctx.Cover("hci", 130)
	if !d.up {
		return nil, vkernel.ENODEV
	}
	if n > 32 {
		n = 32
	}
	out := make([]byte, n)
	for i := range out {
		out[i] = byte(d.scanMode)
	}
	ctx.Cover("hci", 131)
	return out, nil
}

func (c *hciConn) Close(ctx *vkernel.Ctx) error {
	ctx.Cover("hci", 2)
	return nil
}

// String describes adapter state for diagnostics.
func (d *HCIDriver) String() string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return fmt.Sprintf("hci(up=%v scan=%#x conns=%d queued=%d)",
		d.up, d.scanMode, len(d.conns), len(d.acceptQ))
}
