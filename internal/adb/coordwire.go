package adb

import (
	"encoding/binary"
	"fmt"
)

// Coordinator wire protocol (fleet federation). A multi-host campaign runs
// one droidcoordd; every host speaks this request/reply vocabulary to it
// in the same binary frames and lock-step discipline as the broker
// protocol — ErrTransport on stream failures, *RemoteError on coordinator
// rejections. Each message kind has its explicit codec at the end of this
// file, and the golden frames in frame_test.go pin its bytes.
//
// The vocabulary mirrors the shard lifecycle: a host Registers once, then
// loops Lease → (Progress…) → Complete per shard, Heartbeats in the
// background, and finishes with a Sync that drains the remaining
// federation delta. Every Lease, Progress, and Sync reply carries the
// coordinator's downlink — the merged-novelty delta the host lacks — so
// federation needs no extra round trips.

// CoordRequest is one host→coordinator frame; exactly one payload field is
// set.
type CoordRequest struct {
	// Seq is the client's per-host request sequence number, strictly
	// increasing across calls (0 disables duplicate detection). A transport
	// failure after the coordinator processed a request but before the
	// reply landed is ambiguous to the client, so it retries with the SAME
	// Seq; the coordinator detects the duplicate and returns its cached
	// reply verbatim instead of re-running the handler. That is what makes
	// state-mutating RPCs — Lease hands out a shard, every downlink
	// advances federation cursors — safe to retry.
	Seq uint64

	Register  *CoordRegister
	Heartbeat *CoordHeartbeat
	Lease     *CoordLeaseRequest
	Progress  *CoordProgress
	Complete  *CoordComplete
	Sync      *CoordSync
}

// CoordReply is one coordinator→host frame: the field matching the request
// kind is set, or Err carries a coordinator-side rejection (the stream
// stays healthy — clients surface it as *RemoteError).
type CoordReply struct {
	Registered *CoordRegistered
	Beat       *CoordBeat
	Shard      *CoordShard
	Ack        *CoordAck
	Err        string
}

// CoordRegister announces a host joining the campaign.
type CoordRegister struct {
	// Name is an advisory operator label; the coordinator assigns the ID.
	Name string
	// Nonce is a random client-instance identity (0 disables dedup).
	// Registration happens before the host has an ID, so Seq-based
	// duplicate detection cannot cover it; a retried Register with the
	// same nonce returns the original identity instead of admitting a
	// ghost host that would strand its pre-partitioned shard queue.
	Nonce uint64
}

// CoordRegistered is the registration outcome.
type CoordRegistered struct {
	// HostID is the coordinator-assigned identity. Hosts prefix their
	// device IDs with it, which is what makes (device, seq) learn keys
	// globally unique across the fleet.
	HostID string
	// EpochIters is the federation cadence: iterations per device between
	// a host's uplink/downlink exchanges.
	EpochIters int
}

// CoordHeartbeat is the background liveness beacon.
type CoordHeartbeat struct {
	HostID string
	// Execs is the host's lifetime execution count, for health scoring.
	Execs uint64
}

// CoordBeat answers a heartbeat.
type CoordBeat struct {
	// Health is the coordinator's current score for the host in [0, 1].
	Health float64
}

// CoordLeaseRequest asks for the next shard.
type CoordLeaseRequest struct {
	HostID string
}

// CoordShard is one leased campaign shard plus its warm-start payload.
type CoordShard struct {
	// Done means the campaign is drained; no other field is set.
	Done bool
	// Wait means no shard is available right now but others still hold
	// leases (their shards may yet be requeued) — poll again shortly.
	Wait bool

	ID      int
	Model   string
	Devices int
	// Iters is the remaining per-device iteration budget: a requeued shard
	// resumes where its previous owner's last Progress report left it.
	Iters int
	// Seed is the shard's base RNG seed; device j runs Seed + j.
	Seed int64
	// Stolen marks a shard taken from another host's queue (or requeued
	// from an evicted host) rather than from the leasing host's own.
	Stolen bool
	// Checkpoint, when non-nil, is the portable device checkpoint from the
	// shard's previous owner's last Progress report; importing it into the
	// shard's fresh devices resumes warm instead of cold.
	Checkpoint []byte
	// Batch is the federation downlink: merged novelty this host lacks,
	// shipped with the lease so even a stolen shard starts from the
	// fleet's current corpus.
	Batch *FedBatch
}

// CoordProgress reports in-flight shard progress and carries the host's
// periodic federation uplink.
type CoordProgress struct {
	HostID  string
	ShardID int
	// ExecsDone is the per-device iteration count completed under the
	// current lease; the coordinator adds inherited progress itself and
	// uses the sum to requeue the remainder if this host dies.
	ExecsDone int
	// Checkpoint is the current portable device checkpoint (optional); the
	// latest one rides along with the shard if it is requeued.
	Checkpoint []byte
	// Batch is the uplink delta: corpus admissions, vertices, and learn
	// records new since the host's previous exchange.
	Batch *FedBatch
}

// CoordComplete reports a finished shard with its final uplink.
type CoordComplete struct {
	HostID  string
	ShardID int
	Batch   *FedBatch
}

// CoordSync is a pure federation exchange outside any shard: the optional
// uplink delta in, the downlink delta out. Hosts use it to drain the final
// merged state after the campaign is done.
type CoordSync struct {
	HostID string
	Batch  *FedBatch
}

// CoordAck acknowledges Progress, Complete, and Sync, carrying the
// downlink delta.
type CoordAck struct {
	Batch *FedBatch
}

// FedBatch is one federation delta: everything one side learned that the
// other has not seen. All three sections are deduplicated by the sender
// against what it knows the receiver holds, so steady-state batches carry
// only genuine novelty.
type FedBatch struct {
	// Progs are canonical corpus program texts, identified fleet-wide by
	// their 64-bit FNV-1a text hash (corpus.Hash).
	Progs []string
	// Verts registers relation-graph vertices (the union graph's node set;
	// receivers that cannot generate a vertex simply ignore learns naming
	// it).
	Verts []FedVertex
	// Learns is the delta/varint-coded learn-record block.
	Learns FedLearns
}

// FedVertex is one relation-graph vertex spec.
type FedVertex struct {
	Name   string
	Weight float64
}

// FedLearns is a block of (device, seq)-stamped relation learn records in
// columnar delta/varint coding: each record's vertex pair and device are
// table indexes, and the four index/seq columns ride the kcov zigzag-varint
// delta codec — the same machinery that compresses coverage traces, applied
// to the federation uplink. Encode/decode live in internal/coord.
type FedLearns struct {
	// Names is the vertex name table; Devices the device-ID table. Both
	// are local to this block and ordered by first appearance.
	Names   []string
	Devices []string
	// A, B, Dev, and Seq are delta-coded uint32 columns of Count entries
	// each: indexes into Names (A, B), indexes into Devices (Dev), and the
	// per-device learn sequence numbers (Seq).
	A, B, Dev, Seq []byte
	Count          int
}

// Coordinator link frame kinds (see frame.go for the framing). A request
// carries its Seq after the kind byte.
const (
	coordRegister  byte = 0x21 // seq, name, nonce
	coordHeartbeat byte = 0x22 // seq, host, execs
	coordLease     byte = 0x23 // seq, host
	coordProgress  byte = 0x24 // seq, host, shard, execs done, checkpoint, batch?
	coordComplete  byte = 0x25 // seq, host, shard, batch?
	coordSync      byte = 0x26 // seq, host, batch?

	coordErr        byte = 0x31 // message
	coordRegistered byte = 0x32 // host, epoch iters
	coordBeat       byte = 0x33 // health
	coordShard      byte = 0x34 // flags, id, model, devices, iters, seed, checkpoint, batch?
	coordAck        byte = 0x35 // batch?
)

// Shard flags.
const (
	shardDone = 1 << iota
	shardWait
	shardStolen
	shardFlags = shardDone | shardWait | shardStolen
)

// appendFrame encodes the request's one payload, the first set in field
// order.
func (r *CoordRequest) appendFrame(b []byte) ([]byte, error) {
	switch {
	case r.Register != nil:
		b = binary.AppendUvarint(append(b, coordRegister), r.Seq)
		b = appendString(b, r.Register.Name)
		b = binary.AppendUvarint(b, r.Register.Nonce)
	case r.Heartbeat != nil:
		b = binary.AppendUvarint(append(b, coordHeartbeat), r.Seq)
		b = appendString(b, r.Heartbeat.HostID)
		b = binary.AppendUvarint(b, r.Heartbeat.Execs)
	case r.Lease != nil:
		b = binary.AppendUvarint(append(b, coordLease), r.Seq)
		b = appendString(b, r.Lease.HostID)
	case r.Progress != nil:
		p := r.Progress
		b = binary.AppendUvarint(append(b, coordProgress), r.Seq)
		b = appendString(b, p.HostID)
		b = appendInt(b, p.ShardID)
		b = appendInt(b, p.ExecsDone)
		b = appendBytes(b, p.Checkpoint)
		b = appendFedBatch(b, p.Batch)
	case r.Complete != nil:
		b = binary.AppendUvarint(append(b, coordComplete), r.Seq)
		b = appendString(b, r.Complete.HostID)
		b = appendInt(b, r.Complete.ShardID)
		b = appendFedBatch(b, r.Complete.Batch)
	case r.Sync != nil:
		b = binary.AppendUvarint(append(b, coordSync), r.Seq)
		b = appendString(b, r.Sync.HostID)
		b = appendFedBatch(b, r.Sync.Batch)
	default:
		return b, fmt.Errorf("coord: request carries no payload")
	}
	return b, nil
}

func (r *CoordRequest) decodeFrame(d *decoder) {
	kind := d.u8()
	*r = CoordRequest{Seq: d.uvarint()}
	switch kind {
	case coordRegister:
		r.Register = &CoordRegister{Name: d.str(), Nonce: d.uvarint()}
	case coordHeartbeat:
		r.Heartbeat = &CoordHeartbeat{HostID: d.str(), Execs: d.uvarint()}
	case coordLease:
		r.Lease = &CoordLeaseRequest{HostID: d.str()}
	case coordProgress:
		r.Progress = &CoordProgress{HostID: d.str(), ShardID: d.varint(), ExecsDone: d.varint(),
			Checkpoint: d.blob(), Batch: decodeFedBatch(d)}
	case coordComplete:
		r.Complete = &CoordComplete{HostID: d.str(), ShardID: d.varint(), Batch: decodeFedBatch(d)}
	case coordSync:
		r.Sync = &CoordSync{HostID: d.str(), Batch: decodeFedBatch(d)}
	default:
		d.fail("unknown coordinator request kind %#x", kind)
	}
}

// appendFrame encodes Err when it is set, else the reply's one payload,
// the first set in field order.
func (r *CoordReply) appendFrame(b []byte) ([]byte, error) {
	switch {
	case r.Err != "":
		b = appendString(append(b, coordErr), r.Err)
	case r.Registered != nil:
		b = appendString(append(b, coordRegistered), r.Registered.HostID)
		b = appendInt(b, r.Registered.EpochIters)
	case r.Beat != nil:
		b = appendFloat(append(b, coordBeat), r.Beat.Health)
	case r.Shard != nil:
		s := r.Shard
		var flags byte
		if s.Done {
			flags |= shardDone
		}
		if s.Wait {
			flags |= shardWait
		}
		if s.Stolen {
			flags |= shardStolen
		}
		b = append(b, coordShard, flags)
		b = appendInt(b, s.ID)
		b = appendString(b, s.Model)
		b = appendInt(b, s.Devices)
		b = appendInt(b, s.Iters)
		b = binary.AppendVarint(b, s.Seed)
		b = appendBytes(b, s.Checkpoint)
		b = appendFedBatch(b, s.Batch)
	case r.Ack != nil:
		b = appendFedBatch(append(b, coordAck), r.Ack.Batch)
	default:
		return b, fmt.Errorf("coord: reply carries no payload")
	}
	return b, nil
}

func (r *CoordReply) decodeFrame(d *decoder) {
	*r = CoordReply{}
	switch kind := d.u8(); kind {
	case coordErr:
		if r.Err = d.str(); r.Err == "" {
			d.fail("empty coordinator error")
		}
	case coordRegistered:
		r.Registered = &CoordRegistered{HostID: d.str(), EpochIters: d.varint()}
	case coordBeat:
		r.Beat = &CoordBeat{Health: d.float()}
	case coordShard:
		flags := d.u8()
		if flags&^shardFlags != 0 {
			d.fail("shard flags %#x", flags)
		}
		r.Shard = &CoordShard{
			Done: flags&shardDone != 0, Wait: flags&shardWait != 0, Stolen: flags&shardStolen != 0,
			ID: d.varint(), Model: d.str(), Devices: d.varint(), Iters: d.varint(),
			Seed: int64(d.varint()), Checkpoint: d.blob(), Batch: decodeFedBatch(d),
		}
	case coordAck:
		r.Ack = &CoordAck{Batch: decodeFedBatch(d)}
	default:
		d.fail("unknown coordinator reply kind %#x", kind)
	}
}

// appendFedBatch encodes an optional federation delta: a presence byte,
// then the programs, the vertices, and the learn block's tables and
// delta-coded columns as they are.
func appendFedBatch(b []byte, f *FedBatch) []byte {
	if f == nil {
		return append(b, 0)
	}
	b = append(b, 1)
	b = appendStrings(b, f.Progs)
	b = binary.AppendUvarint(b, uint64(len(f.Verts)))
	for _, v := range f.Verts {
		b = appendString(b, v.Name)
		b = appendFloat(b, v.Weight)
	}
	l := &f.Learns
	b = appendStrings(b, l.Names)
	b = appendStrings(b, l.Devices)
	b = appendBytes(b, l.A)
	b = appendBytes(b, l.B)
	b = appendBytes(b, l.Dev)
	b = appendBytes(b, l.Seq)
	return appendInt(b, l.Count)
}

func decodeFedBatch(d *decoder) *FedBatch {
	if !d.flag() {
		return nil
	}
	f := &FedBatch{Progs: d.strs()}
	if n := d.count(9); n > 0 {
		f.Verts = make([]FedVertex, n)
		for i := range f.Verts {
			f.Verts[i] = FedVertex{Name: d.str(), Weight: d.float()}
		}
	}
	f.Learns = FedLearns{
		Names: d.strs(), Devices: d.strs(),
		A: d.blob(), B: d.blob(), Dev: d.blob(), Seq: d.blob(),
		Count: d.varint(),
	}
	return f
}
