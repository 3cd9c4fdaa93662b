// Package coord implements the multi-host fleet layer: a coordinator that
// shards one campaign across many hosts, hands shards out with work
// stealing, evicts dead hosts and requeues their shards warm, and
// federates the hosts' learned state — corpus admissions deduplicated by
// canonical-text hash and relation learn records replayed in (device, seq)
// order — so the fleet converges on one global corpus and relation graph
// without sharing a lock. See DESIGN.md "Fleet topology & federation".
package coord

import (
	"fmt"

	"droidfuzz/internal/adb"
	"droidfuzz/internal/kcov"
	"droidfuzz/internal/relation"
)

// The learn-batch codec. A federation uplink carries thousands of learn
// records whose fields repeat heavily: a handful of vertex names, one
// device per engine, and per-device sequence numbers that increase by one
// almost every record. Columnar table-index encoding plus the kcov
// zigzag-varint delta codec turns that redundancy into ~1 byte per column
// per record, where flat gob encoding of []LearnOp re-ships every string.

// EncodeLearns packs ops into the columnar delta/varint wire block.
// Sequence numbers must fit uint32 (an engine would need years of
// continuous learning to overflow; the error keeps truncation loud).
func EncodeLearns(ops []relation.LearnOp) (adb.FedLearns, error) {
	var fl adb.FedLearns
	if len(ops) == 0 {
		return fl, nil
	}
	nameIdx := make(map[string]uint32)
	devIdx := make(map[string]uint32)
	intern := func(tbl *[]string, idx map[string]uint32, s string) uint32 {
		if i, ok := idx[s]; ok {
			return i
		}
		i := uint32(len(*tbl))
		*tbl = append(*tbl, s)
		idx[s] = i
		return i
	}
	a := make([]uint32, len(ops))
	b := make([]uint32, len(ops))
	dev := make([]uint32, len(ops))
	seq := make([]uint32, len(ops))
	for i, op := range ops {
		if op.Seq > 1<<32-1 {
			return adb.FedLearns{}, fmt.Errorf("coord: learn seq %d overflows the wire's uint32", op.Seq)
		}
		a[i] = intern(&fl.Names, nameIdx, op.A)
		b[i] = intern(&fl.Names, nameIdx, op.B)
		dev[i] = intern(&fl.Devices, devIdx, op.Device)
		seq[i] = uint32(op.Seq)
	}
	fl.A = kcov.AppendDelta(nil, a)
	fl.B = kcov.AppendDelta(nil, b)
	fl.Dev = kcov.AppendDelta(nil, dev)
	fl.Seq = kcov.AppendDelta(nil, seq)
	fl.Count = len(ops)
	return fl, nil
}

// DecodeLearns unpacks a wire block back into learn records, validating
// column lengths and table indexes (the stream may come from a hostile or
// corrupted peer).
func DecodeLearns(fl adb.FedLearns) ([]relation.LearnOp, error) {
	if fl.Count == 0 {
		return nil, nil
	}
	if fl.Count < 0 {
		return nil, fmt.Errorf("coord: negative learn count %d", fl.Count)
	}
	col := func(name string, data []byte) ([]uint32, error) {
		vals, err := kcov.DecodeDelta(make([]uint32, 0, fl.Count), data)
		if err != nil {
			return nil, fmt.Errorf("coord: learn column %s: %w", name, err)
		}
		if len(vals) != fl.Count {
			return nil, fmt.Errorf("coord: learn column %s has %d entries, want %d", name, len(vals), fl.Count)
		}
		return vals, nil
	}
	a, err := col("A", fl.A)
	if err != nil {
		return nil, err
	}
	b, err := col("B", fl.B)
	if err != nil {
		return nil, err
	}
	dev, err := col("Dev", fl.Dev)
	if err != nil {
		return nil, err
	}
	seq, err := col("Seq", fl.Seq)
	if err != nil {
		return nil, err
	}
	ops := make([]relation.LearnOp, fl.Count)
	for i := range ops {
		if int(a[i]) >= len(fl.Names) || int(b[i]) >= len(fl.Names) {
			return nil, fmt.Errorf("coord: learn record %d: name index out of range", i)
		}
		if int(dev[i]) >= len(fl.Devices) {
			return nil, fmt.Errorf("coord: learn record %d: device index out of range", i)
		}
		ops[i] = relation.LearnOp{
			A:      fl.Names[a[i]],
			B:      fl.Names[b[i]],
			Device: fl.Devices[dev[i]],
			Seq:    uint64(seq[i]),
		}
	}
	return ops, nil
}

// BatchBytes estimates one federation batch's payload size: string bytes
// plus the encoded learn columns plus fixed per-field overhead. It is the
// accounting both sides report as federation bytes in/out (close enough to
// the wire frame size for capacity planning, and exactly comparable between
// the delta-coded and naive encodings the benchmark contrasts).
func BatchBytes(b *adb.FedBatch) int {
	if b == nil {
		return 0
	}
	n := 0
	for _, p := range b.Progs {
		n += len(p) + 8
	}
	for _, v := range b.Verts {
		n += len(v.Name) + 8
	}
	for _, s := range b.Learns.Names {
		n += len(s) + 2
	}
	for _, s := range b.Learns.Devices {
		n += len(s) + 2
	}
	n += len(b.Learns.A) + len(b.Learns.B) + len(b.Learns.Dev) + len(b.Learns.Seq)
	return n
}

// emptyBatch reports whether b carries nothing worth shipping.
func emptyBatch(b *adb.FedBatch) bool {
	return b == nil || (len(b.Progs) == 0 && len(b.Verts) == 0 && b.Learns.Count == 0)
}
