package adb

import (
	"encoding/binary"
	"fmt"

	"droidfuzz/internal/dsl"
	"droidfuzz/internal/kcov"
)

// The broker link's messages and their frame codecs (see frame.go for the
// framing). Every request carries a tag its reply echoes.

// Request kinds.
const (
	reqPing     byte = 0x01 // tag
	reqReboot   byte = 0x02 // tag
	reqReset    byte = 0x03 // tag
	reqInfo     byte = 0x04 // tag
	reqDescribe byte = 0x05 // tag
	reqExport   byte = 0x06 // tag
	reqImport   byte = 0x07 // tag, checkpoint bytes
	reqExec     byte = 0x08 // tag, resets, program bytes
	reqBatch    byte = 0x09 // tag, resets, summary, count, program bytes...
)

// Reply kinds.
const (
	repErr        byte = 0x11 // tag, message
	repPong       byte = 0x12 // tag (Ping and Reboot)
	repReset      byte = 0x13 // tag, restored
	repInfo       byte = 0x14 // tag, info
	repDescribe   byte = 0x15 // tag, info, call descriptions, seeds
	repCheckpoint byte = 0x16 // tag, checkpoint bytes
	repImported   byte = 0x17 // tag
	repResult     byte = 0x18 // tag, rebooted, result
	repBatch      byte = 0x19 // tag, rebooted, count, (0 | 1 result)..., wire stats
)

// replyTo is the reply kind that answers each request kind.
var replyTo = map[byte]byte{
	reqPing: repPong, reqReboot: repPong, reqReset: repReset, reqInfo: repInfo,
	reqDescribe: repDescribe, reqExport: repCheckpoint, reqImport: repImported,
	reqExec: repResult, reqBatch: repBatch,
}

// rpcRequest is one host→broker frame.
type rpcRequest struct {
	Kind byte
	// Tag is the request sequence ID; the reply echoes it, and a client
	// receiving any other tag poisons the stream.
	Tag uint64
	// Progs are the programs of an exec (exactly one) or batch request in
	// exec encoding (dsl.AppendExec against the handshake's target). The
	// broker decodes each one on its own, so a bad program fails alone. A
	// decoded request's programs alias the frame buffer.
	Progs [][]byte
	// Resets is how many pristine resets an exec or batch request runs
	// before its first program (ExecBatchRequest.Resets).
	Resets int
	// Summary asks a batch for the interesting-only uplink.
	Summary bool
	// Blob is an import request's opaque device checkpoint.
	Blob []byte
}

// rpcReply is one broker→host frame.
type rpcReply struct {
	Kind     byte
	Tag      uint64
	Err      string         // repErr: the broker rejected the request
	Restored bool           // repReset: restored rather than rebooted
	Rebooted int            // repResult, repBatch: carried resets that rebooted
	Info     Info           // repInfo
	Describe *DescribeReply // repDescribe
	Blob     []byte         // repCheckpoint
	Result   *ExecResult    // repResult: pooled; never elided
	Batch    *batchReply    // repBatch
}

// batchReply is a batch's results, aligned with its programs, and the
// connection's cumulative uplink accounting.
type batchReply struct {
	// Results holds one pooled result per program; nil marks a program
	// the broker rejected (or whose trace arrived corrupt).
	Results []*ExecResult
	// Elided marks results whose traces the summary uplink withheld.
	Elided []bool
	Stats  WireStats
}

// release returns the reply's pooled results.
func (r *rpcReply) release() {
	r.Result.Release()
	if r.Batch != nil {
		for _, res := range r.Batch.Results {
			res.Release()
		}
	}
}

func (r *rpcRequest) appendFrame(b []byte) (_ []byte, err error) {
	b = append(b, r.Kind)
	b = binary.AppendUvarint(b, r.Tag)
	switch r.Kind {
	case reqPing, reqReboot, reqReset, reqInfo, reqDescribe, reqExport:
	case reqImport:
		b = appendBytes(b, r.Blob)
	case reqExec:
		if len(r.Progs) != 1 {
			return b, fmt.Errorf("adb: exec request carries %d programs, want 1", len(r.Progs))
		}
		if b, err = appendResets(b, r.Resets); err != nil {
			return b, err
		}
		b = appendBytes(b, r.Progs[0])
	case reqBatch:
		if b, err = appendResets(b, r.Resets); err != nil {
			return b, err
		}
		b = appendBool(b, r.Summary)
		b = binary.AppendUvarint(b, uint64(len(r.Progs)))
		for _, p := range r.Progs {
			b = appendBytes(b, p)
		}
	default:
		return b, fmt.Errorf("adb: unknown request kind %#x", r.Kind)
	}
	return b, nil
}

func (r *rpcRequest) decodeFrame(d *decoder) {
	*r = rpcRequest{Kind: d.u8(), Tag: d.uvarint()}
	switch r.Kind {
	case reqPing, reqReboot, reqReset, reqInfo, reqDescribe, reqExport:
	case reqImport:
		r.Blob = d.blob()
	case reqExec:
		r.Resets = decodeResets(d)
		r.Progs = [][]byte{d.view()}
	case reqBatch:
		r.Resets = decodeResets(d)
		r.Summary = d.flag()
		r.Progs = make([][]byte, d.count(1))
		for i := range r.Progs {
			r.Progs[i] = d.view()
		}
	default:
		d.fail("unknown request kind %#x", r.Kind)
	}
}

func (r *rpcReply) appendFrame(b []byte) ([]byte, error) {
	b = append(b, r.Kind)
	b = binary.AppendUvarint(b, r.Tag)
	switch r.Kind {
	case repErr:
		b = appendString(b, r.Err)
	case repPong, repImported:
	case repReset:
		b = appendBool(b, r.Restored)
	case repInfo:
		b = appendInfo(b, &r.Info)
	case repDescribe:
		if r.Describe == nil {
			return b, fmt.Errorf("adb: describe reply without a payload")
		}
		b = appendDescribe(b, r.Describe)
	case repCheckpoint:
		b = appendBytes(b, r.Blob)
	case repResult:
		if r.Result == nil {
			return b, fmt.Errorf("adb: result reply without a result")
		}
		b = binary.AppendUvarint(b, uint64(r.Rebooted))
		b = appendResult(b, r.Result, false)
	case repBatch:
		if r.Batch == nil {
			return b, fmt.Errorf("adb: batch reply without a payload")
		}
		b = binary.AppendUvarint(b, uint64(r.Rebooted))
		b = appendBatch(b, r.Batch)
	default:
		return b, fmt.Errorf("adb: unknown reply kind %#x", r.Kind)
	}
	return b, nil
}

func (r *rpcReply) decodeFrame(d *decoder) {
	*r = rpcReply{Kind: d.u8(), Tag: d.uvarint()}
	switch r.Kind {
	case repErr:
		r.Err = d.str()
	case repPong, repImported:
	case repReset:
		r.Restored = d.flag()
	case repInfo:
		r.Info = decodeInfo(d)
	case repDescribe:
		r.Describe = decodeDescribe(d)
	case repCheckpoint:
		r.Blob = d.blob()
	case repResult:
		r.Rebooted = decodeResets(d)
		r.Result, _ = decodeResult(d)
	case repBatch:
		r.Rebooted = decodeResets(d)
		r.Batch = decodeBatch(d)
	default:
		d.fail("unknown reply kind %#x", r.Kind)
	}
	if d.err != nil {
		r.release()
		r.Result, r.Batch = nil, nil
	}
}

// appendResets appends a reset count, which must lie in 0..maxResets.
func appendResets(b []byte, n int) ([]byte, error) {
	if n < 0 || n > maxResets {
		return b, fmt.Errorf("adb: %d resets outside 0..%d", n, maxResets)
	}
	return binary.AppendUvarint(b, uint64(n)), nil
}

// decodeResets reads a reset count (carried resets, or the rebooted ones
// among them) and bounds it by maxResets, so a hostile frame cannot
// stall the broker in a reset loop.
func decodeResets(d *decoder) int {
	n := d.uvarint()
	if n > maxResets {
		d.fail("%d resets over the cap of %d", n, maxResets)
		return 0
	}
	return int(n)
}

func appendInfo(b []byte, in *Info) []byte {
	b = appendString(b, in.ModelID)
	b = binary.AppendUvarint(b, in.TargetHash)
	b = appendInt(b, in.Reboots)
	b = appendInt(b, in.Restores)
	return binary.AppendUvarint(b, in.Execs)
}

func decodeInfo(d *decoder) Info {
	return Info{
		ModelID:    d.str(),
		TargetHash: d.uvarint(),
		Reboots:    d.varint(),
		Restores:   d.varint(),
		Execs:      d.uvarint(),
	}
}

// appendDescribe encodes the handshake payload. Every syntax field of a
// call description crosses, in declaration order, so the host rebuilds a
// target that hashes like the broker's and generates with the same hints.
func appendDescribe(b []byte, r *DescribeReply) []byte {
	b = appendInfo(b, &r.Info)
	b = binary.AppendUvarint(b, uint64(len(r.Calls)))
	for _, c := range r.Calls {
		b = appendString(b, c.Name)
		b = appendInt(b, int(c.Class))
		b = appendString(b, c.Syscall)
		b = appendString(b, c.Service)
		b = appendString(b, c.Method)
		b = binary.AppendUvarint(b, uint64(c.MethodCode))
		b = appendString(b, c.Param)
		b = binary.AppendUvarint(b, uint64(len(c.Args)))
		for i := range c.Args {
			b = appendField(b, &c.Args[i])
		}
		b = appendString(b, c.Ret)
		b = appendFloat(b, c.Weight)
		b = appendInt(b, c.CriticalArg)
	}
	return appendStrings(b, r.Seeds)
}

func appendField(b []byte, f *dsl.Field) []byte {
	t := &f.Type
	b = appendString(b, f.Name)
	b = appendInt(b, int(t.Kind))
	b = binary.AppendUvarint(b, t.Min)
	b = binary.AppendUvarint(b, t.Max)
	b = appendUvarints(b, t.Choices)
	b = appendInt(b, t.BufLen)
	b = appendString(b, t.Res)
	b = appendStrings(b, t.StrChoices)
	b = binary.AppendUvarint(b, uint64(len(t.StrWeights)))
	for _, w := range t.StrWeights {
		b = appendFloat(b, w)
	}
	b = binary.AppendUvarint(b, t.Val)
	b = appendString(b, t.LenOf)
	return appendUvarints(b, t.Hints)
}

func appendUvarints(b []byte, vs []uint64) []byte {
	b = binary.AppendUvarint(b, uint64(len(vs)))
	for _, v := range vs {
		b = binary.AppendUvarint(b, v)
	}
	return b
}

func decodeDescribe(d *decoder) *DescribeReply {
	r := &DescribeReply{Info: decodeInfo(d)}
	if n := d.count(1); n > 0 {
		r.Calls = make([]*dsl.CallDesc, n)
	}
	for i := range r.Calls {
		c := &dsl.CallDesc{
			Name:       d.str(),
			Class:      dsl.Class(d.varint()),
			Syscall:    d.str(),
			Service:    d.str(),
			Method:     d.str(),
			MethodCode: uint32(d.uvarint()),
			Param:      d.str(),
		}
		if n := d.count(1); n > 0 {
			c.Args = make([]dsl.Field, n)
		}
		for j := range c.Args {
			decodeField(d, &c.Args[j])
		}
		c.Ret = d.str()
		c.Weight = d.float()
		c.CriticalArg = d.varint()
		r.Calls[i] = c
	}
	r.Seeds = d.strs()
	return r
}

func decodeField(d *decoder, f *dsl.Field) {
	f.Name = d.str()
	t := &f.Type
	t.Kind = dsl.Kind(d.varint())
	t.Min = d.uvarint()
	t.Max = d.uvarint()
	t.Choices = decodeUvarints(d)
	t.BufLen = d.varint()
	t.Res = d.str()
	t.StrChoices = d.strs()
	if n := d.count(8); n > 0 {
		t.StrWeights = make([]float64, n)
		for i := range t.StrWeights {
			t.StrWeights[i] = d.float()
		}
	}
	t.Val = d.uvarint()
	t.LenOf = d.str()
	t.Hints = decodeUvarints(d)
}

func decodeUvarints(d *decoder) []uint64 {
	n := d.count(1)
	if n == 0 {
		return nil
	}
	vs := make([]uint64, n)
	for i := range vs {
		vs[i] = d.uvarint()
	}
	return vs
}

// Result flags.
const (
	resWedged  = 1 << iota // ExecResult.Wedged
	resHALDead             // ExecResult.HALDead
	resElided              // the summary uplink withheld the traces
	resFlags   = resWedged | resHALDead | resElided
)

// appendResult encodes one execution result straight from the pooled
// result. Per call: executed, errno, return value. Unless elided, the
// per-call and full kcov traces follow, delta-coded with kcov's codec,
// then the HAL trace. Crashes and the dmesg tail always cross.
func appendResult(b []byte, res *ExecResult, elide bool) []byte {
	var flags byte
	if res.Wedged {
		flags |= resWedged
	}
	if res.HALDead {
		flags |= resHALDead
	}
	if elide {
		flags |= resElided
	}
	b = append(b, flags)
	b = binary.AppendUvarint(b, uint64(len(res.Calls)))
	for i := range res.Calls {
		c := &res.Calls[i]
		b = appendBool(b, c.Executed)
		b = appendString(b, c.Errno)
		b = binary.AppendUvarint(b, c.Ret)
	}
	if !elide {
		for i := range res.Calls {
			b = appendTrace(b, res.Calls[i].Cover)
		}
		b = appendTrace(b, res.KernelCov)
		b = binary.AppendUvarint(b, uint64(len(res.HALTrace)))
		for i := range res.HALTrace {
			ev := &res.HALTrace[i]
			b = binary.AppendUvarint(b, ev.Seq)
			b = appendInt(b, ev.PID)
			b = appendString(b, ev.NR)
			b = appendString(b, ev.Path)
			b = binary.AppendUvarint(b, ev.Arg)
		}
	}
	b = binary.AppendUvarint(b, uint64(len(res.Crashes)))
	for i := range res.Crashes {
		c := &res.Crashes[i]
		b = appendString(b, c.Kind)
		b = appendString(b, c.Title)
		b = appendString(b, c.Detail)
		b = appendString(b, c.Component)
	}
	return appendStrings(b, res.Dmesg)
}

// appendTrace appends a trace delta-coded behind its byte length. The
// length is written as one byte first and widened in place when the
// trace codes to 128 bytes or more.
func appendTrace(b []byte, trace []uint32) []byte {
	start := len(b)
	b = append(b, 0)
	b = kcov.AppendDelta(b, trace)
	n := len(b) - start - 1
	if n < 0x80 {
		b[start] = byte(n)
		return b
	}
	var hdr [binary.MaxVarintLen64]byte
	h := binary.PutUvarint(hdr[:], uint64(n))
	b = append(b, hdr[:h-1]...)
	copy(b[start+h:], b[start+1:start+1+n])
	copy(b[start:], hdr[:h])
	return b
}

// decodeResult decodes one result into a pooled ExecResult. An elided
// result decodes with empty traces: by construction it carried no new
// signal, so the host's feedback draws the conclusion it would have drawn
// from the full trace. A trace whose delta bytes do not decode makes the
// result nil without failing the frame; elided reports the flag.
func decodeResult(d *decoder) (res *ExecResult, elided bool) {
	flags := d.u8()
	if flags&^resFlags != 0 {
		d.fail("result flags %#x", flags)
	}
	n := d.count(3)
	if d.err != nil {
		return nil, false
	}
	r := GetResult()
	r.prepare(n)
	for i := range r.Calls {
		c := &r.Calls[i]
		c.Executed = d.flag()
		c.Errno = d.name()
		c.Ret = d.uvarint()
	}
	var bad error
	elided = flags&resElided != 0
	if !elided {
		for i := range r.Calls {
			c := &r.Calls[i]
			if c.Cover, bad = decodeTrace(d, c.Cover[:0], bad); bad != nil {
				c.Cover = c.Cover[:0]
			}
		}
		r.KernelCov, bad = decodeTrace(d, r.KernelCov[:0], bad)
		nh := d.count(5)
		for i := 0; i < nh; i++ {
			r.HALTrace = append(r.HALTrace, TraceEvent{
				Seq: d.uvarint(), PID: d.varint(), NR: d.name(), Path: d.name(), Arg: d.uvarint(),
			})
		}
	}
	nc := d.count(4)
	for i := 0; i < nc; i++ {
		r.Crashes = append(r.Crashes, CrashRecord{
			Kind: d.name(), Title: d.str(), Detail: d.str(), Component: d.name(),
		})
	}
	r.Dmesg = d.strs()
	r.Wedged = flags&resWedged != 0
	r.HALDead = flags&resHALDead != 0
	if d.err != nil || bad != nil {
		r.Release()
		return nil, elided
	}
	return r, elided
}

// decodeTrace decodes one delta-coded trace onto dst. A corrupt trace is
// reported through bad (the first one sticks), not as a frame error: the
// framing around it is intact.
func decodeTrace(d *decoder, dst []uint32, bad error) ([]uint32, error) {
	data := d.view()
	if bad != nil {
		return dst, bad
	}
	return kcov.DecodeDelta(dst, data)
}

func appendBatch(b []byte, r *batchReply) []byte {
	b = binary.AppendUvarint(b, uint64(len(r.Results)))
	for i, res := range r.Results {
		if res == nil {
			b = append(b, 0)
			continue
		}
		b = append(b, 1)
		b = appendResult(b, res, i < len(r.Elided) && r.Elided[i])
	}
	b = binary.AppendUvarint(b, r.Stats.Execs)
	b = binary.AppendUvarint(b, r.Stats.Elided)
	b = binary.AppendUvarint(b, r.Stats.CovRawBytes)
	return binary.AppendUvarint(b, r.Stats.CovWireBytes)
}

func decodeBatch(d *decoder) *batchReply {
	n := d.count(1)
	r := &batchReply{Results: make([]*ExecResult, n), Elided: make([]bool, n)}
	for i := 0; i < n && d.err == nil; i++ {
		switch d.u8() {
		case 0:
		case 1:
			r.Results[i], r.Elided[i] = decodeResult(d)
		default:
			d.fail("batch entry %d: bad status", i)
		}
	}
	r.Stats = WireStats{
		Execs:        d.uvarint(),
		Elided:       d.uvarint(),
		CovRawBytes:  d.uvarint(),
		CovWireBytes: d.uvarint(),
	}
	return r
}
