package adb

import (
	"fmt"

	"droidfuzz/internal/dsl"
	"droidfuzz/internal/kcov"
)

// Wire protocol v2 batched execution: a batch of N programs travels as one
// request frame and its N results as one reply frame, with PC traces
// delta-coded (kcov varint codec) and an optional summary mode where the
// broker elides the traces of executions that produced no new signal
// against its per-connection view of the host's feedback pipeline.
// Crashing executions and executions with fresh signal always ship in
// full; the host's accumulator sees the same novelty verdicts it would
// have computed locally, at a fraction of the bytes.

// BatchExecutor is the optional batched-execution extension of Executor:
// run the requested resets, then several programs back to back, and return
// one result per program (a nil entry marks a program that failed to
// execute). The in-process Broker and the Resilient client implement it,
// and the engine makes every execution through it.
type BatchExecutor interface {
	ExecBatch(req ExecBatchRequest) ([]*ExecResult, error)
}

// ExecBatchRequest asks the broker to run a batch of programs in order.
type ExecBatchRequest struct {
	// Progs are the programs, parsed against the executor's target. A
	// remote executor sends them in the exec encoding.
	Progs []*dsl.Prog
	// Summary enables the interesting-only uplink: the broker withholds
	// the coverage traces of executions that contributed no new signal to
	// its per-connection filter. Requires the server to be configured with
	// an UplinkFilter; otherwise results are merely delta-coded.
	Summary bool
	// Resets is how many pristine resets (Executor.Reset) the device runs,
	// in order, before the first program. A remote executor carries them
	// in the same frame as the programs, so a reset costs no round trip of
	// its own; it carries at most 65 536 per call.
	Resets int
	// Rebooted, when not nil, receives how many of the Resets fell back to
	// a reboot; the others restored. It is written only when ExecBatch
	// returns no error; after an error, whether the resets ran is unknown.
	Rebooted *int
	// Results, when it has one slot per program, receives the results and
	// is returned, so a caller that reuses one slice allocates none;
	// otherwise ExecBatch allocates the slice it returns.
	Results []*ExecResult
}

// maxResets bounds the resets one exec or batch frame may carry.
const maxResets = 1 << 16

// results returns the slice ExecBatch fills with pooled results for the
// caller to Release: req.Results when it fits, a fresh one otherwise,
// cleared either way.
func (req *ExecBatchRequest) results() []*ExecResult {
	if len(req.Results) != len(req.Progs) {
		return make([]*ExecResult, len(req.Progs))
	}
	clear(req.Results)
	return req.Results
}

// WireStats is the uplink accounting for one connection's batched
// executions: how many bytes the coverage traces would have cost in flat
// 4-bytes-per-PC form versus what the delta-coded, summary-filtered uplink
// actually shipped.
type WireStats struct {
	// Execs counts batched executions.
	Execs uint64
	// Elided counts executions whose traces were withheld (no new signal).
	Elided uint64
	// CovRawBytes is the flat-encoding cost of every trace produced.
	CovRawBytes uint64
	// CovWireBytes is the delta-coded bytes actually shipped.
	CovWireBytes uint64
}

// Saved reports the uplink bytes avoided versus the flat encoding.
func (w WireStats) Saved() uint64 {
	if w.CovWireBytes >= w.CovRawBytes {
		return 0
	}
	return w.CovRawBytes - w.CovWireBytes
}

// Add folds another connection's accounting into w (Resilient accumulates
// across reconnects).
func (w *WireStats) Add(o WireStats) {
	w.Execs += o.Execs
	w.Elided += o.Elided
	w.CovRawBytes += o.CovRawBytes
	w.CovWireBytes += o.CovWireBytes
}

// UplinkFilter is the broker-side mirror of a host engine's feedback
// pipeline: it folds every execution result served on one connection into
// an accumulated signal set and reports whether the result contributed
// anything new. Implemented by the feedback package (the import points this
// way: feedback builds on adb's result types, so adb only sees the
// interface).
type UplinkFilter interface {
	// Observe folds res into the accumulated view and reports whether it
	// carried new signal.
	Observe(res *ExecResult) bool
}

// connState is the per-served-connection protocol state: the uplink
// filter, the byte accounting the batch replies report back to the host,
// and the decoder whose program each execution reuses. The broker keeps
// no part of a program past its ExecProg, so one program's storage serves
// every execution on the connection.
type connState struct {
	filter UplinkFilter
	stats  WireStats
	progs  dsl.ExecDecoder
}

// observe feeds one result to the filter (if any), reporting novelty.
// Results from connections without a filter are always novel.
func (st *connState) observe(res *ExecResult) bool {
	if st.filter == nil || res == nil {
		return true
	}
	return st.filter.Observe(res)
}

// account adds one batched result to the connection's uplink accounting:
// its traces' flat cost, and the delta-coded bytes shipped unless elided.
func (st *connState) account(res *ExecResult, elide bool) {
	raw, wire := 4*len(res.KernelCov), 0
	if !elide {
		wire = kcov.DeltaLen(res.KernelCov)
	}
	for i := range res.Calls {
		raw += 4 * len(res.Calls[i].Cover)
		if !elide {
			wire += kcov.DeltaLen(res.Calls[i].Cover)
		}
	}
	st.stats.Execs++
	st.stats.CovRawBytes += uint64(raw)
	st.stats.CovWireBytes += uint64(wire)
	if elide {
		st.stats.Elided++
	}
}

// execBatch runs a batch as one frame: one request carries the resets to
// run first and every program, and one reply every result and how many of
// the resets rebooted. A nil entry marks a program the broker
// rejected (or whose trace arrived corrupt); the slice aligns
// index-for-index with progs. On an error it returns no results: a reply
// whose result count differs from the program count cannot be attributed
// to programs, so it poisons the stream. Non-nil results are pooled and
// owned by the caller (Release each).
func (s *Stream) execBatch(progs [][]byte, summary bool, resets int) (results []*ExecResult, rebooted int, err error) {
	n := len(progs)
	if n == 0 && resets == 0 {
		return nil, 0, nil
	}
	rep, err := s.roundTrip(rpcRequest{Kind: reqBatch, Progs: progs, Summary: summary, Resets: resets})
	if err != nil {
		return nil, 0, err
	}
	if got := len(rep.Batch.Results); got != n {
		rep.release()
		return nil, 0, s.fail(fmt.Errorf("%w: batch reply carries %d results for %d programs",
			ErrTransport, got, n))
	}
	s.stats.Store(&rep.Batch.Stats)
	return rep.Batch.Results, rep.Rebooted, nil
}

// execBatch is the server side of ExecBatch: run every program in the
// frame in order (no early stop — a crash reboots the device and the rest
// of the frame runs on the fresh boot, which is the documented determinism
// caveat of batched mode), feed each result to the connection's filter,
// and mark for elision the traces the summary mode proved uninteresting.
// The results stay live until the reply frame is encoded.
func (s *Server) execBatch(st *connState, req *rpcRequest) *batchReply {
	t := s.X.Target()
	rep := &batchReply{
		Results: make([]*ExecResult, len(req.Progs)),
		Elided:  make([]bool, len(req.Progs)),
	}
	for i, prog := range req.Progs {
		res, err := s.execOne(st, t, prog)
		if err != nil {
			continue
		}
		novel := st.observe(res)
		elide := req.Summary && st.filter != nil && !novel &&
			!res.Crashed() && !res.NeedsReboot()
		st.account(res, elide)
		rep.Results[i], rep.Elided[i] = res, elide
	}
	rep.Stats = st.stats
	return rep
}

// execOne decodes one exec-encoded program against t into the
// connection's reusable program and runs it, with the same panic guard the
// per-request handler has: one hostile program must not take down the
// whole frame. A program that does not decode fails alone. The pooled
// result is owned by the caller, who Releases it after encoding the reply
// frame.
func (s *Server) execOne(st *connState, t *dsl.Target, prog []byte) (res *ExecResult, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("adb: exec panic: %v", r)
		}
	}()
	p, err := st.progs.Decode(t, prog)
	if err != nil {
		return nil, fmt.Errorf("adb: bad program: %w", err)
	}
	return s.X.ExecProg(p)
}

// runResets runs the n pristine resets an execution request carries on x,
// in order, and counts the ones that fell back to a reboot. The first
// failure stops it, so a served request fails before any of its programs
// runs.
func runResets(x Executor, n int) (rebooted int, err error) {
	for ; n > 0; n-- {
		restored, err := x.Reset()
		if err != nil {
			return rebooted, err
		}
		if !restored {
			rebooted++
		}
	}
	return rebooted, nil
}
