package adb

import (
	"fmt"

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
// run several programs back to back and return one result per program (a
// nil entry marks a program that failed to execute). The in-process Broker
// and the Resilient client implement it.
type BatchExecutor interface {
	ExecBatch(req ExecBatchRequest) ([]*ExecResult, error)
}

// ExecBatchRequest asks the broker to run a batch of programs in order.
type ExecBatchRequest struct {
	// Progs are the programs in DSL text form.
	Progs []string
	// Summary enables the interesting-only uplink: the broker withholds
	// the coverage traces of executions that contributed no new signal to
	// its per-connection filter. Requires the server to be configured with
	// an UplinkFilter; otherwise results are merely delta-coded.
	Summary bool
}

// ExecBatchReply carries one WireResult per program plus the connection's
// cumulative uplink accounting.
type ExecBatchReply struct {
	Results []WireResult
	// Cumulative per-connection counters; see WireStats.
	Execs        uint64
	Elided       uint64
	CovRawBytes  uint64
	CovWireBytes uint64
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

// connState is the per-served-connection protocol state: the uplink filter
// and the byte accounting the batch replies report back to the host.
type connState struct {
	filter UplinkFilter
	stats  WireStats
}

// observe feeds one result to the filter (if any), reporting novelty.
// Results from connections without a filter are always novel.
func (st *connState) observe(res *ExecResult) bool {
	if st.filter == nil || res == nil {
		return true
	}
	return st.filter.Observe(res)
}

// WireResult is the batched-reply encoding of one ExecResult: call
// outcomes with their PC traces split out into delta-coded byte strings,
// or elided entirely in summary mode when the execution carried no new
// signal. It owns its memory — nothing aliases the broker's pooled result.
type WireResult struct {
	// Err is set when this program failed to execute (parse error,
	// injected fault); all other fields are zero.
	Err string
	// Calls holds per-call outcomes with Cover stripped; CallCov carries
	// the delta-coded traces at matching indexes when not elided.
	Calls   []CallResult
	CallCov [][]byte
	// KernelCov is the delta-coded full execution trace (nil when elided).
	KernelCov []byte
	HALTrace  []TraceEvent
	Crashes   []CrashRecord
	Dmesg     []string
	Wedged    bool
	HALDead   bool
	// Elided marks a summary-mode result whose traces were withheld
	// because the broker-side filter saw no new signal in them.
	Elided bool
}

// encode fills w from res, delta-coding the traces (unless elide withholds
// them), and returns the flat-encoding cost and shipped bytes of the
// coverage payload. res stays untouched and may be released afterwards.
func (w *WireResult) encode(res *ExecResult, elide bool) (raw, wire uint64) {
	*w = WireResult{
		Wedged:  res.Wedged,
		HALDead: res.HALDead,
		Elided:  elide,
	}
	if len(res.Crashes) > 0 {
		w.Crashes = append([]CrashRecord(nil), res.Crashes...)
	}
	if len(res.Dmesg) > 0 {
		w.Dmesg = append([]string(nil), res.Dmesg...)
	}
	w.Calls = make([]CallResult, len(res.Calls))
	for i := range res.Calls {
		c := &res.Calls[i]
		w.Calls[i] = CallResult{Executed: c.Executed, Errno: c.Errno, Ret: c.Ret}
		raw += 4 * uint64(len(c.Cover))
	}
	raw += 4 * uint64(len(res.KernelCov))
	if elide {
		return raw, 0
	}
	if len(res.HALTrace) > 0 {
		w.HALTrace = append([]TraceEvent(nil), res.HALTrace...)
	}
	w.KernelCov = kcov.AppendDelta(nil, res.KernelCov)
	wire = uint64(len(w.KernelCov))
	w.CallCov = make([][]byte, len(res.Calls))
	for i := range res.Calls {
		w.CallCov[i] = kcov.AppendDelta(nil, res.Calls[i].Cover)
		wire += uint64(len(w.CallCov[i]))
	}
	return raw, wire
}

// decode rebuilds a pooled ExecResult from the wire form. Elided results
// decode to a result with empty traces — by construction they carried no
// new signal, so the host feedback pipeline draws the same conclusion it
// would have from the full trace.
func (w *WireResult) decode() (*ExecResult, error) {
	r := GetResult()
	r.prepare(len(w.Calls))
	var err error
	for i := range w.Calls {
		c := &r.Calls[i]
		c.Executed = w.Calls[i].Executed
		c.Errno = w.Calls[i].Errno
		c.Ret = w.Calls[i].Ret
		if i < len(w.CallCov) {
			if c.Cover, err = kcov.DecodeDelta(c.Cover[:0], w.CallCov[i]); err != nil {
				r.Release()
				return nil, err
			}
		}
	}
	if r.KernelCov, err = kcov.DecodeDelta(r.KernelCov[:0], w.KernelCov); err != nil {
		r.Release()
		return nil, err
	}
	r.HALTrace = append(r.HALTrace, w.HALTrace...)
	r.Crashes = append(r.Crashes, w.Crashes...)
	r.Dmesg = w.Dmesg
	r.Wedged = w.Wedged
	r.HALDead = w.HALDead
	return r, nil
}

// execBatch runs a batch as one frame: one request carries every program
// and one reply every result. A nil entry marks a program the broker
// rejected (or whose trace arrived corrupt); the slice aligns
// index-for-index with req.Progs. On an error it returns no results: a
// reply whose result count differs from the program count cannot be
// attributed to programs, so it poisons the stream. Non-nil results are
// pooled and owned by the caller (Release each).
func (s *Stream) execBatch(req ExecBatchRequest) ([]*ExecResult, error) {
	n := len(req.Progs)
	if n == 0 {
		return nil, nil
	}
	rep, err := s.roundTrip(rpcRequest{Batch: &req})
	if err != nil {
		return nil, err
	}
	b := rep.Batch
	if b == nil {
		return nil, &RemoteError{Msg: "adb: empty batch reply"}
	}
	if got := len(b.Results); got != n {
		return nil, s.fail(fmt.Errorf("%w: batch reply carries %d results for %d programs",
			ErrTransport, got, n))
	}
	out := make([]*ExecResult, n)
	for i := range b.Results {
		if w := &b.Results[i]; w.Err == "" {
			out[i], _ = w.decode() // a corrupt trace drops this program only
		}
	}
	s.stats.Store(&WireStats{
		Execs:        b.Execs,
		Elided:       b.Elided,
		CovRawBytes:  b.CovRawBytes,
		CovWireBytes: b.CovWireBytes,
	})
	return out, nil
}

// execBatch is the server side of ExecBatch: run every program in the
// frame in order (no early stop — a crash reboots the device and the rest
// of the frame runs on the fresh boot, which is the documented determinism
// caveat of batched mode), feed each result to the connection's filter,
// and encode, eliding traces the summary mode proved uninteresting.
func (s *Server) execBatch(st *connState, req *ExecBatchRequest) *ExecBatchReply {
	rep := &ExecBatchReply{Results: make([]WireResult, len(req.Progs))}
	for i, text := range req.Progs {
		res, err := s.execOne(text)
		if err != nil {
			rep.Results[i].Err = err.Error()
			continue
		}
		novel := st.observe(res)
		elide := req.Summary && st.filter != nil && !novel &&
			!res.Crashed() && !res.NeedsReboot()
		raw, wire := rep.Results[i].encode(res, elide)
		sanitizeWireResult(&rep.Results[i], res)
		st.stats.Execs++
		st.stats.CovRawBytes += raw
		st.stats.CovWireBytes += wire
		if elide {
			st.stats.Elided++
		}
		res.Release()
	}
	rep.Execs = st.stats.Execs
	rep.Elided = st.stats.Elided
	rep.CovRawBytes = st.stats.CovRawBytes
	rep.CovWireBytes = st.stats.CovWireBytes
	return rep
}

// execOne runs one batched program with the same panic guard the
// per-request handler has: one hostile program must not take down the
// whole frame. The pooled result is owned by the caller, who Releases it
// after encoding the reply frame.
func (s *Server) execOne(text string) (res *ExecResult, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("adb: exec panic: %v", r)
		}
	}()
	return s.X.Exec(ExecRequest{ProgText: text})
}
