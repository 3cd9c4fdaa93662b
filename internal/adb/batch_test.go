package adb

import (
	"errors"
	"fmt"
	"io"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"droidfuzz/internal/dsl"
)

// stubFilter is an UplinkFilter that calls everything after the first
// observation boring, making elision decisions deterministic for tests.
type stubFilter struct{ n int }

func (f *stubFilter) Observe(res *ExecResult) bool {
	f.n++
	return f.n == 1
}

const benignProg = `r0 = open$tcpc(path="/dev/tcpc0")
ioctl$TCPC_SET_MODE(fd=r0, req=0xa102, mode=0x3)
close$tcpc(fd=r0)
`

// parseAll parses program texts against target.
func parseAll(tb testing.TB, target *dsl.Target, texts ...string) []*dsl.Prog {
	tb.Helper()
	progs := make([]*dsl.Prog, len(texts))
	for i, text := range texts {
		p, err := dsl.ParseProg(target, text)
		if err != nil {
			tb.Fatalf("program %d: %v", i, err)
		}
		progs[i] = p
	}
	return progs
}

// encodeAll parses program texts against target and exec-encodes them.
func encodeAll(tb testing.TB, target *dsl.Target, texts ...string) [][]byte {
	tb.Helper()
	out := make([][]byte, len(texts))
	for i, p := range parseAll(tb, target, texts...) {
		b, err := dsl.AppendExec(nil, target, p)
		if err != nil {
			tb.Fatal(err)
		}
		out[i] = b
	}
	return out
}

// TestExecBatchSummaryElidesRepeats runs the same program four times in one
// summary-mode batch: the first execution (novel by the filter's account)
// must ship its traces in full, the repeats must arrive elided, and the
// connection's wire accounting must show the savings.
func TestExecBatchSummaryElidesRepeats(t *testing.T) {
	b, _ := newBrokerRig(t, "A1")
	srv := &Server{X: b}
	srv.NewFilter = func() UplinkFilter { return &stubFilter{} }
	r := dialPipe(t, srv, ResilientOptions{CallTimeout: 5 * time.Second})

	progs := parseAll(t, r.Target(), benignProg, benignProg, benignProg, benignProg)
	results, err := r.ExecBatch(ExecBatchRequest{Progs: progs, Summary: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(progs) {
		t.Fatalf("results = %d, want %d", len(results), len(progs))
	}
	for i, res := range results {
		if res == nil {
			t.Fatalf("result %d nil", i)
		}
		if len(res.Calls) != 3 || !res.Calls[0].Executed || res.Calls[0].Errno != "OK" {
			t.Fatalf("result %d call outcomes mangled: %+v", i, res.Calls)
		}
	}
	if len(results[0].KernelCov) == 0 || len(results[0].Calls[1].Cover) == 0 {
		t.Fatal("novel execution arrived without its traces")
	}
	for i, res := range results[1:] {
		if len(res.KernelCov) != 0 {
			t.Fatalf("repeat %d shipped %d trace PCs despite elision", i+1, len(res.KernelCov))
		}
	}

	w := r.WireStats()
	if w.Execs != 4 || w.Elided != 3 {
		t.Fatalf("wire stats = %+v, want Execs=4 Elided=3", w)
	}
	if w.CovWireBytes >= w.CovRawBytes || w.Saved() == 0 {
		t.Fatalf("no uplink savings recorded: %+v", w)
	}

	// Without summary mode the same repeats ship in full: elision must not
	// grow even though the filter still observes every execution.
	results, err = r.ExecBatch(ExecBatchRequest{Progs: progs[:2], Summary: false})
	if err != nil {
		t.Fatal(err)
	}
	for i, res := range results {
		if res == nil || len(res.KernelCov) == 0 {
			t.Fatalf("non-summary result %d missing traces", i)
		}
	}
	if w := r.WireStats(); w.Elided != 3 || w.Execs != 6 {
		t.Fatalf("non-summary batch changed elision accounting: %+v", w)
	}
}

// TestExecBatchFramingAndRejects plants a program that does not decode in
// the middle of a hand-built batch frame: the whole batch must cross the
// wire as one frame, and the results must align index-for-index, with
// exactly the bad program marked nil.
func TestExecBatchFramingAndRejects(t *testing.T) {
	b, target := newBrokerRig(t, "A1")
	srv := &Server{X: b}
	var frames atomic.Int64
	host, dev := net.Pipe()
	go serveHooked(srv, dev, func(req *rpcRequest, _ *rpcReply) bool {
		if req.Kind == reqBatch {
			frames.Add(1)
		}
		return true
	})
	s := NewStream(host, 5*time.Second)
	defer s.Close()

	short := `r0 = open$tcpc(path="/dev/tcpc0")
close$tcpc(fd=r0)
`
	progs := encodeAll(t, target, benignProg, short, benignProg, benignProg, short)
	progs[2] = progs[2][:len(progs[2])-1] // truncated: the last argument is cut
	results, _, err := s.execBatch(progs, false, 0)
	if err != nil {
		t.Fatal(err)
	}
	if n := frames.Load(); n != 1 {
		t.Fatalf("batch crossed the wire in %d frames, want 1", n)
	}
	if len(results) != len(progs) {
		t.Fatalf("results = %d, want %d", len(results), len(progs))
	}
	wantCalls := []int{3, 2, -1, 3, 2}
	for i, res := range results {
		if wantCalls[i] < 0 {
			if res != nil {
				t.Fatalf("rejected program %d produced a result: %+v", i, res)
			}
			continue
		}
		if res == nil {
			t.Fatalf("program %d dropped", i)
		}
		if len(res.Calls) != wantCalls[i] {
			t.Fatalf("program %d: %d calls, want %d (misaligned results?)",
				i, len(res.Calls), wantCalls[i])
		}
	}
	if _, err := s.roundTrip(rpcRequest{Kind: reqPing}); err != nil {
		t.Fatalf("stream unusable after a rejected program: %v", err)
	}
}

// TestResilientBatchTailRetry severs the broker stream right after it
// answers a batch: the next batch must fail on the dead stream, redial,
// and run in full on the fresh one, and the client's wire accounting and
// the broker's served-frame count must span both streams.
func TestResilientBatchTailRetry(t *testing.T) {
	b, _ := newBrokerRig(t, "A1")
	srv := &Server{X: b}
	var served atomic.Int64 // batch frames answered across all streams
	var dials atomic.Int64
	r, err := NewResilient(func() (io.ReadWriteCloser, error) {
		host, dev := net.Pipe()
		first := dials.Add(1) == 1
		go serveHooked(srv, dev, func(req *rpcRequest, _ *rpcReply) bool {
			if req.Kind != reqBatch {
				return true
			}
			// Count the frame before replying: once the client has the
			// last reply, the test reads served.
			served.Add(1)
			return !first // the first stream dies after its first batch
		})
		return host, nil
	}, ResilientOptions{
		CallTimeout: 2 * time.Second,
		MaxAttempts: 2,
		BackoffBase: time.Millisecond,
		BackoffMax:  5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	progs := parseAll(t, r.Target(), benignProg, benignProg, benignProg, benignProg, benignProg)
	for batch := 0; batch < 2; batch++ {
		results, err := r.ExecBatch(ExecBatchRequest{Progs: progs})
		if err != nil {
			t.Fatalf("batch %d did not survive the severed stream: %v", batch, err)
		}
		if len(results) != len(progs) {
			t.Fatalf("batch %d: results = %d, want %d", batch, len(results), len(progs))
		}
		for i, res := range results {
			if res == nil || len(res.Calls) != 3 {
				t.Fatalf("batch %d: result %d wrong: %+v", batch, i, res)
			}
		}
	}
	if n := dials.Load(); n != 2 {
		t.Fatalf("dials = %d, want 2 (one redial)", n)
	}
	if w := r.WireStats(); w.Execs != 2*uint64(len(progs)) {
		t.Fatalf("wire stats across the redial = %+v, want Execs=%d", w, 2*len(progs))
	}
	if n := served.Load(); n != 2 {
		t.Fatalf("broker served %d batch frames, want 2 (one per stream)", n)
	}
}

// TestBrokerExecBatchInProcess exercises the in-process BatchExecutor
// implementation the engine falls back to without a transport: an
// injected fault fails its program alone.
func TestBrokerExecBatchInProcess(t *testing.T) {
	b, target := newBrokerRig(t, "A1")
	b.FailNext(1)
	results, err := b.ExecBatch(ExecBatchRequest{Progs: parseAll(t, target, benignProg, benignProg, benignProg)})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 3 || results[0] != nil || results[1] == nil || results[2] == nil {
		t.Fatalf("in-process batch misaligned: %v", results)
	}
	if len(results[1].KernelCov) == 0 {
		t.Fatal("in-process batch lost coverage")
	}
}

// serveHooked serves srv on rw like Server.Serve, except that hook sees
// every request with its reply before the reply is sent: it may rewrite
// the reply, and returning false ends the stream after the reply.
func serveHooked(srv *Server, rw io.ReadWriteCloser, hook func(req *rpcRequest, rep *rpcReply) bool) {
	defer rw.Close()
	c := NewFrameConn(rw)
	st := srv.newConnState()
	for {
		var req rpcRequest
		if c.Read(&req) != nil {
			return
		}
		rep := srv.handle(&req, st)
		more := hook(&req, &rep)
		if srv.reply(c, &rep) != nil || !more {
			return
		}
	}
}

// wedge answers the first n requests on rw through srv and then reads
// every later request without replying, like a broker stuck mid-execution.
// Each unanswered request is announced on seen (buffered; a full buffer
// drops the announcement).
func wedge(srv *Server, rw io.ReadWriteCloser, n int, seen chan<- struct{}) {
	defer rw.Close()
	c := NewFrameConn(rw)
	st := &connState{}
	for i := 0; ; i++ {
		var req rpcRequest
		if c.Read(&req) != nil {
			return
		}
		if i >= n {
			select {
			case seen <- struct{}{}:
			default:
			}
			continue
		}
		rep := srv.handle(&req, st)
		if srv.reply(c, &rep) != nil {
			return
		}
	}
}

// miscountFirstBatch is a serveHooked hook whose reply to the first batch
// frame carries skew more (or fewer) results than the frame had programs.
func miscountFirstBatch(skew int) func(req *rpcRequest, rep *rpcReply) bool {
	done := false
	return func(req *rpcRequest, rep *rpcReply) bool {
		if req.Kind == reqBatch && !done {
			done = true
			b := rep.Batch
			if skew > 0 {
				b.Results = append(b.Results, make([]*ExecResult, skew)...)
				b.Elided = append(b.Elided, make([]bool, skew)...)
			} else {
				for _, res := range b.Results[len(b.Results)+skew:] {
					res.Release()
				}
				b.Results = b.Results[:len(b.Results)+skew]
				b.Elided = b.Elided[:len(b.Elided)+skew]
			}
		}
		return true
	}
}

// TestExecBatchRejectsMiscountedReply answers a batch with more results
// than it carried programs, and then with fewer. The stream must return no
// results and be poisoned with a typed error instead of the extra results
// overrunning the batch or the short reply shifting results onto the
// wrong programs, and Resilient must recover by resubmitting the whole
// batch on a fresh stream.
func TestExecBatchRejectsMiscountedReply(t *testing.T) {
	short := `r0 = open$tcpc(path="/dev/tcpc0")
close$tcpc(fd=r0)
`
	texts := []string{benignProg, short, short, benignProg, short}
	wantCalls := []int{3, 2, 2, 3, 2}
	opts := ResilientOptions{
		CallTimeout: 5 * time.Second,
		MaxAttempts: 1,
		BackoffBase: time.Millisecond,
		BackoffMax:  5 * time.Millisecond,
	}
	for _, skew := range []int{+3, -1} {
		t.Run(fmt.Sprintf("stream/skew%+d", skew), func(t *testing.T) {
			b, target := newBrokerRig(t, "A1")
			host, dev := net.Pipe()
			go serveHooked(&Server{X: b}, dev, miscountFirstBatch(skew))
			s := NewStream(host, opts.CallTimeout)
			defer s.Close()
			results, _, err := s.execBatch(encodeAll(t, target, texts...), false, 0)
			if !errors.Is(err, ErrTransport) {
				t.Fatalf("miscounted reply: err = %v, want ErrTransport", err)
			}
			if results != nil {
				t.Fatalf("miscounted reply returned %d results, want none", len(results))
			}
			if _, err := s.roundTrip(rpcRequest{Kind: reqPing}); !errors.Is(err, ErrTransport) {
				t.Fatalf("stream not poisoned after a miscounted reply: %v", err)
			}
		})
		t.Run(fmt.Sprintf("resilient/skew%+d", skew), func(t *testing.T) {
			b, _ := newBrokerRig(t, "A1")
			srv := &Server{X: b}
			var dials atomic.Int64
			r, err := NewResilient(func() (io.ReadWriteCloser, error) {
				host, dev := net.Pipe()
				if dials.Add(1) == 1 {
					go serveHooked(srv, dev, miscountFirstBatch(skew))
				} else {
					go srv.Serve(dev)
				}
				return host, nil
			}, opts)
			if err != nil {
				t.Fatal(err)
			}
			defer r.Close()
			results, err := r.ExecBatch(ExecBatchRequest{Progs: parseAll(t, r.Target(), texts...)})
			if err != nil {
				t.Fatalf("batch did not survive the redial: %v", err)
			}
			if len(results) != len(texts) {
				t.Fatalf("results = %d, want %d", len(results), len(texts))
			}
			for i, res := range results {
				if res == nil || len(res.Calls) != wantCalls[i] {
					t.Fatalf("result %d misattributed: %+v", i, res)
				}
			}
			if n := dials.Load(); n != 2 {
				t.Fatalf("dials = %d, want 2 (one redial)", n)
			}
			// The miscounted reply's accounting went down with its stream;
			// only the resubmitted batch is counted.
			if w := r.WireStats(); w.Execs != uint64(len(texts)) {
				t.Fatalf("wire stats = %+v, want Execs=%d", w, len(texts))
			}
		})
	}
}

// BenchmarkStreamRoundTrip is the cost of one lock-step exchange over
// net.Pipe: a Ping, and a 16-program summary batch against a broker that
// elides every repeat.
func BenchmarkStreamRoundTrip(b *testing.B) {
	br, target := newBrokerRig(b, "A1")
	srv := &Server{X: br, NewFilter: func() UplinkFilter { return &stubFilter{} }}
	host, dev := net.Pipe()
	go srv.Serve(dev)
	s := NewStream(host, 10*time.Second)
	defer s.Close()

	b.Run("ping", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			if _, err := s.roundTrip(rpcRequest{Kind: reqPing}); err != nil {
				b.Fatal(err)
			}
		}
	})
	texts := make([]string, 16)
	for i := range texts {
		texts[i] = benignProg
	}
	progs := encodeAll(b, target, texts...)
	b.Run("batch16", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			results, _, err := s.execBatch(progs, true, 0)
			if err != nil {
				b.Fatal(err)
			}
			for _, res := range results {
				res.Release()
			}
		}
	})
}
