package adb

import (
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"net"
	"sync/atomic"
	"testing"
	"time"
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

// TestExecBatchSummaryElidesRepeats runs the same program four times in one
// summary-mode batch: the first execution (novel by the filter's account)
// must ship its traces in full, the repeats must arrive elided, and the
// connection's wire accounting must show the savings.
func TestExecBatchSummaryElidesRepeats(t *testing.T) {
	b, _ := newBrokerRig(t, "A1")
	srv := &Server{X: b}
	srv.NewFilter = func() UplinkFilter { return &stubFilter{} }
	r := dialPipe(t, srv, ResilientOptions{CallTimeout: 5 * time.Second})

	progs := []string{benignProg, benignProg, benignProg, benignProg}
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

// TestExecBatchFramingAndRejects plants an unparseable program in the
// middle of a batch: the whole batch must cross the wire as one frame, and
// the results must align index-for-index, with exactly the bad program
// marked nil.
func TestExecBatchFramingAndRejects(t *testing.T) {
	b, _ := newBrokerRig(t, "A1")
	srv := &Server{X: b}
	var frames atomic.Int64
	r, err := NewResilient(func() (io.ReadWriteCloser, error) {
		host, dev := net.Pipe()
		go serveHooked(srv, dev, func(req *rpcRequest, _ *rpcReply) bool {
			if req.Batch != nil {
				frames.Add(1)
			}
			return true
		})
		return host, nil
	}, ResilientOptions{CallTimeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	short := `r0 = open$tcpc(path="/dev/tcpc0")
close$tcpc(fd=r0)
`
	progs := []string{benignProg, short, "this is not a program", benignProg, short}
	results, err := r.ExecBatch(ExecBatchRequest{Progs: progs})
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
			if req.Batch == nil {
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

	progs := []string{benignProg, benignProg, benignProg, benignProg, benignProg}
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
// implementation the engine falls back to without a transport.
func TestBrokerExecBatchInProcess(t *testing.T) {
	b, _ := newBrokerRig(t, "A1")
	results, err := b.ExecBatch(ExecBatchRequest{Progs: []string{benignProg, "garbage", benignProg}})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 3 || results[0] == nil || results[1] != nil || results[2] == nil {
		t.Fatalf("in-process batch misaligned: %v", results)
	}
	if len(results[0].KernelCov) == 0 {
		t.Fatal("in-process batch lost coverage")
	}
}

// serveHooked serves srv on rw like Server.Serve, except that hook sees
// every request with its reply before the reply is sent: it may rewrite
// the reply, and returning false ends the stream after the reply.
func serveHooked(srv *Server, rw io.ReadWriteCloser, hook func(req *rpcRequest, rep *rpcReply) bool) {
	defer rw.Close()
	enc := gob.NewEncoder(rw)
	dec := gob.NewDecoder(rw)
	st := &connState{}
	for {
		req, err := decodeRequest(dec)
		if err != nil {
			return
		}
		rep := srv.handle(req, st)
		rep.Tag = req.Tag
		more := hook(&req, &rep)
		err = enc.Encode(&rep)
		rep.Result.Release()
		if err != nil || !more {
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
	enc := gob.NewEncoder(rw)
	dec := gob.NewDecoder(rw)
	st := &connState{}
	for i := 0; ; i++ {
		req, err := decodeRequest(dec)
		if err != nil {
			return
		}
		if i >= n {
			select {
			case seen <- struct{}{}:
			default:
			}
			continue
		}
		rep := srv.handle(req, st)
		rep.Tag = req.Tag
		if enc.Encode(&rep) != nil {
			return
		}
	}
}

// miscountFirstBatch is a serveHooked hook whose reply to the first batch
// frame carries skew more (or fewer) results than the frame had programs.
func miscountFirstBatch(skew int) func(req *rpcRequest, rep *rpcReply) bool {
	done := false
	return func(req *rpcRequest, rep *rpcReply) bool {
		if req.Batch != nil && !done {
			done = true
			res := rep.Batch.Results
			if skew > 0 {
				res = append(res, make([]WireResult, skew)...)
			} else {
				res = res[:len(res)+skew]
			}
			rep.Batch.Results = res
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
	progs := []string{benignProg, short, short, benignProg, short}
	wantCalls := []int{3, 2, 2, 3, 2}
	opts := ResilientOptions{
		CallTimeout: 5 * time.Second,
		MaxAttempts: 1,
		BackoffBase: time.Millisecond,
		BackoffMax:  5 * time.Millisecond,
	}
	for _, skew := range []int{+3, -1} {
		t.Run(fmt.Sprintf("stream/skew%+d", skew), func(t *testing.T) {
			b, _ := newBrokerRig(t, "A1")
			host, dev := net.Pipe()
			go serveHooked(&Server{X: b}, dev, miscountFirstBatch(skew))
			s := NewStream(host, opts.CallTimeout)
			defer s.Close()
			results, err := s.execBatch(ExecBatchRequest{Progs: progs})
			if !errors.Is(err, ErrTransport) {
				t.Fatalf("miscounted reply: err = %v, want ErrTransport", err)
			}
			if results != nil {
				t.Fatalf("miscounted reply returned %d results, want none", len(results))
			}
			if _, err := s.roundTrip(rpcRequest{Ping: true}); !errors.Is(err, ErrTransport) {
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
			results, err := r.ExecBatch(ExecBatchRequest{Progs: progs})
			if err != nil {
				t.Fatalf("batch did not survive the redial: %v", err)
			}
			if len(results) != len(progs) {
				t.Fatalf("results = %d, want %d", len(results), len(progs))
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
			if w := r.WireStats(); w.Execs != uint64(len(progs)) {
				t.Fatalf("wire stats = %+v, want Execs=%d", w, len(progs))
			}
		})
	}
}

// BenchmarkStreamRoundTrip is the cost of one lock-step exchange over
// net.Pipe: a Ping, and a 16-program summary batch against a broker that
// elides every repeat.
func BenchmarkStreamRoundTrip(b *testing.B) {
	br, _ := newBrokerRig(b, "A1")
	srv := &Server{X: br, NewFilter: func() UplinkFilter { return &stubFilter{} }}
	host, dev := net.Pipe()
	go srv.Serve(dev)
	s := NewStream(host, 10*time.Second)
	defer s.Close()

	b.Run("ping", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			if _, err := s.roundTrip(rpcRequest{Ping: true}); err != nil {
				b.Fatal(err)
			}
		}
	})
	progs := make([]string, 16)
	for i := range progs {
		progs[i] = benignProg
	}
	b.Run("batch16", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			results, err := s.execBatch(ExecBatchRequest{Progs: progs, Summary: true})
			if err != nil {
				b.Fatal(err)
			}
			for _, res := range results {
				res.Release()
			}
		}
	})
}
