package adb

import (
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestRepliesMatchedByTagOutOfOrder drives the multiplexed core against a
// hand-rolled server that answers two in-flight requests in reverse order:
// each caller must still receive its own result, matched by sequence tag
// rather than reply order.
func TestRepliesMatchedByTagOutOfOrder(t *testing.T) {
	host, dev := net.Pipe()
	c := newConn(host, ResilientOptions{Window: 2, CallTimeout: 5 * time.Second})

	// Server: collect both requests, then reply last-received first. The
	// reply payload encodes which program the request carried, so the client
	// side can detect a mismatched delivery.
	go func() {
		enc := gob.NewEncoder(dev)
		dec := gob.NewDecoder(dev)
		var reqs []rpcRequest
		for len(reqs) < 2 {
			var req rpcRequest
			if err := dec.Decode(&req); err != nil {
				t.Errorf("server decode: %v", err)
				return
			}
			reqs = append(reqs, req)
		}
		for i := len(reqs) - 1; i >= 0; i-- {
			req := reqs[i]
			var ret uint64
			switch req.Exec.ProgText {
			case "prog-one":
				ret = 111
			case "prog-two":
				ret = 222
			}
			rep := rpcReply{Tag: req.Tag, Result: &ExecResult{
				Calls: []CallResult{{Executed: true, Errno: "OK", Ret: ret}},
			}}
			if err := enc.Encode(&rep); err != nil {
				t.Errorf("server encode: %v", err)
				return
			}
		}
	}()

	want := map[string]uint64{"prog-one": 111, "prog-two": 222}
	var wg sync.WaitGroup
	for text, ret := range want {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rep, err := c.roundTrip(rpcRequest{Exec: &ExecRequest{ProgText: text}})
			if err != nil {
				t.Errorf("%s: %v", text, err)
				return
			}
			if got := rep.Result.Calls[0].Ret; got != ret {
				t.Errorf("%s: got reply for Ret=%d, want %d (reply crossed tags)", text, got, ret)
			}
		}()
	}
	wg.Wait()
	c.close()
	dev.Close()
}

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

// TestExecBatchFramingAndRejects splits a batch across several wire frames
// and plants an unparseable program in the middle: results must align
// index-for-index, with exactly the bad program marked nil.
func TestExecBatchFramingAndRejects(t *testing.T) {
	b, _ := newBrokerRig(t, "A1")
	// 5 programs -> 3 frames through the window.
	r := dialPipe(t, &Server{X: b}, ResilientOptions{CallTimeout: 5 * time.Second, BatchFrame: 2})

	short := `r0 = open$tcpc(path="/dev/tcpc0")
close$tcpc(fd=r0)
`
	progs := []string{benignProg, short, "this is not a program", benignProg, short}
	results, err := r.ExecBatch(ExecBatchRequest{Progs: progs})
	if err != nil {
		t.Fatal(err)
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
			t.Fatalf("program %d: %d calls, want %d (frame misalignment?)",
				i, len(res.Calls), wantCalls[i])
		}
	}
}

// TestResilientBatchTailRetry kills the broker connection right after it
// acknowledges the first frame of a batch: the resilient client must
// resubmit only the unacknowledged tail on the fresh connection, and its
// wire accounting must accumulate across both connections.
func TestResilientBatchTailRetry(t *testing.T) {
	b, _ := newBrokerRig(t, "A1")
	srv := &Server{X: b}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	var served atomic.Int64 // batch frames handled across all connections
	var kill atomic.Bool    // first connection dies after its first frame
	kill.Store(true)
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer c.Close()
				enc := gob.NewEncoder(c)
				dec := gob.NewDecoder(c)
				st := &connState{}
				for {
					req, err := decodeRequest(dec)
					if err != nil {
						return
					}
					rep := srv.handle(req, st)
					rep.Tag = req.Tag
					// Count the frame before replying: once the client
					// has the last reply, the test reads served.
					if req.Batch != nil {
						served.Add(1)
					}
					err = enc.Encode(&rep)
					rep.Result.Release()
					if err != nil {
						return
					}
					if req.Batch != nil && kill.Swap(false) {
						return // sever the stream mid-batch
					}
				}
			}()
		}
	}()

	r, err := DialResilient(ln.Addr().String(), ResilientOptions{
		DialTimeout: time.Second,
		CallTimeout: 2 * time.Second,
		MaxAttempts: 2,
		BackoffBase: time.Millisecond,
		BackoffMax:  5 * time.Millisecond,
		// Window 1 makes the cut deterministic: frame 1 is acknowledged
		// before frame 2 ever enters the send queue.
		Window:     1,
		BatchFrame: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	progs := []string{benignProg, benignProg, benignProg, benignProg, benignProg}
	results, err := r.ExecBatch(ExecBatchRequest{Progs: progs})
	if err != nil {
		t.Fatalf("batch did not survive the reconnect: %v", err)
	}
	if len(results) != len(progs) {
		t.Fatalf("results = %d, want %d", len(results), len(progs))
	}
	for i, res := range results {
		if res == nil || len(res.Calls) != 3 {
			t.Fatalf("result %d wrong after retry: %+v", i, res)
		}
	}
	// Exactly one frame (2 programs) was acknowledged before the cut, so the
	// retry must have carried 3 programs, not all 5.
	if w := r.WireStats(); w.Execs != uint64(len(progs)) {
		t.Fatalf("wire stats across reconnect = %+v, want Execs=%d (tail-only retry)", w, len(progs))
	}
	if n := served.Load(); n != 1+2 {
		t.Fatalf("broker served %d frames, want 3 (1 before the cut, 2 after)", n)
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

// TestWindowFullSubmittersUnblockOnPoison fills the window against a server
// that never answers, then breaks the stream: every waiter — including ones
// still blocked acquiring a window slot — must fail fast with ErrTransport.
func TestWindowFullSubmittersUnblockOnPoison(t *testing.T) {
	host, dev := net.Pipe()
	c := newConn(host, ResilientOptions{Window: 1})

	// Swallow the requests without ever replying.
	go func() {
		dec := gob.NewDecoder(dev)
		for {
			var req rpcRequest
			if dec.Decode(&req) != nil {
				return
			}
		}
	}()

	errs := make(chan error, 3)
	for i := 0; i < 3; i++ {
		go func() {
			_, err := c.roundTrip(rpcRequest{Ping: true})
			errs <- err
		}()
	}
	time.Sleep(20 * time.Millisecond) // let one occupy the slot, two queue behind it
	c.fail(errors.New("adb: transport failure (injected)"))
	for i := 0; i < 3; i++ {
		select {
		case err := <-errs:
			if err == nil {
				t.Fatal("call succeeded on a poisoned connection")
			}
		case <-time.After(2 * time.Second):
			t.Fatal("caller still blocked after poison")
		}
	}
	dev.Close()
}

// serveMiscounting serves srv on dev like Server.Serve, except that the
// reply to the second batch frame carries skew more (or fewer) results
// than the frame had programs.
func serveMiscounting(srv *Server, dev net.Conn, skew int) {
	defer dev.Close()
	enc := gob.NewEncoder(dev)
	dec := gob.NewDecoder(dev)
	st := &connState{}
	frames := 0
	for {
		req, err := decodeRequest(dec)
		if err != nil {
			return
		}
		rep := srv.handle(req, st)
		rep.Tag = req.Tag
		if req.Batch != nil {
			if frames++; frames == 2 {
				res := rep.Batch.Results
				if skew > 0 {
					res = append(res, make([]WireResult, skew)...)
				} else {
					res = res[:len(res)+skew]
				}
				rep.Batch.Results = res
			}
		}
		if enc.Encode(&rep) != nil {
			return
		}
	}
}

// TestExecBatchRejectsMiscountedReply answers one frame of a batch with
// more results than the frame carried programs, and then with fewer. The
// stream must be poisoned with a typed error instead of the extra results
// overrunning the batch or the short reply shifting results onto the wrong
// programs, and Resilient must recover by resubmitting only the
// unacknowledged tail on a fresh connection.
func TestExecBatchRejectsMiscountedReply(t *testing.T) {
	short := `r0 = open$tcpc(path="/dev/tcpc0")
close$tcpc(fd=r0)
`
	progs := []string{benignProg, short, short, benignProg, short}
	wantCalls := []int{3, 2, 2, 3, 2}
	checkAligned := func(t *testing.T, results []*ExecResult) {
		t.Helper()
		for i, res := range results {
			if res == nil || len(res.Calls) != wantCalls[i] {
				t.Fatalf("result %d misattributed: %+v", i, res)
			}
		}
	}
	// Window 1 makes the cut deterministic: frame 2 is sent only after
	// frame 1 is acknowledged.
	opts := ResilientOptions{
		CallTimeout: 5 * time.Second,
		MaxAttempts: 1,
		BackoffBase: time.Millisecond,
		BackoffMax:  5 * time.Millisecond,
		Window:      1,
		BatchFrame:  2,
	}
	for _, skew := range []int{+3, -1} {
		t.Run(fmt.Sprintf("stream/skew%+d", skew), func(t *testing.T) {
			b, _ := newBrokerRig(t, "A1")
			host, dev := net.Pipe()
			go serveMiscounting(&Server{X: b}, dev, skew)
			c := newConn(host, opts)
			defer c.close()
			results, err := c.execBatch(ExecBatchRequest{Progs: progs})
			if !errors.Is(err, ErrTransport) {
				t.Fatalf("miscounted reply: err = %v, want ErrTransport", err)
			}
			if len(results) != 2 {
				t.Fatalf("results = %d, want the 2 of the acknowledged frame", len(results))
			}
			checkAligned(t, results)
			if _, err := c.roundTrip(rpcRequest{Ping: true}); !errors.Is(err, ErrTransport) {
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
					go serveMiscounting(srv, dev, skew)
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
				t.Fatalf("batch did not survive the reconnect: %v", err)
			}
			if len(results) != len(progs) {
				t.Fatalf("results = %d, want %d", len(results), len(progs))
			}
			checkAligned(t, results)
			if n := dials.Load(); n != 2 {
				t.Fatalf("dials = %d, want 2 (one reconnect)", n)
			}
			// Frame 1 was acknowledged on the first stream, so the retry
			// carried the 3 programs of the tail, not all 5.
			if w := r.WireStats(); w.Execs != uint64(len(progs)) {
				t.Fatalf("wire stats = %+v, want Execs=%d (tail-only retry)", w, len(progs))
			}
		})
	}
}
