package daemon

import (
	"fmt"
	"net"
	"testing"
	"time"

	"droidfuzz/internal/adb"
	"droidfuzz/internal/device"
	"droidfuzz/internal/dsl"
	"droidfuzz/internal/engine"
	"droidfuzz/internal/feedback"
)

// serveBrokerTCP boots a device, serves its broker on loopback, and
// returns the address plus the listener for mid-campaign teardown.
func serveBrokerTCP(t *testing.T, modelID string) (string, net.Listener) {
	t.Helper()
	model, err := device.ModelByID(modelID)
	if err != nil {
		t.Fatal(err)
	}
	dev := device.New(model)
	target, err := dsl.NewTarget(dev.SyscallDescs()...)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go (&adb.Server{X: adb.NewBroker(dev, target)}).ServeTCP(ln)
	t.Cleanup(func() { ln.Close() })
	return ln.Addr().String(), ln
}

func fastResilient(t *testing.T, addr string) *adb.Resilient {
	t.Helper()
	r, err := adb.DialResilient(addr, adb.ResilientOptions{
		DialTimeout: time.Second,
		CallTimeout: 2 * time.Second,
		MaxAttempts: 1,
		BackoffBase: 5 * time.Millisecond,
		BackoffMax:  50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestFleetSurvivesDeadRemoteBroker wires two remote engines through
// AttachExecutor and kills one broker: the orphaned engine must degrade
// into ExecErrors while the fleet — including the healthy engine — runs
// its full campaign.
func TestFleetSurvivesDeadRemoteBroker(t *testing.T) {
	addrA, _ := serveBrokerTCP(t, "A1")
	addrB, lnB := serveBrokerTCP(t, "B")

	d := New()
	rA := fastResilient(t, addrA)
	rB := fastResilient(t, addrB)
	if err := d.AttachExecutor("A1", rA, nil, engine.Config{Seed: 1}); err != nil {
		t.Fatal(err)
	}
	if err := d.AttachExecutor("B", rB, nil, engine.Config{Seed: 2}); err != nil {
		t.Fatal(err)
	}

	// First slice: both brokers alive.
	d.Run(30, true)
	st := d.Stats()
	if st["A1"].ExecErrors != 0 || st["B"].ExecErrors != 0 {
		t.Fatalf("healthy fleet reported errors: %+v", st)
	}

	// Kill broker B between campaign slices: listener down, live stream
	// severed. The fleet's second slice must still complete.
	lnB.Close()
	rB.Close()
	d.Run(50, true)

	st = d.Stats()
	if got := st["A1"]; got.Execs < 80 || got.ExecErrors != 0 {
		t.Fatalf("healthy engine disturbed by dead peer: %+v", got)
	}
	b := st["B"]
	if b.Execs < 80 {
		t.Fatalf("orphaned engine stalled instead of degrading: %+v", b)
	}
	if b.ExecErrors == 0 {
		t.Fatalf("dead broker produced no ExecErrors: %+v", b)
	}

	// The daemon's status feed aggregates the degradation fleet-wide.
	var total uint64
	for _, s := range st {
		total += s.ExecErrors
	}
	if total != b.ExecErrors {
		t.Fatalf("fleet error aggregation wrong: total %d, engine %d", total, b.ExecErrors)
	}
}

// TestAttachExecutorRejectsUnboundAndDuplicate covers the attach guard
// rails: an executor with no handshake-bound target and a duplicate id.
func TestAttachExecutorRejectsUnboundAndDuplicate(t *testing.T) {
	addr, _ := serveBrokerTCP(t, "A1")
	d := New()
	// A broker built without a target has none to bind.
	model, err := device.ModelByID("A1")
	if err != nil {
		t.Fatal(err)
	}
	if err := d.AttachExecutor("X", adb.NewBroker(device.New(model), nil), nil, engine.Config{Seed: 1}); err == nil {
		t.Fatal("unbound executor attached")
	}
	r := fastResilient(t, addr)
	if err := d.AttachExecutor("A1", r, nil, engine.Config{Seed: 1}); err != nil {
		t.Fatal(err)
	}
	r2 := fastResilient(t, addr)
	if err := d.AttachExecutor("A1", r2, nil, engine.Config{Seed: 2}); err == nil {
		t.Fatal("duplicate id attached")
	}
}

// TestBatchedRemoteCampaignSavesUplinkBytes runs a batched remote campaign
// end to end: a broker served with a per-connection uplink filter, a
// resilient client that ships each batch as one frame, and a daemon
// driving the engine with batched execution. Most executions past warmup
// carry no new signal, so the summary uplink must elide traces and the wire
// accounting must show real byte savings over the flat encoding. The
// batch-only case (no pipeline depth) must engage batching too: a batch is
// its own look-ahead.
func TestBatchedRemoteCampaignSavesUplinkBytes(t *testing.T) {
	for _, tc := range []struct{ depth, batch int }{{4, 16}, {0, 16}} {
		t.Run(fmt.Sprintf("depth%d_batch%d", tc.depth, tc.batch), func(t *testing.T) {
			runBatchedRemoteCampaign(t, tc.depth, tc.batch)
		})
	}
}

func runBatchedRemoteCampaign(t *testing.T, depth, batch int) {
	model, err := device.ModelByID("A1")
	if err != nil {
		t.Fatal(err)
	}
	dev := device.New(model)
	target, err := dsl.NewTarget(dev.SyscallDescs()...)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	srv := &adb.Server{X: adb.NewBroker(dev, target)}
	srv.NewFilter = func() adb.UplinkFilter { return feedback.NewUplinkFilter(target) }
	go srv.ServeTCP(ln)

	r, err := adb.DialResilient(ln.Addr().String(), adb.ResilientOptions{
		DialTimeout: time.Second,
		CallTimeout: 5 * time.Second,
		MaxAttempts: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	d := New()
	if err := d.AttachExecutor("A1", r, nil, engine.Config{Seed: 3}); err != nil {
		t.Fatal(err)
	}
	d.SetPipelineDepth(depth)
	d.SetBatchSize(batch)
	d.Run(400, true)

	st := d.Stats()["A1"]
	if st.Execs < 400 {
		t.Fatalf("execs = %d, want >= 400", st.Execs)
	}
	if st.Generated+st.Mutated != 400 {
		t.Fatalf("generated+mutated = %d, want the full budget of 400", st.Generated+st.Mutated)
	}
	if st.ExecErrors != 0 {
		t.Fatalf("batched campaign produced exec errors: %+v", st)
	}
	if st.KernelCov == 0 || st.CorpusSize == 0 {
		t.Fatalf("batched remote campaign made no progress: %+v", st)
	}

	w := r.WireStats()
	if w.Execs == 0 {
		t.Fatal("no batched executions crossed the wire (batch mode not engaged)")
	}
	if w.Elided == 0 {
		t.Fatalf("summary uplink elided nothing over %d execs: %+v", w.Execs, w)
	}
	if w.Saved() == 0 || w.CovWireBytes >= w.CovRawBytes {
		t.Fatalf("uplink shipped no fewer bytes than flat encoding: %+v", w)
	}
}
