package engine_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"
	"testing"

	"droidfuzz/internal/adb"
	"droidfuzz/internal/crash"
	"droidfuzz/internal/device"
	"droidfuzz/internal/dsl"
	"droidfuzz/internal/engine"
	"droidfuzz/internal/probe"
	"droidfuzz/internal/relation"
)

// newBroker boots a device model, probes its HALs, and wires a broker.
func newBroker(t testing.TB, modelID string) *adb.Broker {
	t.Helper()
	model, err := device.ModelByID(modelID)
	if err != nil {
		t.Fatalf("model %s: %v", modelID, err)
	}
	dev := device.New(model)
	target, _, err := probe.Target(dev, probe.Options{})
	if err != nil {
		t.Fatalf("probe: %v", err)
	}
	return adb.NewBroker(dev, target)
}

// newEngine boots a device model, probes its HALs, and wires a fresh engine.
func newEngine(t testing.TB, modelID string, cfg engine.Config) *engine.Engine {
	t.Helper()
	return engine.New(newBroker(t, modelID), relation.New(), crash.NewDedup(), cfg)
}

func TestEngineSmoke(t *testing.T) {
	e := newEngine(t, "A1", engine.Config{Seed: 1})
	e.Run(300)
	st := e.Stats()
	if st.Execs < 300 {
		t.Fatalf("execs = %d, want >= 300", st.Execs)
	}
	if st.KernelCov == 0 {
		t.Fatal("no kernel coverage collected")
	}
	if st.CorpusSize == 0 {
		t.Fatal("corpus stayed empty")
	}
	t.Logf("stats: %+v", st)
	t.Logf("graph: %v", e.Graph())
	for _, r := range e.Dedup().Records() {
		t.Logf("bug: %s (%s, %s)", r.Title, r.Component, r.Type)
	}
}

func TestEngineCoverageGrows(t *testing.T) {
	e := newEngine(t, "A2", engine.Config{Seed: 7})
	e.Run(150)
	early := e.Accumulator().Total()
	e.Run(450)
	late := e.Accumulator().Total()
	if late <= early {
		t.Fatalf("coverage did not grow: early=%d late=%d", early, late)
	}
}

func TestEngineDeterministic(t *testing.T) {
	a := newEngine(t, "B", engine.Config{Seed: 42})
	b := newEngine(t, "B", engine.Config{Seed: 42})
	a.Run(200)
	b.Run(200)
	if a.Accumulator().Total() != b.Accumulator().Total() {
		t.Fatalf("same seed diverged: %d vs %d",
			a.Accumulator().Total(), b.Accumulator().Total())
	}
	if a.Execs() != b.Execs() {
		t.Fatalf("exec counts diverged: %d vs %d", a.Execs(), b.Execs())
	}
}

func TestSeedCorpusBootstrapsAndLearns(t *testing.T) {
	e := newEngine(t, "C1", engine.Config{Seed: 5})
	// NewDroidFuzz is not used here, so seed manually with a parsed
	// workload-like program.
	// (The baseline package covers the probed-seed path; this checks the
	// engine API contract directly.)
	before := e.Corpus().Len()
	target := e.Gen().Target()
	prog, err := dsl.ParseProg(target, `r0 = open$wlan(path="/dev/wlan0")
ioctl$WLAN_SCAN(fd=r0, req=0xa701)
ioctl$WLAN_ASSOC(fd=r0, req=0xa702, bssid=0x42)
`)
	if err != nil {
		t.Fatal(err)
	}
	e.SeedCorpus([]*dsl.Prog{prog})
	if e.Corpus().Len() != before+1 {
		t.Fatal("seed not admitted")
	}
	// Adjacent-pair relations from the seed were learned.
	if e.Graph().EdgeWeight("ioctl$WLAN_SCAN", "ioctl$WLAN_ASSOC") == 0 {
		t.Fatal("seed relations not learned")
	}
}

func TestCrashTriageProducesMinimizedReproducer(t *testing.T) {
	e := newEngine(t, "B", engine.Config{Seed: 6})
	target := e.Gen().Target()
	// A program whose crash (l2cap double disconnect WARN on B) is
	// self-contained, padded with unrelated calls that minimization
	// should strip.
	prog, err := dsl.ParseProg(target, `r0 = open$hci(path="/dev/hci0")
ioctl$HCI_UP(fd=r0, req=0xa201)
r2 = open$l2cap(path="/dev/l2cap0")
ioctl$L2CAP_DISCONNECT(fd=r2, req=0xa302)
read$hci(fd=r0, n=0x10)
`)
	if err != nil {
		t.Fatal(err)
	}
	e.SeedCorpus([]*dsl.Prog{prog})
	recs := e.Dedup().Records()
	if len(recs) != 1 {
		t.Fatalf("records = %d", len(recs))
	}
	r := recs[0]
	if !strings.Contains(r.Title, "l2cap_send_disconn_req") {
		t.Fatalf("title = %q", r.Title)
	}
	if !r.Reproducible {
		t.Fatal("self-contained crash not reproduced")
	}
	if r.Repro.Len() >= prog.Len() {
		t.Fatalf("reproducer not minimized: %d calls", r.Repro.Len())
	}
	// The minimized reproducer must still contain the essential pair.
	txt := r.Repro.String()
	if !strings.Contains(txt, "open$l2cap") || !strings.Contains(txt, "L2CAP_DISCONNECT") {
		t.Fatalf("essential calls stripped:\n%s", txt)
	}
}

func TestEngineHonorsSkipMinimize(t *testing.T) {
	e := newEngine(t, "B", engine.Config{Seed: 8, SkipMinimize: true})
	e.Run(200)
	if e.Corpus().Len() == 0 {
		t.Fatal("no corpus without minimization")
	}
}

// TestEnginePipelinedRun: the look-ahead schedule must complete the full
// iteration budget, make coverage progress, and keep its own books straight
// — without the serial determinism guarantee (generation runs ahead on its
// own RNG).
func TestEnginePipelinedRun(t *testing.T) {
	e := newEngine(t, "A1", engine.Config{Seed: 31})
	e.RunSchedule(300, 4, 1)
	st := e.Stats()
	if st.Execs < 300 {
		t.Fatalf("execs = %d, want >= 300", st.Execs)
	}
	if st.Generated+st.Mutated != 300 {
		t.Fatalf("generated+mutated = %d, want 300", st.Generated+st.Mutated)
	}
	if st.KernelCov == 0 || st.CorpusSize == 0 {
		t.Fatalf("pipelined run made no progress: %+v", st)
	}
}

// TestEngineCountsExecErrors: injected broker faults must show up in stats
// instead of disappearing into empty results.
func TestEngineCountsExecErrors(t *testing.T) {
	e := newEngine(t, "A1", engine.Config{Seed: 12})
	e.Broker().FailNext(3)
	e.Run(50)
	st := e.Stats()
	if st.ExecErrors != 3 {
		t.Fatalf("ExecErrors = %d, want 3", st.ExecErrors)
	}
	if st.Execs < 50 {
		t.Fatalf("faults stalled virtual time: execs = %d", st.Execs)
	}
}

// TestEngineBatchedRun: a batched schedule ships programs to the executor's
// batch extension (the in-process broker here) and must complete the full
// budget with the same bookkeeping guarantees as per-program execution.
func TestEngineBatchedRun(t *testing.T) {
	e := newEngine(t, "A1", engine.Config{Seed: 31})
	e.RunSchedule(300, 4, 8)
	st := e.Stats()
	if st.Execs < 300 {
		t.Fatalf("execs = %d, want >= 300", st.Execs)
	}
	if st.Generated+st.Mutated != 300 {
		t.Fatalf("generated+mutated = %d, want 300", st.Generated+st.Mutated)
	}
	if st.KernelCov == 0 || st.CorpusSize == 0 {
		t.Fatalf("batched run made no progress: %+v", st)
	}
}

// TestEngineBatchedMatchesPipelinedProgress: batching changes framing, not
// feedback — a batched run over the same broker must reach coverage in the
// same ballpark as the per-program pipelined run (it sees the same kind of
// programs through the same accumulator).
func TestEngineBatchedMatchesPipelinedProgress(t *testing.T) {
	a := newEngine(t, "A2", engine.Config{Seed: 9})
	a.RunSchedule(400, 4, 1)
	b := newEngine(t, "A2", engine.Config{Seed: 9})
	b.RunSchedule(400, 4, 16)
	ca, cb := a.Stats().KernelCov, b.Stats().KernelCov
	if cb == 0 {
		t.Fatal("batched run found no coverage")
	}
	// Not bit-identical (batching acks views at different points than
	// per-program pipelining, so the producers see different corpus
	// prefixes), but the same order of magnitude: batching must not
	// starve feedback.
	if cb*3 < ca {
		t.Fatalf("batched coverage %d lags pipelined %d by >3x", cb, ca)
	}
}

// corpusHash fingerprints the full corpus content — every admitted program
// in priority order plus its signal score — and the relation graph's edge
// count. Two replays of the same seed must produce bit-identical corpora,
// not just equal sizes; this is the regression test for the map-order
// teardown bug droidvet's determinism pass caught in the HCI driver
// (reset freed connections in map order, perturbing heap state and
// coverage between replays).
func corpusHash(e *engine.Engine) string {
	h := sha256.New()
	for _, ent := range e.Corpus().Entries() {
		fmt.Fprintf(h, "%d\n%s\n", ent.Signal, ent.Prog.String())
	}
	fmt.Fprintf(h, "graph=%d\n", e.Graph().Len())
	return hex.EncodeToString(h.Sum(nil))
}

// assertSelfReplay runs two same-seed campaigns on one schedule and fails
// unless their corpora and accumulated signal are identical.
func assertSelfReplay(t *testing.T, model string, depth, batch int) {
	t.Helper()
	a := newEngine(t, model, engine.Config{Seed: 99})
	b := newEngine(t, model, engine.Config{Seed: 99})
	a.RunSchedule(400, depth, batch)
	b.RunSchedule(400, depth, batch)
	if ha, hb := corpusHash(a), corpusHash(b); ha != hb {
		t.Fatalf("model %s depth %d batch %d: same-seed replay diverged:\n  run1 %s (%d entries)\n  run2 %s (%d entries)",
			model, depth, batch, ha, a.Corpus().Len(), hb, b.Corpus().Len())
	}
	if a.Accumulator().Total() != b.Accumulator().Total() {
		t.Fatalf("model %s depth %d batch %d: accumulated signal diverged: %d vs %d",
			model, depth, batch, a.Accumulator().Total(), b.Accumulator().Total())
	}
}

// TestEnginePipelinedReproducesItself: a look-ahead schedule trades
// bit-identity with the serial schedule for throughput, but it must
// reproduce *itself* regardless of goroutine scheduling — the producer
// generates against explicit state views handed off at deterministic
// points, never against live shared structures. Two same-seed campaigns
// must yield content-identical corpora; this is the regression test for the
// snapshot rewrite briefly making producer reads race with consumer learns.
func TestEnginePipelinedReproducesItself(t *testing.T) {
	assertSelfReplay(t, "A1", 4, 1)
	assertSelfReplay(t, "B", 7, 1)
}

// TestEngineBatchedReproducesItself: the batched schedule acks the view
// handoff per program inside each batch, so it carries the same
// self-reproducibility guarantee; (depth 0, batch 16) is the batch-only
// schedule, whose look-ahead is the batch itself.
func TestEngineBatchedReproducesItself(t *testing.T) {
	assertSelfReplay(t, "A1", 4, 16)
	assertSelfReplay(t, "A1", 0, 16)
}

// TestEngineSeedReplayIdenticalCorpus replays a fixed seed twice through
// the full serial engine and asserts the corpora are content-identical.
func TestEngineSeedReplayIdenticalCorpus(t *testing.T) {
	for _, model := range []string{"A1", "B"} {
		a := newEngine(t, model, engine.Config{Seed: 1234})
		b := newEngine(t, model, engine.Config{Seed: 1234})
		a.Run(400)
		b.Run(400)
		ha, hb := corpusHash(a), corpusHash(b)
		if ha != hb {
			t.Fatalf("model %s: same-seed replay diverged:\n  run1 %s (%d entries)\n  run2 %s (%d entries)",
				model, ha, a.Corpus().Len(), hb, b.Corpus().Len())
		}
		if a.Accumulator().Total() != b.Accumulator().Total() {
			t.Fatalf("model %s: accumulated signal diverged: %d vs %d",
				model, a.Accumulator().Total(), b.Accumulator().Total())
		}
	}
}

// blindExec records every program it is asked to run and reports an empty
// result, so the engine never admits or learns anything: its state is the
// same before and after a RunSchedule call.
type blindExec struct {
	*adb.Broker
	progs []string
}

func (b *blindExec) ExecProg(p *dsl.Prog) (*adb.ExecResult, error) {
	b.progs = append(b.progs, p.String())
	return adb.GetResult(), nil
}

// ExecBatch records the programs an engine call carries: the resets run on
// the broker, and every program goes through ExecProg.
func (b *blindExec) ExecBatch(req adb.ExecBatchRequest) ([]*adb.ExecResult, error) {
	if _, err := b.Broker.ExecBatch(adb.ExecBatchRequest{Resets: req.Resets, Rebooted: req.Rebooted}); err != nil {
		return nil, err
	}
	out := make([]*adb.ExecResult, len(req.Progs))
	for i, p := range req.Progs {
		out[i], _ = b.ExecProg(p)
	}
	return out, nil
}

// TestProducerStreamCarriesAcrossCalls: the look-ahead producer's RNG
// belongs to the engine, so a second RunSchedule call continues the draw
// stream instead of re-deriving it from the seed. With engine state frozen
// by an executor that reports nothing, a re-derived stream would replay the
// first call's programs exactly.
func TestProducerStreamCarriesAcrossCalls(t *testing.T) {
	x := &blindExec{Broker: newBroker(t, "A1")}
	e := engine.New(x, relation.New(), crash.NewDedup(), engine.Config{Seed: 21})
	const n = 50
	e.RunSchedule(n, 4, 1)
	e.RunSchedule(n, 4, 1)
	if len(x.progs) != 2*n {
		t.Fatalf("executed %d programs, want %d", len(x.progs), 2*n)
	}
	if st := e.Stats(); st.CorpusSize != 0 || e.Graph().Learns() != 0 {
		t.Fatalf("blind executor still grew engine state: %+v", st)
	}
	if strings.Join(x.progs[:n], "\n") == strings.Join(x.progs[n:], "\n") {
		t.Fatal("second RunSchedule replayed the first call's producer stream")
	}
}
