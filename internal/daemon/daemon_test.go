package daemon

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"droidfuzz/internal/corpus"
	"droidfuzz/internal/engine"
	"droidfuzz/internal/relation"
)

func TestDaemonLifecycle(t *testing.T) {
	d := New()
	if err := d.AddDevice("A1", engine.Config{Seed: 1}); err != nil {
		t.Fatal(err)
	}
	if err := d.AddDevice("B", engine.Config{Seed: 2}); err != nil {
		t.Fatal(err)
	}
	if err := d.AddDevice("A1", engine.Config{Seed: 3}); err == nil {
		t.Fatal("duplicate device accepted")
	}
	if err := d.AddDevice("Z9", engine.Config{Seed: 4}); err == nil {
		t.Fatal("unknown device accepted")
	}
	if got := d.Devices(); len(got) != 2 || got[0] != "A1" || got[1] != "B" {
		t.Fatalf("devices = %v", got)
	}
	if d.Engine("A1") == nil || d.Engine("Z9") != nil {
		t.Fatal("engine lookup wrong")
	}

	d.Run(300, false)
	st := d.Stats()
	for id, s := range st {
		if s.Execs == 0 || s.KernelCov == 0 {
			t.Fatalf("%s made no progress: %+v", id, s)
		}
	}
}

func TestDaemonParallelRun(t *testing.T) {
	d := New()
	for _, id := range []string{"A1", "B", "D"} {
		if err := d.AddDevice(id, engine.Config{Seed: 7}); err != nil {
			t.Fatal(err)
		}
	}
	d.Run(300, true)
	for id, s := range d.Stats() {
		if s.Execs == 0 {
			t.Fatalf("%s idle", id)
		}
	}
	// The shared relation table accumulated edges from all engines.
	if d.Graph().Edges() == 0 {
		t.Fatal("shared relation table empty")
	}
}

// TestDaemonBoundedWorkerPool runs more devices than workers: every engine
// must still complete its full iteration budget while sharing the shared
// relation graph and global dedup. Run under -race this also checks the
// pool's handoff.
func TestDaemonBoundedWorkerPool(t *testing.T) {
	d := New()
	models := []string{"A1", "A2", "B", "C1", "D"}
	for i, id := range models {
		if err := d.AddDevice(id, engine.Config{Seed: int64(100 + i)}); err != nil {
			t.Fatal(err)
		}
	}
	d.SetMaxWorkers(2) // 5 devices over 2 workers
	d.Run(150, true)
	for id, s := range d.Stats() {
		if s.Execs < 150 {
			t.Fatalf("%s ran %d execs, want >= 150", id, s.Execs)
		}
	}
	if d.Graph().Edges() == 0 {
		t.Fatal("shared relation table empty")
	}
}

// TestDaemonPipelinedParallelRun drives ≥3 device models concurrently with
// the engines in pipelined (generation-ahead) mode, all sharing one
// relation graph and one dedup collector — the configuration the -race CI
// job exists to keep honest.
func TestDaemonPipelinedParallelRun(t *testing.T) {
	d := New()
	for i, id := range []string{"A1", "B", "C2", "E"} {
		if err := d.AddDevice(id, engine.Config{Seed: int64(50 + i)}); err != nil {
			t.Fatal(err)
		}
	}
	d.SetMaxWorkers(3)
	d.SetPipelineDepth(4)
	d.Run(200, true)
	for id, s := range d.Stats() {
		if s.Execs < 200 {
			t.Fatalf("%s ran %d execs, want >= 200", id, s.Execs)
		}
		if s.KernelCov == 0 {
			t.Fatalf("%s collected no coverage", id)
		}
	}
	if d.Graph().Edges() == 0 {
		t.Fatal("shared relation table empty")
	}
	if d.Dedup() == nil {
		t.Fatal("dedup missing")
	}
}

func TestDaemonSaveCorpora(t *testing.T) {
	d := New()
	if err := d.AddDevice("B", engine.Config{Seed: 5}); err != nil {
		t.Fatal(err)
	}
	d.Run(200, false)
	dir := t.TempDir()
	if err := d.SaveCorpora(dir); err != nil {
		t.Fatal(err)
	}
	matches, _ := filepath.Glob(filepath.Join(dir, "B", "*.prog"))
	if len(matches) == 0 {
		t.Fatal("no corpus files written")
	}
	if _, err := os.Stat(filepath.Join(dir, "B")); err != nil {
		t.Fatal(err)
	}
}

func TestDaemonWriteStatusJSON(t *testing.T) {
	d := New()
	if err := d.AddDevice("B", engine.Config{Seed: 9}); err != nil {
		t.Fatal(err)
	}
	d.Run(200, false)
	var buf bytes.Buffer
	if err := d.WriteStatus(&buf); err != nil {
		t.Fatal(err)
	}
	var rep map[string]any
	if err := json.Unmarshal(buf.Bytes(), &rep); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, buf.String())
	}
	devs, ok := rep["devices"].(map[string]any)
	if !ok || devs["B"] == nil {
		t.Fatalf("devices missing: %s", buf.String())
	}
	if rep["relations"] == nil {
		t.Fatal("relations missing")
	}
}

// TestDaemonStatusSurfacesExecErrors injects transport faults into one
// device's broker and checks the error count reaches both the per-device
// stats and the fleet-wide exec_errors field of the status feed.
func TestDaemonStatusSurfacesExecErrors(t *testing.T) {
	d := New()
	if err := d.AddDevice("B", engine.Config{Seed: 21}); err != nil {
		t.Fatal(err)
	}
	d.Engine("B").Broker().FailNext(5)
	d.Run(100, false)
	st := d.Stats()["B"]
	if st.ExecErrors != 5 {
		t.Fatalf("ExecErrors = %d, want 5", st.ExecErrors)
	}
	var buf bytes.Buffer
	if err := d.WriteStatus(&buf); err != nil {
		t.Fatal(err)
	}
	var rep struct {
		Devices    map[string]engine.Stats `json:"devices"`
		ExecErrors uint64                  `json:"exec_errors"`
	}
	if err := json.Unmarshal(buf.Bytes(), &rep); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if rep.ExecErrors != 5 {
		t.Fatalf("exec_errors = %d, want 5", rep.ExecErrors)
	}
	if rep.Devices["B"].ExecErrors != 5 {
		t.Fatalf("devices.B.ExecErrors = %d, want 5", rep.Devices["B"].ExecErrors)
	}
}

func TestDaemonLoadCorpora(t *testing.T) {
	dir := t.TempDir()
	d := New()
	if err := d.AddDevice("B", engine.Config{Seed: 10}); err != nil {
		t.Fatal(err)
	}
	d.Run(200, false)
	if err := d.SaveCorpora(dir); err != nil {
		t.Fatal(err)
	}
	saved := d.Engine("B").Corpus().Len()

	fresh := New()
	if err := fresh.AddDevice("B", engine.Config{Seed: 11}); err != nil {
		t.Fatal(err)
	}
	counts, err := fresh.LoadCorpora(dir)
	if err != nil {
		t.Fatal(err)
	}
	if counts["B"] == 0 {
		t.Fatalf("nothing loaded (saved %d)", saved)
	}
}

// TestAddDeviceAsAndRunOn attaches two devices of the same model under
// distinct IDs — the coordinator-shard shape AddDevice's model keying
// cannot express — and runs only a subset of the fleet.
func TestAddDeviceAsAndRunOn(t *testing.T) {
	d := New()
	if err := d.AddDeviceAs("h1/s0.0/B", "B", engine.Config{Seed: 1}); err != nil {
		t.Fatal(err)
	}
	if err := d.AddDeviceAs("h1/s0.1/B", "B", engine.Config{Seed: 2}); err != nil {
		t.Fatal(err)
	}
	if err := d.AddDeviceAs("h1/s0.0/B", "B", engine.Config{Seed: 3}); err == nil {
		t.Fatal("duplicate id accepted")
	}
	if err := d.AddDeviceAs("h1/s1.0/Z9", "Z9", engine.Config{}); err == nil {
		t.Fatal("unknown model accepted")
	}
	// Corpus seeding at attach already executes programs, so compare
	// against the post-attach baseline rather than zero.
	before := d.Stats()
	if err := d.RunOn([]string{"h1/s0.0/B"}, 150, true); err != nil {
		t.Fatal(err)
	}
	st := d.Stats()
	if st["h1/s0.0/B"].Execs <= before["h1/s0.0/B"].Execs {
		t.Fatal("selected engine idle")
	}
	if got, was := st["h1/s0.1/B"].Execs, before["h1/s0.1/B"].Execs; got != was {
		t.Fatalf("unselected engine ran %d extra execs", got-was)
	}
	if err := d.RunOn([]string{"nope"}, 10, false); err == nil {
		t.Fatal("RunOn accepted an unknown id")
	}
}

// TestRunOnJournalsLearnLog checks the engine journal as the federation
// export feed: runs journal every learn under the engine's attach ID with
// sequence numbers that continue across RunOn calls, every journaled learn
// has landed in the shared graph when RunOn returns, and replaying the
// journal into a fresh graph with the same vertex set reproduces the shared
// graph's learn count.
func TestRunOnJournalsLearnLog(t *testing.T) {
	const id = "h1/s0.0/A1"
	d := New()
	if err := d.AddDeviceAs(id, "A1", engine.Config{Seed: 5}); err != nil {
		t.Fatal(err)
	}
	eng := d.Engine(id)
	learnedBefore := d.Graph().Learns()
	cursor := len(eng.LearnOps(id, 0))
	for run := 0; run < 2; run++ {
		if err := d.RunOn(nil, 200, true); err != nil {
			t.Fatal(err)
		}
	}
	ops := eng.LearnOps(id, cursor)
	if len(ops) == 0 {
		t.Skip("campaign produced no learns at this budget")
	}
	// The journal records every learn; the graph's learn counter skips
	// self-pairs, so it can only trail the journal.
	learned := d.Graph().Learns() - learnedBefore
	if uint64(len(ops)) < learned {
		t.Fatalf("journal has %d ops but the graph learned %d", len(ops), learned)
	}
	for i, op := range ops {
		if op.Device != id {
			t.Fatalf("journaled op carries device %q", op.Device)
		}
		if op.Seq != uint64(cursor+i) {
			t.Fatalf("op %d has seq %d, want %d: sequence numbers must never reset", i, op.Seq, cursor+i)
		}
	}
	// Replaying the journal into a fresh graph with the same vertex set
	// reproduces the learn count — every op landed, and the skip behavior
	// is deterministic.
	replica := relation.New()
	for _, name := range d.Graph().Names() {
		replica.AddVertex(name, d.Graph().Vertex(name).Weight)
	}
	relation.Replay(replica, ops)
	if replica.Learns() != learned {
		t.Fatalf("replayed graph learned %d, campaign learned %d", replica.Learns(), learned)
	}
}

// TestLookaheadRunReplaysItself: a one-engine parallel run under a
// pipelined, batched schedule lands its learns at executor-call
// boundaries, never on a clock, so fresh daemons with the same seed end
// with the same corpus and relation table.
func TestLookaheadRunReplaysItself(t *testing.T) {
	type outcome struct {
		corpus        uint64
		edges         int
		learns, execs uint64
	}
	run := func() outcome {
		d := New()
		if err := d.AddDevice("A1", engine.Config{Seed: 11}); err != nil {
			t.Fatal(err)
		}
		d.SetPipelineDepth(4)
		d.SetBatchSize(16)
		d.Run(4000, true)
		set := corpus.NewHashSet()
		for _, text := range d.Engine("A1").Corpus().Texts(0) {
			set.Add(corpus.Hash(text))
		}
		return outcome{set.Fingerprint(), d.Graph().Edges(), d.Graph().Learns(), d.Engine("A1").Execs()}
	}
	first := run()
	for i := 0; i < 2; i++ {
		if again := run(); again != first {
			t.Fatalf("repeat %d diverged:\n first %+v\n again %+v", i+1, first, again)
		}
	}
}

// TestWriteStatusFleetBlock checks satellite behavior: UpdateFleet's block
// lands in the status JSON, and a status without one omits the field.
func TestWriteStatusFleetBlock(t *testing.T) {
	d := New()
	if err := d.AddDevice("B", engine.Config{Seed: 9}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := d.WriteStatus(&buf); err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(buf.Bytes(), []byte(`"fleet"`)) {
		t.Fatalf("single-host status carries a fleet block: %s", buf.String())
	}

	d.UpdateFleet(FleetStatus{
		HostID: "h1", ShardEpoch: 3, FedBytesIn: 100, FedBytesOut: 40,
		Steals: 1, CorpusHash: 0xabcd,
		Shards: []ShardStatus{{ID: 2, Model: "B", Devices: 1, Execs: 500, Stolen: true, State: "done"}},
	})
	buf.Reset()
	if err := d.WriteStatus(&buf); err != nil {
		t.Fatal(err)
	}
	var rep struct {
		Fleet *FleetStatus `json:"fleet"`
	}
	if err := json.Unmarshal(buf.Bytes(), &rep); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, buf.String())
	}
	if rep.Fleet == nil || rep.Fleet.HostID != "h1" || rep.Fleet.ShardEpoch != 3 ||
		rep.Fleet.Steals != 1 || rep.Fleet.CorpusHash != 0xabcd {
		t.Fatalf("fleet block wrong: %+v", rep.Fleet)
	}
	if len(rep.Fleet.Shards) != 1 || !rep.Fleet.Shards[0].Stolen || rep.Fleet.Shards[0].State != "done" {
		t.Fatalf("shard summary wrong: %+v", rep.Fleet.Shards)
	}
}
