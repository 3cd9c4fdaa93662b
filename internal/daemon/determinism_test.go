package daemon

import (
	"io"
	"net"
	"sort"
	"testing"

	"droidfuzz/internal/adb"
	"droidfuzz/internal/baseline"
	"droidfuzz/internal/crash"
	"droidfuzz/internal/device"
	"droidfuzz/internal/dsl"
	"droidfuzz/internal/engine"
	"droidfuzz/internal/feedback"
	"droidfuzz/internal/probe"
	"droidfuzz/internal/relation"
)

// goldenRun pins the serial determinism contract across hot-path rewrites:
// the stats below were recorded from the pre-pooling, map-based feedback
// implementation (PR 1 seed state) with exactly these seeds and iteration
// counts. Any drift in coverage counts, execution totals, or corpus growth
// means the rewrite changed the campaign trajectory — the acceptance bar is
// bit-identical replay, not "roughly the same coverage".
var goldenRun = []struct {
	model string
	seed  int64

	execs       uint64
	kernelCov   int
	totalSignal int
	newSignal   uint64
	corpusSize  int
	crashes     int
}{
	{"A1", 101, 1490, 398, 592, 166, 150, 0},
	{"B", 202, 1328, 303, 421, 151, 139, 4},
	{"D", 303, 1390, 345, 508, 160, 144, 0},
}

const goldenIters = 400

// TestSerialRunMatchesGoldenStats replays the recorded campaigns serially
// and compares every counter against the pre-rewrite values.
func TestSerialRunMatchesGoldenStats(t *testing.T) {
	d := New()
	for _, g := range goldenRun {
		if err := d.AddDevice(g.model, engine.Config{Seed: g.seed}); err != nil {
			t.Fatal(err)
		}
	}
	d.Run(goldenIters, false)
	for _, g := range goldenRun {
		st := d.Engine(g.model).Stats()
		if st.Execs != g.execs || st.KernelCov != g.kernelCov ||
			st.TotalSignal != g.totalSignal || st.NewSignal != g.newSignal ||
			st.CorpusSize != g.corpusSize || st.Crashes != g.crashes {
			t.Errorf("%s diverged from golden:\n got  %+v\n want execs=%d kernel=%d total=%d new=%d corpus=%d crashes=%d",
				g.model, st, g.execs, g.kernelCov, g.totalSignal, g.newSignal, g.corpusSize, g.crashes)
		}
		if st.ExecErrors != 0 {
			t.Errorf("%s: unexpected exec errors: %d", g.model, st.ExecErrors)
		}
	}
}

// TestSerialRemoteEngineMatchesInProcess is the transport half of the
// determinism contract: a serial engine driving a broker over the frame
// transport (net.Pipe, programs crossing the wire in the exec encoding,
// target rebuilt from the Describe handshake) must produce bit-identical
// campaign stats and crash titles to the in-process engine for the same
// seed. Any divergence means the program round trip or the handshake
// target reconstruction is lossy. The second case serves the way droidbrokerd
// does, with a per-connection uplink filter: the filter observes every
// singleton execution but must never elide one.
func TestSerialRemoteEngineMatchesInProcess(t *testing.T) {
	const (
		modelID = "B" // carries shallow bugs, so crash paths are exercised
		seed    = 404
		iters   = 300
	)

	// In-process reference: the standard attach sequence.
	model, err := device.ModelByID(modelID)
	if err != nil {
		t.Fatal(err)
	}
	local, err := baseline.NewDroidFuzz(device.New(model), relation.New(), crash.NewDedup(), engine.Config{Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	local.Run(iters)

	for _, tc := range []struct {
		name   string
		filter bool
	}{{"plain", false}, {"uplink_filter", true}} {
		t.Run(tc.name, func(t *testing.T) {
			// Remote twin: an identical device probed identically, served
			// over a net.Pipe transport; the host engine learns the target
			// and seeds exclusively from the handshake.
			dev := device.New(model)
			target, pr, err := probe.Target(dev, probe.Options{})
			if err != nil {
				t.Fatal(err)
			}
			seedTexts := make([]string, len(pr.Seeds))
			for i, p := range pr.Seeds {
				seedTexts[i] = p.String()
			}
			srv := &adb.Server{X: adb.NewBroker(dev, target), Seeds: seedTexts}
			if tc.filter {
				srv.NewFilter = func() adb.UplinkFilter { return feedback.NewUplinkFilter(target) }
			}
			r, err := adb.NewResilient(func() (io.ReadWriteCloser, error) {
				host, devSide := net.Pipe()
				go srv.Serve(devSide)
				return host, nil
			}, adb.ResilientOptions{})
			if err != nil {
				t.Fatal(err)
			}
			defer r.Close()

			seeds := make([]*dsl.Prog, len(r.Seeds()))
			for i, text := range r.Seeds() {
				if seeds[i], err = dsl.ParseProg(r.Target(), text); err != nil {
					t.Fatalf("handshake seed %d: %v", i, err)
				}
			}
			remote := engine.New(r, relation.New(), crash.NewDedup(), engine.Config{Seed: seed})
			remote.SeedCorpus(seeds)
			remote.Run(iters)

			if ls, rs := local.Stats(), remote.Stats(); ls != rs {
				t.Errorf("remote campaign diverged from in-process:\n local  %+v\n remote %+v", ls, rs)
			}
			if lt, rt := dedupTitles(local.Dedup()), dedupTitles(remote.Dedup()); !equalStrings(lt, rt) {
				t.Errorf("crash titles diverged:\n local  %v\n remote %v", lt, rt)
			}
		})
	}
}

func dedupTitles(d *crash.Dedup) []string {
	var out []string
	for _, r := range d.Records() {
		out = append(out, r.Title)
	}
	sort.Strings(out)
	return out
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestSerialRunReplaysItself runs the same serial campaign twice in one
// process and asserts bit-identical stats — the within-binary half of the
// determinism contract (the golden test covers the across-rewrite half).
func TestSerialRunReplaysItself(t *testing.T) {
	run := func() map[string]engine.Stats {
		d := New()
		for _, id := range []string{"A2", "C1"} {
			if err := d.AddDevice(id, engine.Config{Seed: 77}); err != nil {
				t.Fatal(err)
			}
		}
		d.Run(250, false)
		return d.Stats()
	}
	a, b := run(), run()
	for id, st := range a {
		if st != b[id] {
			t.Fatalf("%s: serial replay diverged:\n run1 %+v\n run2 %+v", id, st, b[id])
		}
	}
}
