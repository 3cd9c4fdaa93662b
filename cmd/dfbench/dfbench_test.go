package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"droidfuzz/internal/adb"
	"droidfuzz/internal/device"
	"droidfuzz/internal/dsl"
)

// TestMain lets the test binary serve as the campaign child the parent
// re-executes.
func TestMain(m *testing.M) {
	if js := os.Getenv(childEnv); js != "" {
		os.Exit(childMain(js, os.Stdout))
	}
	os.Exit(m.Run())
}

type benchmarkFile struct {
	Workloads []struct{ Name string }       `json:"workloads"`
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func loadBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

// TestWorkloadsSmoke runs every workload at a test-sized budget, untraced
// and traced, and requires every check to pass and every metric
// BENCHMARK.json declares to be reported with its declared unit.
func TestWorkloadsSmoke(t *testing.T) {
	bf := loadBenchmarkFile(t)
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, dfbench runs %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range bf.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("BENCHMARK.json workload %d is %q, dfbench runs %q", i, w.Name, workloads[i].name)
		}
	}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			want := bf.EndToEnd
			name := w.name
			if traced {
				want, name = bf.PerLayer, w.name+"/traced"
			}
			t.Run(name, func(t *testing.T) {
				s := spec{Workload: w.name, Seed: 1000, Trace: traced, Smoke: true}
				if traced {
					s.SpansDir = t.TempDir()
				}
				res, err := bench(context.Background(), s, 0)
				if err != nil {
					t.Fatal(err)
				}
				if traced {
					checkSpanFile(t, s.SpansDir)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
					t.Fatalf("correct=%v attempted=%d failed=%d failures=%v", res.Correct, res.Attempted, res.Failed, res.Failures)
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("reported %d metrics, BENCHMARK.json declares %d", len(res.Metrics), len(want))
				}
				for _, d := range want {
					m, ok := res.Metrics[d.Name]
					if !ok || m.Unit != d.Unit {
						t.Errorf("metric %s: got %+v (reported %v), want unit %q", d.Name, m, ok, d.Unit)
					}
				}
			})
		}
	}
}

// checkSpanFile requires one span dump with a header and spans.
func checkSpanFile(t *testing.T, dir string) {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "*.tsv"))
	if err != nil || len(files) != 1 {
		t.Fatalf("span files %v (%v), want one", files, err)
	}
	data, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) < 2 || !strings.HasPrefix(lines[0], "device\tseq\t") {
		t.Fatalf("span file %s: %d lines, header %q", files[0], len(lines), lines[0])
	}
}

// TestCommandLine checks flag parsing, then the metric lines, the summary
// line and the result file a run reports.
func TestCommandLine(t *testing.T) {
	out := filepath.Join(t.TempDir(), "result.json")
	o, ok := parseArgs([]string{"--workload", "serial-table2", "--seed", "1000", "--seconds", "0.5", "--trace", "0", "-o", out})
	want := options{spec: spec{Workload: "serial-table2", Seed: 1000}, seconds: 500 * time.Millisecond, out: out}
	if !ok || o != want {
		t.Fatalf("parseArgs = %+v, %v; want %+v", o, ok, want)
	}
	for _, bad := range [][]string{
		{"--workload", "nope", "--trace", "0"},
		{"--workload", "serial-table2", "--trace", "2"},
		{"--workload", "serial-table2", "extra"},
	} {
		if _, ok := parseArgs(bad); ok {
			t.Errorf("parseArgs(%q) accepted", bad)
		}
	}
	if code := benchMain([]string{"--workload", "nope", "--trace", "0"}, io.Discard); code != 2 {
		t.Errorf("unknown workload: exit %d, want 2", code)
	}

	o.Smoke = true
	res, err := bench(context.Background(), o.spec, 0)
	if err != nil {
		t.Fatal(err)
	}
	var stdout bytes.Buffer
	if code := report(res, o.out, &stdout); code != 0 {
		t.Fatalf("exit %d, output:\n%s", code, stdout.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	if len(lines) != len(endToEnd)+1 {
		t.Fatalf("%d output lines, want %d metric lines and a summary", len(lines), len(endToEnd))
	}
	for i, d := range endToEnd {
		f := strings.Fields(lines[i])
		if len(f) != 4 || f[0] != "serial-table2" || f[1] != d.name || f[3] != d.unit {
			t.Errorf("line %q, want serial-table2 %s <value> %s", lines[i], d.name, d.unit)
		}
	}
	var summary map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &summary); err != nil || len(summary) != 4 {
		t.Fatalf("summary line %q: %v", lines[len(lines)-1], err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var file result
	if err := json.Unmarshal(data, &file); err != nil {
		t.Fatal(err)
	}
	w, _ := workloadByName("serial-table2")
	if len(file.Campaigns) != w.fixedCampaigns(false) || len(file.Campaigns[0].Outcome.Bugs) == 0 || file.Campaigns[0].Outcome.Bugs[0].FoundAt == 0 {
		t.Fatalf("result file has %d campaigns, first with bugs %+v", len(file.Campaigns), file.Campaigns[0].Outcome.Bugs)
	}
}

// TestOutcomesIgnoreRunLength requires the outcome counts to come from the
// same seeds however many timing-only campaigns a run has room for, so that
// host speed cannot move them.
func TestOutcomesIgnoreRunLength(t *testing.T) {
	s := spec{Workload: "pristine-lineage", Seed: 1000, Smoke: true}
	t0 := time.Now()
	short, err := bench(context.Background(), s, 0)
	if err != nil {
		t.Fatal(err)
	}
	long, err := bench(context.Background(), s, 2*time.Since(t0))
	if err != nil {
		t.Fatal(err)
	}
	if len(long.Campaigns) <= len(short.Campaigns) {
		t.Fatalf("runs made %d and %d campaigns, want the longer run to make more", len(short.Campaigns), len(long.Campaigns))
	}
	if !short.Correct || !long.Correct {
		t.Fatalf("failures: %v / %v", short.Failures, long.Failures)
	}
	for _, name := range []string{"kernel_cov", "hal_signal", "bugs_found"} {
		if a, b := short.Metrics[name], long.Metrics[name]; a != b {
			t.Errorf("%s: %v over %d campaigns, %v over %d", name, a.Value, len(short.Campaigns), b.Value, len(long.Campaigns))
		}
	}
}

// TestUntracedRunChecksDeterminism requires even the shortest untraced run
// of a deterministic workload to repeat a seed, and a repeat that diverges
// to fail the run.
func TestUntracedRunChecksDeterminism(t *testing.T) {
	w, _ := workloadByName("pristine-lineage")
	res, err := bench(context.Background(), spec{Workload: w.name, Seed: 1000, Smoke: true}, 0)
	if err != nil {
		t.Fatal(err)
	}
	last := res.Campaigns[len(res.Campaigns)-1]
	if !res.Correct || last.Seed != res.Campaigns[0].Seed {
		t.Fatalf("correct=%v seeds of the campaigns: first %d, last %d", res.Correct, res.Campaigns[0].Seed, last.Seed)
	}
	last.Outcome.KernelCov++
	if again := aggregate(w, spec{Workload: w.name, Seed: 1000}, res.Campaigns); again.Correct {
		t.Fatal("a diverging repeat passed the determinism check")
	}
}

// TestInjectedExecErrorsFailTheRun arms the broker's fault injection and
// requires the failed executions to be counted and the run to fail.
func TestInjectedExecErrorsFailTheRun(t *testing.T) {
	res, err := bench(context.Background(), spec{Workload: "serial-table2", Seed: 1000, Smoke: true, FailNext: 3}, 0)
	if err != nil {
		t.Fatal(err)
	}
	w, _ := workloadByName("serial-table2")
	if want := uint64(3 * w.fixedCampaigns(false)); res.Correct || res.Failed != want {
		t.Fatalf("correct=%v failed=%d, want false and %d", res.Correct, res.Failed, want)
	}
	var out bytes.Buffer
	res.print(&out)
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var summary struct {
		Correct           bool
		Attempted, Failed uint64
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &summary); err != nil {
		t.Fatal(err)
	}
	if summary.Correct || summary.Failed != res.Failed || summary.Attempted == 0 {
		t.Fatalf("summary line %s", lines[len(lines)-1])
	}
}

type execOnly struct{ adb.Executor }

type batchOnly struct {
	adb.Executor
	adb.BatchExecutor
}

type clonerOnly struct {
	adb.Executor
	adb.Cloner
}

// TestWrapKeepsOptionalInterfaces requires the span wrapper to implement
// exactly the optional interfaces of the executor it wraps, so engines and
// transport servers take the same paths traced and untraced.
func TestWrapKeepsOptionalInterfaces(t *testing.T) {
	model, err := device.ModelByID("A1")
	if err != nil {
		t.Fatal(err)
	}
	dev := device.New(model)
	target, err := dsl.NewTarget(dev.SyscallDescs()...)
	if err != nil {
		t.Fatal(err)
	}
	b := adb.NewBroker(dev, target)
	tr := newTracer()
	for _, x := range []adb.Executor{b, execOnly{b}, batchOnly{b, b}, clonerOnly{b, b}} {
		w := tr.wrap("A1", sideHost, x)
		_, xb := x.(adb.BatchExecutor)
		_, wb := w.(adb.BatchExecutor)
		_, xc := x.(adb.Cloner)
		_, wc := w.(adb.Cloner)
		if xb != wb || xc != wc {
			t.Errorf("%T: wrapped batch=%v cloner=%v, want batch=%v cloner=%v", x, wb, wc, xb, xc)
		}
		if _, err := w.Reset(); err != nil {
			t.Fatal(err)
		}
	}
	for _, r := range tr.recs {
		if len(r.spans) != 1 || r.spans[0].kind != kReset {
			t.Errorf("recorder %s: spans %+v, want one reset", r.dev, r.spans)
		}
	}
}

// TestBucketOf pins the attribution rules: innermost internal module, dsl
// split by caller, background GC, everything else.
func TestBucketOf(t *testing.T) {
	for _, c := range []struct {
		stack []string
		want  string
	}{
		{[]string{"runtime.mallocgc", "droidfuzz/internal/relation.(*Graph).buildSnapshotLocked", "droidfuzz/internal/gen.(*Generator).Generate"}, "relation"},
		{[]string{"droidfuzz/internal/dsl.ParseProg", "droidfuzz/internal/adb.(*Broker).Exec", "droidfuzz/internal/adb.(*Server).execOne"}, "dsl.broker"},
		{[]string{"droidfuzz/internal/dsl.ParseProg", "droidfuzz/internal/coord.(*Host).applyBatch"}, "dsl.coord"},
		{[]string{"droidfuzz/internal/dsl.(*Prog).String", "droidfuzz/internal/adb.(*Resilient).ExecProg"}, "dsl.host"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "gc"},
		{[]string{"droidfuzz/internal/snap.Clone"}, "other"},
		{[]string{"runtime.futex", "runtime.schedule"}, "other"},
	} {
		if got := bucketOf(c.stack); got != c.want {
			t.Errorf("bucketOf(%v) = %q, want %q", c.stack, got, c.want)
		}
	}
}
