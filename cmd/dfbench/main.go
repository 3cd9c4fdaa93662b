// Command dfbench is the canonical campaign benchmark. It runs one of four
// fixed fuzzing workloads through the entry points the shipped binaries use
// (daemon, adb.Server with adb.DialResilient, coord.New with coord.Server
// and coord.NewHost) and reports end-to-end metrics in the paper's terms:
// executions per second, kernel and HAL coverage and Table II bugs found at
// a fixed iteration budget, set-up time and peak memory. A traced run
// reports the per-layer ledger instead. README.md explains every workload
// and metric.
//
// Usage, from the repository root:
//
//	bash cmd/dfbench/run.sh --workload serial-table2 --seed 1000 --seconds 20 --trace 0 [-o result.json]
//
// Every campaign runs in a fresh child process, so peak RSS is measured per
// campaign and no warm state leaks between campaigns. A run makes a fixed
// set of campaigns on fixed seeds derived from --seed, then more timing-only
// campaigns while they fit in --seconds. It prints every metric as
// "workload metric value unit" and ends with one JSON line {"correct",
// "attempted", "failed", "metrics"}. It exits 1 when a correctness check
// fails.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"slices"
	"syscall"
	"time"
)

// metricDef is one reported metric.
type metricDef struct{ name, unit string }

// endToEnd are the metrics of untraced runs.
var endToEnd = []metricDef{
	{"execs_per_s", "execs/s"},
	{"campaign_s", "s"},
	{"setup_s", "s"},
	{"kernel_cov", "PCs"},
	{"hal_signal", "elements"},
	{"bugs_found", "bugs"},
	{"rss_peak_mb", "MB"},
}

// perLayer are the metrics of traced runs.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"engine.self_s", "s"},
		{"engine.execs_per_iter", "ratio"},
		{"engine.new_signal_ratio", "ratio"},
		{"engine.corpus_size", "programs"},
		{"relation.edges", "edges"},
		{"relation.learned", "count"},
		{"crash.unique", "count"},
		{"adb.exec.n", "count"},
		{"adb.exec.busy_s", "s"},
		{"adb.exec.p50_us", "us"},
		{"adb.exec.p99_us", "us"},
		{"broker.exec.busy_s", "s"},
		{"adb.wire.self_pct", "%"},
		{"adb.batch.n", "count"},
		{"adb.batch.busy_pct", "%"},
		{"adb.wire.up_bytes_per_exec", "B"},
		{"adb.wire.down_bytes_per_exec", "B"},
		{"adb.wire.elided_ratio", "ratio"},
		{"adb.reset.restore_n", "count"},
		{"adb.reset.reboot_n", "count"},
		{"adb.reset.busy_s", "s"},
		{"adb.reset.p50_us", "us"},
		{"adb.reset.p99_us", "us"},
		{"adb.checkpoint.export_n", "count"},
		{"adb.checkpoint.export_bytes", "B"},
		{"adb.checkpoint.export_busy_pct", "%"},
		{"adb.checkpoint.import_n", "count"},
		{"adb.checkpoint.import_bytes", "B"},
		{"adb.checkpoint.import_busy_pct", "%"},
		{"coord.epochs", "count"},
		{"coord.fed_bytes_in_per_epoch", "B"},
		{"coord.fed_bytes_out_per_epoch", "B"},
		{"coord.steals", "count"},
		{"coord.learns_dropped", "count"},
		{"coord.rpc_bytes", "B"},
		{"go.alloc_bytes_per_exec", "B"},
		{"go.allocs_per_exec", "count"},
		{"go.gc_cycles", "count"},
		{"go.gc_cpu_share", "%"},
		{"go.sched_wait_p99_us", "us"},
		{"setup.boot_s", "s"},
		{"setup.probe_s", "s"},
		{"setup.seed_s", "s"},
		{"setup.dial_s", "s"},
		{"trace.overhead_pct", "%"},
	}
	for _, m := range modules {
		defs = append(defs, metricDef{"cpu." + m, "%"})
	}
	for _, m := range modules {
		if m != "gc" {
			defs = append(defs, metricDef{"alloc." + m + ".bytes_per_exec", "B"})
		}
	}
	return defs
}()

const (
	// childEnv carries a campaign spec to a child process.
	childEnv = "DFBENCH_CAMPAIGN"
	// seedStride separates the seeds of a run's campaigns. Coverage and bug
	// counts vary with the seed (rare Table II bugs turn up in a fraction of
	// seeds), so a run averages them over a fixed number of distinct seeds
	// (workload.seeds).
	seedStride = 1000003
	// setupReps is how many times a campaign child sets its workload up;
	// it reports every set-up time and runs the campaign on the last one.
	// The median over all of them damps per-process noise in set-ups that
	// take well under a millisecond.
	setupReps = 20
	// runDeadline bounds one benchmark run.
	runDeadline = 170 * time.Second
)

// spec is one campaign, as the parent hands it to a child.
type spec struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Trace    bool   `json:"trace"`
	// Smoke shrinks every campaign to a test-sized budget (tests only).
	Smoke bool `json:"smoke"`
	// SpansDir, when set, receives each traced campaign's spans.
	SpansDir string `json:"spans_dir,omitempty"`
	// FailNext arms the first in-process broker to fail that many
	// executions (tests only).
	FailNext int `json:"fail_next,omitempty"`
}

// record is what a child reports about its campaign.
type record struct {
	Seed      int64     `json:"seed"`
	Trace     bool      `json:"trace"`
	SetupS    []float64 `json:"setup_s"`
	CampaignS float64   `json:"campaign_s"`
	// Execs counts device executions during the timed campaign.
	Execs   uint64             `json:"campaign_execs"`
	Outcome outcome            `json:"outcome"`
	Layer   map[string]float64 `json:"layer,omitempty"`
	// RSSMB is the child's peak resident set, filled in by the parent.
	RSSMB float64 `json:"rss_peak_mb"`
}

func main() {
	if js := os.Getenv(childEnv); js != "" {
		os.Exit(childMain(js, os.Stdout))
	}
	os.Exit(benchMain(os.Args[1:], os.Stdout))
}

// options are a run's command-line settings.
type options struct {
	spec
	seconds time.Duration
	// out, when set, receives the full result as JSON.
	out string
}

// parseArgs reads the command line; a usage error leaves ok false.
func parseArgs(args []string) (o options, ok bool) {
	fs := flag.NewFlagSet("dfbench", flag.ContinueOnError)
	var (
		name    = fs.String("workload", "", "workload: serial-table2, remote-batched, pristine-lineage or fleet-2host")
		seed    = fs.Int64("seed", 1000, "base seed: the run's n-th seed is seed+n*1000003, and device i of a campaign gets that plus i")
		seconds = fs.Float64("seconds", 30, "after the fixed campaigns, start timing-only ones while they are expected to end within this many seconds")
		trace   = fs.Int("trace", 0, "1 reports the per-layer ledger from traced campaigns instead of the end-to-end metrics")
		out     = fs.String("o", "", "also write the full result, with every campaign and each bug's found-at, as JSON to this file")
		spans   = fs.String("spans", "", "with --trace 1, write every traced campaign's spans as a TSV file into this directory")
	)
	if err := fs.Parse(args); err != nil {
		return o, false
	}
	if _, known := workloadByName(*name); !known || (*trace != 0 && *trace != 1) || fs.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "dfbench: need --workload (serial-table2, remote-batched, pristine-lineage or fleet-2host) and --trace 0 or 1")
		return o, false
	}
	o.spec = spec{Workload: *name, Seed: *seed, Trace: *trace == 1, SpansDir: *spans}
	o.seconds = time.Duration(*seconds * float64(time.Second))
	o.out = *out
	return o, true
}

func benchMain(args []string, stdout io.Writer) int {
	o, ok := parseArgs(args)
	if !ok {
		return 2
	}
	if o.SpansDir != "" {
		if err := os.MkdirAll(o.SpansDir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "dfbench:", err)
			return 1
		}
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	res, err := bench(ctx, o.spec, o.seconds)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dfbench:", err)
		return 1
	}
	return report(res, o.out, stdout)
}

// report writes the result file when asked, prints the result and returns
// the exit code.
func report(res *result, out string, stdout io.Writer) int {
	if out != "" {
		if err := writeJSON(out, res); err != nil {
			fmt.Fprintln(os.Stderr, "dfbench:", err)
			return 1
		}
	}
	res.print(stdout)
	if !res.Correct {
		for _, f := range res.Failures {
			fmt.Fprintln(os.Stderr, "dfbench: check failed:", f)
		}
		return 1
	}
	return 0
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// fixedCampaigns is how many campaigns a run always makes. An untraced run
// makes one per seed the outcome counts average over, plus, on a
// deterministic workload, one that repeats the first seed so that every run
// checks determinism. A traced run makes an untraced and a traced campaign
// of one seed.
func (w workload) fixedCampaigns(trace bool) int {
	switch {
	case trace:
		return 2
	case w.deterministic:
		return w.seeds + 1
	default:
		return w.seeds
	}
}

// bench runs campaigns of one workload in child processes, then aggregates
// them. After the fixed campaigns it starts another only while that one,
// taking as long as the slowest so far, would end within d; those extra
// campaigns feed the time metrics and the determinism check, never the
// outcome counts, so the counts do not depend on host speed. Campaign k of
// an untraced run uses seed s.Seed + n*seedStride with n = k mod w.seeds. A
// traced run alternates untraced and traced campaigns, each traced one
// repeating the seed of the untraced one before it.
func bench(ctx context.Context, s spec, d time.Duration) (*result, error) {
	ctx, cancel := context.WithTimeout(ctx, runDeadline)
	defer cancel()
	w, _ := workloadByName(s.Workload)
	start := time.Now()
	var recs []*record
	var slowest time.Duration
	for k := 0; k < w.fixedCampaigns(s.Trace) || time.Since(start)+slowest <= d; k++ {
		cs := s
		n := k % w.seeds
		if s.Trace {
			cs.Trace, n = k%2 == 1, k/2
		}
		cs.Seed = s.Seed + int64(n)*seedStride
		t0 := time.Now()
		rec, err := spawn(ctx, cs)
		if err != nil {
			return nil, err
		}
		slowest = max(slowest, time.Since(t0))
		recs = append(recs, rec)
	}
	return aggregate(w, s, recs), nil
}

// spawn runs one campaign in a fresh child process and returns its record
// with the child's peak RSS.
func spawn(ctx context.Context, s spec) (*record, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	js, err := json.Marshal(s)
	if err != nil {
		return nil, err
	}
	cmd := exec.CommandContext(ctx, exe)
	cmd.Env = append(os.Environ(), childEnv+"="+string(js))
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s campaign: %w", s.Workload, err)
	}
	var rec record
	if err := json.Unmarshal(out.Bytes(), &rec); err != nil {
		return nil, fmt.Errorf("%s campaign: bad record: %w", s.Workload, err)
	}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		rec.RSSMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	return &rec, nil
}

// childMain runs the campaign a parent asked for and writes its record.
func childMain(js string, stdout io.Writer) int {
	var s spec
	if err := json.Unmarshal([]byte(js), &s); err != nil {
		fmt.Fprintln(os.Stderr, "dfbench: bad campaign spec:", err)
		return 2
	}
	rec, err := runCampaign(s)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dfbench:", err)
		return 1
	}
	if err := json.NewEncoder(stdout).Encode(rec); err != nil {
		fmt.Fprintln(os.Stderr, "dfbench:", err)
		return 1
	}
	return 0
}

// runCampaign sets the workload up setupReps times, keeping the last, and
// runs its timed campaign.
func runCampaign(s spec) (*record, error) {
	w, ok := workloadByName(s.Workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", s.Workload)
	}
	reps := setupReps
	if s.Smoke {
		reps = 1
	}
	rec := &record{Seed: s.Seed, Trace: s.Trace}
	var (
		c  campaign
		tr *tracer
	)
	for r := 0; r < reps; r++ {
		if c != nil {
			c.close()
		}
		if s.Trace {
			tr = newTracer()
		}
		t0 := time.Now()
		var err error
		if c, err = w.setup(s, tr); err != nil {
			return nil, fmt.Errorf("%s set-up: %w", s.Workload, err)
		}
		rec.SetupS = append(rec.SetupS, time.Since(t0).Seconds())
	}
	defer c.close()

	runtime.GC() // start every campaign from the same heap, not the set-ups' garbage
	var heap0 heapProfile
	if tr != nil {
		heap0 = readHeapProfile()
	}
	execs0 := totalExecs(c)
	before := readGoMetrics()
	var prof bytes.Buffer
	if tr != nil {
		tr.begin()
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return nil, err
		}
	}
	t0 := time.Now()
	err := c.run()
	rec.CampaignS = time.Since(t0).Seconds()
	if tr != nil {
		pprof.StopCPUProfile()
		tr.end()
	}
	after := readGoMetrics()
	if err != nil {
		return nil, fmt.Errorf("%s campaign: %w", s.Workload, err)
	}
	rec.Execs = totalExecs(c) - execs0
	rec.Outcome = collect(c)
	if tr == nil {
		return rec, nil
	}
	rec.Layer = make(map[string]float64, len(perLayer))
	if err := ledger(rec, tr, prof.Bytes(), heap0, before, after); err != nil {
		return nil, err
	}
	if s.SpansDir != "" {
		path := filepath.Join(s.SpansDir, fmt.Sprintf("%s-seed%d-pid%d.tsv", s.Workload, s.Seed, os.Getpid()))
		if err := tr.writeSpans(path); err != nil {
			return nil, err
		}
	}
	return rec, nil
}

// ledger fills a traced campaign's per-layer metrics.
func ledger(rec *record, tr *tracer, prof []byte, heap0 heapProfile, before, after []metrics.Sample) error {
	m, o := rec.Layer, &rec.Outcome
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	execs := float64(rec.Execs)
	m["engine.execs_per_iter"] = ratio(execs, float64(o.Iterations))
	m["engine.new_signal_ratio"] = ratio(float64(o.NewSignal), float64(o.Iterations))
	m["engine.corpus_size"] = float64(o.CorpusSize)
	m["relation.edges"] = float64(o.Edges)
	m["relation.learned"] = float64(o.Learned)
	m["crash.unique"] = float64(o.Crashes)
	m["adb.wire.up_bytes_per_exec"] = ratio(float64(tr.linkBytes[linkWire][1]), execs)
	m["adb.wire.down_bytes_per_exec"] = ratio(float64(tr.linkBytes[linkWire][0]), execs)
	m["adb.wire.elided_ratio"] = ratio(float64(o.WireElided), float64(o.WireExecs))
	m["coord.epochs"] = float64(o.FedEpochs)
	m["coord.fed_bytes_in_per_epoch"] = ratio(float64(o.FedBytesIn), float64(o.FedEpochs))
	m["coord.fed_bytes_out_per_epoch"] = ratio(float64(o.FedBytesOut), float64(o.FedEpochs))
	m["coord.steals"] = float64(o.Steals)
	m["coord.learns_dropped"] = float64(o.LearnsDropped)
	m["coord.rpc_bytes"] = float64(tr.linkBytes[linkCoord][0] + tr.linkBytes[linkCoord][1])
	tr.spanLedger(m, rec.CampaignS)
	goLedger(m, before, after, rec.Execs)

	cpu, err := cpuShares(prof)
	if err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	alloc := allocShares(heap0, readHeapProfile())
	for _, b := range modules {
		m["cpu."+b] = cpu[b]
		if b != "gc" {
			m["alloc."+b+".bytes_per_exec"] = alloc[b] / 100 * m["go.alloc_bytes_per_exec"]
		}
	}
	return nil
}

// result is one run's aggregate.
type result struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Trace     bool              `json:"trace"`
	Correct   bool              `json:"correct"`
	Attempted uint64            `json:"attempted"`
	Failed    uint64            `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	Failures  []string          `json:"failures,omitempty"`
	Campaigns []*record         `json:"campaigns"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := slices.Clone(v)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// aggregate reduces a run's campaigns to its metrics — medians over the
// untraced campaigns, or over the traced ones for the per-layer ledger —
// and runs the cross-campaign checks.
func aggregate(w workload, s spec, recs []*record) *result {
	res := &result{Workload: w.name, Seed: s.Seed, Trace: s.Trace, Metrics: make(map[string]metric), Campaigns: recs}
	var plain, traced []*record
	for i, r := range recs {
		res.Attempted += r.Outcome.Execs
		res.Failed += r.Outcome.ExecErrors
		for _, f := range r.Outcome.Failures {
			res.Failures = append(res.Failures, fmt.Sprintf("campaign %d: %s", i, f))
		}
		if r.Trace {
			traced = append(traced, r)
		} else {
			plain = append(plain, r)
		}
	}
	if w.deterministic {
		// Campaigns of one seed must agree exactly. Every run repeats a
		// seed; in a traced run that compares each traced campaign with its
		// untraced twin, proving the wrappers observe without perturbing.
		first := make(map[int64]*record)
		for i, r := range recs {
			f, ok := first[r.Seed]
			if !ok {
				first[r.Seed] = r
				continue
			}
			a, b := f.Outcome, r.Outcome
			if a.Execs != b.Execs || a.KernelCov != b.KernelCov || a.HALSignal != b.HALSignal ||
				a.CorpusHash != b.CorpusHash || !slices.Equal(bugIDs(a), bugIDs(b)) {
				res.Failures = append(res.Failures, fmt.Sprintf(
					"campaign %d diverged from the first campaign of seed %d: execs %d/%d kernel_cov %d/%d hal_signal %d/%d corpus %#x/%#x bugs %v/%v",
					i, r.Seed, b.Execs, a.Execs, b.KernelCov, a.KernelCov, b.HALSignal, a.HALSignal,
					b.CorpusHash, a.CorpusHash, bugIDs(b), bugIDs(a)))
			}
		}
	}
	res.Correct = len(res.Failures) == 0

	each := func(rs []*record, f func(r *record) float64) float64 {
		v := make([]float64, len(rs))
		for i, r := range rs {
			v[i] = f(r)
		}
		return median(v)
	}
	// Times are medians over every campaign; campaign outcomes are means
	// over the first campaign of each of the run's seeds.
	mean := func(rs []*record, f func(r *record) float64) float64 {
		var sum float64
		for _, r := range rs {
			sum += f(r)
		}
		return sum / float64(len(rs))
	}
	rate := func(r *record) float64 { return float64(r.Execs) / r.CampaignS }
	if !s.Trace {
		var setups []float64
		for _, r := range plain {
			setups = append(setups, r.SetupS...)
		}
		seeded := plain[:min(len(plain), w.seeds)]
		vals := map[string]float64{
			"execs_per_s": each(plain, rate),
			"campaign_s":  each(plain, func(r *record) float64 { return r.CampaignS }),
			"setup_s":     median(setups),
			"kernel_cov":  mean(seeded, func(r *record) float64 { return float64(r.Outcome.KernelCov) }),
			"hal_signal":  mean(seeded, func(r *record) float64 { return float64(r.Outcome.HALSignal) }),
			"bugs_found":  mean(seeded, func(r *record) float64 { return float64(len(r.Outcome.Bugs)) }),
			"rss_peak_mb": each(plain, func(r *record) float64 { return r.RSSMB }),
		}
		for _, d := range endToEnd {
			res.Metrics[d.name] = metric{vals[d.name], d.unit}
		}
		return res
	}
	for _, d := range perLayer {
		v := each(traced, func(r *record) float64 { return r.Layer[d.name] })
		if d.name == "trace.overhead_pct" {
			v = (1 - each(traced, rate)/each(plain, rate)) * 100
		}
		res.Metrics[d.name] = metric{v, d.unit}
	}
	return res
}

func bugIDs(o outcome) []int {
	ids := make([]int, len(o.Bugs))
	for i, b := range o.Bugs {
		ids[i] = b.ID
	}
	return ids
}

// print writes one "workload metric value unit" line per metric, in
// definition order, then the JSON summary line.
func (r *result) print(w io.Writer) {
	defs := endToEnd
	if r.Trace {
		defs = perLayer
	}
	for _, d := range defs {
		fmt.Fprintf(w, "%s %s %.6g %s\n", r.Workload, d.name, r.Metrics[d.name].Value, d.unit)
	}
	line, _ := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted uint64            `json:"attempted"`
		Failed    uint64            `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, r.Metrics})
	fmt.Fprintf(w, "%s\n", line)
}
