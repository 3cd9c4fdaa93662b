// Benchmark harness: one testing.B target per table and figure of the
// paper's evaluation, plus ablation benches for the design decisions
// DESIGN.md calls out. Run with
//
//	go test -bench=. -benchmem
//
// Each bench iteration regenerates the artifact at the quick scale; the
// full-scale outputs come from cmd/benchtab.
package droidfuzz_test

import (
	"fmt"
	"testing"

	"droidfuzz"
	"droidfuzz/internal/adb"
	"droidfuzz/internal/baseline"
	"droidfuzz/internal/bench"
	"droidfuzz/internal/crash"
	"droidfuzz/internal/device"
	"droidfuzz/internal/dsl"
	"droidfuzz/internal/engine"
	"droidfuzz/internal/feedback"
	"droidfuzz/internal/gen"
	"droidfuzz/internal/probe"
	"droidfuzz/internal/relation"
	"droidfuzz/internal/stats"
)

// benchScale keeps each benchmark iteration around a second.
func benchScale() bench.Scale {
	return bench.Scale{FigureIters: 1200, Table2Iters: 2500, Reps: 2, SeedBase: 77}
}

// BenchmarkTable1Devices regenerates the Table I device listing.
func BenchmarkTable1Devices(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if out := bench.Table1(); len(out) == 0 {
			b.Fatal("empty table")
		}
	}
}

// BenchmarkTable2BugDetection regenerates the bug-detection experiment:
// DroidFuzz vs Syzkaller across all seven devices (144 h analog).
func BenchmarkTable2BugDetection(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := bench.RunTable2(benchScale())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(len(r.DFBugs)), "df-bugs")
		b.ReportMetric(float64(len(r.SyzBugs)), "syz-bugs")
	}
}

// BenchmarkFigure3Probing regenerates the probing-pass report (Fig. 3).
func BenchmarkFigure3Probing(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := bench.RunFigure3("A1")
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(r.Interfaces), "interfaces")
	}
}

// BenchmarkFigure4Coverage regenerates the DroidFuzz-vs-Syzkaller coverage
// curves on devices A1/A2/B/C1 (48 h analog).
func BenchmarkFigure4Coverage(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := bench.RunFigure4(benchScale())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.PerDriverGainPct, "per-driver-gain-%")
	}
}

// BenchmarkFigure5Difuze regenerates the Difuze / DroidFuzz-D comparison on
// devices A1 and A2.
func BenchmarkFigure5Difuze(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := bench.RunFigure5(benchScale())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.DFDLeadPct["A1"], "dfd-vs-difuze-%")
	}
}

// BenchmarkTable3Ablation regenerates the ablation table: DroidFuzz,
// DF-NoRel, DF-NoHCov, and Syzkaller on all seven devices.
func BenchmarkTable3Ablation(b *testing.B) {
	sc := benchScale()
	sc.Reps = 2
	for i := 0; i < b.N; i++ {
		r, err := bench.RunTable3(sc)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.Mean["A1"][bench.DroidFuzz], "a1-df-cov")
		b.ReportMetric(r.Mean["A1"][bench.SyzkallerLike], "a1-syz-cov")
	}
}

// BenchmarkAblationNgramOrder quantifies the design decision behind
// directional coverage: order-sensitive n-gram hashing vs a plain
// specialized-ID set. It measures distinct signal produced by order
// permutations of the same HAL trace.
func BenchmarkAblationNgramOrder(b *testing.B) {
	target, err := dsl.NewTarget(device.New(mustModel(b, "A1")).SyscallDescs()...)
	if err != nil {
		b.Fatal(err)
	}
	table := feedback.NewSpecTable(target)
	mkTrace := func(perm int) []adb.TraceEvent {
		args := []uint64{0xa101, 0xa102, 0xa103, 0xa104}
		// Rotate to model order changes.
		out := make([]adb.TraceEvent, len(args))
		for i := range args {
			out[i] = adb.TraceEvent{NR: "ioctl", Arg: args[(i+perm)%len(args)]}
		}
		return out
	}
	for i := 0; i < b.N; i++ {
		directional := make(map[uint64]struct{})
		setOnly := make(map[uint64]struct{})
		for perm := 0; perm < 4; perm++ {
			res := &adb.ExecResult{HALTrace: mkTrace(perm)}
			sig := feedback.FromExec(res, table)
			for _, e := range sig.Elems() {
				directional[e] = struct{}{}
			}
			sig.Release()
			for _, ev := range res.HALTrace {
				setOnly[uint64(table.ID(ev))] = struct{}{}
			}
		}
		if len(directional) <= len(setOnly) {
			b.Fatal("directional coverage lost order sensitivity")
		}
		b.ReportMetric(float64(len(directional)), "directional-elems")
		b.ReportMetric(float64(len(setOnly)), "set-only-elems")
	}
}

// BenchmarkAblationDecay sweeps the relation decay factor, the knob that
// keeps generation exploring (paper §IV-C), and reports final coverage per
// setting.
func BenchmarkAblationDecay(b *testing.B) {
	for _, factor := range []float64{0.5, 0.9, 0.99} {
		b.Run(fmt.Sprintf("factor%.2f", factor), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				dev := device.New(mustModel(b, "A1"))
				eng, err := newEngineWithDecay(dev, factor)
				if err != nil {
					b.Fatal(err)
				}
				eng.Run(800)
				b.ReportMetric(float64(eng.Accumulator().KernelTotal()), "kernel-cov")
			}
		})
	}
}

// BenchmarkExecutorThroughput measures raw broker execution throughput — the
// virtual-device analog of the executor round trips that dominate real
// device fuzzing.
func BenchmarkExecutorThroughput(b *testing.B) {
	dev := device.New(mustModel(b, "A1"))
	target, err := dsl.NewTarget(dev.SyscallDescs()...)
	if err != nil {
		b.Fatal(err)
	}
	broker := adb.NewBroker(dev, target)
	prog, err := dsl.ParseProg(target, `r0 = open$tcpc(path="/dev/tcpc0")
ioctl$TCPC_SET_MODE(fd=r0, req=0xa102, mode=0x3)
ioctl$TCPC_SET_VOLTAGE(fd=r0, req=0xa103, mv=0x1388)
close$tcpc(fd=r0)
`)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := broker.ExecProg(prog); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkProbingPass measures the pre-testing probing pass itself.
func BenchmarkProbingPass(b *testing.B) {
	for i := 0; i < b.N; i++ {
		dev := device.New(mustModel(b, "A1"))
		if _, err := probe.Run(dev, probe.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMannWhitney measures the statistics hot path used by Table III.
func BenchmarkMannWhitney(b *testing.B) {
	x := make([]float64, 100)
	y := make([]float64, 100)
	for i := range x {
		x[i] = float64(i)
		y[i] = float64(i) + 5
	}
	for i := 0; i < b.N; i++ {
		stats.MannWhitneyU(x, y)
	}
}

func mustModel(b *testing.B, id string) device.Model {
	b.Helper()
	m, err := device.ModelByID(id)
	if err != nil {
		b.Fatal(err)
	}
	return m
}

func newEngineWithDecay(dev *droidfuzz.Device, factor float64) (*engine.Engine, error) {
	target, _, err := probe.Target(dev, probe.Options{})
	if err != nil {
		return nil, err
	}
	broker := adb.NewBroker(dev, target)
	cfg := engine.Config{Seed: 9, DecayFactor: factor, DecayEvery: 100}
	return engine.New(broker, relation.New(), crash.NewDedup(), cfg), nil
}

// BenchmarkAblationSeedCorpus measures the value of the probing pass's
// distilled workload seeds: engines with and without the bootstrap corpus.
func BenchmarkAblationSeedCorpus(b *testing.B) {
	run := func(b *testing.B, seeded bool) {
		for i := 0; i < b.N; i++ {
			dev := device.New(mustModel(b, "A1"))
			target, pr, err := probe.Target(dev, probe.Options{})
			if err != nil {
				b.Fatal(err)
			}
			broker := adb.NewBroker(dev, target)
			eng := engine.New(broker, relation.New(), crash.NewDedup(), engine.Config{Seed: 13})
			if seeded {
				eng.SeedCorpus(pr.Seeds)
			}
			eng.Run(1200)
			b.ReportMetric(float64(eng.Accumulator().KernelTotal()), "kernel-cov")
			b.ReportMetric(float64(eng.Dedup().Len()), "bugs")
		}
	}
	b.Run("with-seeds", func(b *testing.B) { run(b, true) })
	b.Run("without-seeds", func(b *testing.B) { run(b, false) })
}

// BenchmarkAblationEpsilon sweeps the generator's exploration rate — the
// balance between exploiting learned relations and uniform diversity.
func BenchmarkAblationEpsilon(b *testing.B) {
	for _, eps := range []float64{0.1, 0.35, 0.7} {
		b.Run(fmt.Sprintf("eps%.2f", eps), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				dev := device.New(mustModel(b, "A1"))
				eng, err := baseline.NewDroidFuzz(dev, relation.New(), crash.NewDedup(),
					engine.Config{Seed: 17, Gen: gen.Options{Epsilon: eps}})
				if err != nil {
					b.Fatal(err)
				}
				eng.Run(1200)
				b.ReportMetric(float64(eng.Accumulator().KernelTotal()), "kernel-cov")
			}
		})
	}
}

// BenchmarkAblationMinimize measures the cost/benefit of pre-admission
// minimization (paper §IV-C's "minimize the call to the bare bones").
func BenchmarkAblationMinimize(b *testing.B) {
	for _, skip := range []bool{false, true} {
		name := "minimize"
		if skip {
			name = "no-minimize"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				dev := device.New(mustModel(b, "A1"))
				eng, err := baseline.NewDroidFuzz(dev, relation.New(), crash.NewDedup(),
					engine.Config{Seed: 19, SkipMinimize: skip})
				if err != nil {
					b.Fatal(err)
				}
				eng.Run(1200)
				b.ReportMetric(float64(eng.Accumulator().KernelTotal()), "kernel-cov")
				b.ReportMetric(float64(eng.Execs()), "execs")
			}
		})
	}
}
