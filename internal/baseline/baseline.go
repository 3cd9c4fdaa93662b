// Package baseline implements the comparison fuzzers of the paper's
// evaluation: a Syzkaller-analog (coverage-guided, syscall-only,
// resource-aware generation and mutation, kcov feedback — commit fb88827's
// role in §V-C1) and a Difuze-analog (static interface extraction feeding a
// generation-only ioctl fuzzer in the MangoFuzz/Peach style — commit
// 3290997's role in §V-C2). It also wires the DroidFuzz variants used in
// the evaluation: DROIDFUZZ-D (ioctl-gated), DF-NoRel and DF-NoHCov.
package baseline

import (
	"math/rand"
	"strings"

	"droidfuzz/internal/adb"
	"droidfuzz/internal/crash"
	"droidfuzz/internal/device"
	"droidfuzz/internal/dsl"
	"droidfuzz/internal/engine"
	"droidfuzz/internal/feedback"
	"droidfuzz/internal/gen"
	"droidfuzz/internal/probe"
	"droidfuzz/internal/relation"
)

// Fuzzer is the uniform campaign surface the bench harness drives.
type Fuzzer interface {
	// Run executes n fuzzing iterations.
	Run(n int)
	// Accumulator exposes accumulated coverage and its history.
	Accumulator() *feedback.Accumulator
	// Dedup exposes unique findings.
	Dedup() *crash.Dedup
	// Execs reports the virtual-time clock.
	Execs() uint64
}

// Engine-based fuzzers satisfy Fuzzer structurally.
var _ Fuzzer = (*engine.Engine)(nil)

// NewDroidFuzz boots the full system for a device: probing pass, extended
// target, shared-or-fresh relation graph, engine.
func NewDroidFuzz(dev *device.Device, graph *relation.Graph, dedup *crash.Dedup, cfg engine.Config) (*engine.Engine, error) {
	return newDroidFuzz(dev, graph, dedup, cfg, false)
}

// NewDroidFuzzD builds the DROIDFUZZ-D variant: the full system with the
// broker's ioctl-only gate enabled, so the native executor runs only
// open/close/ioctl and HAL-origin read/write/mmap syscalls are blocked
// (paper §V-C2).
func NewDroidFuzzD(dev *device.Device, cfg engine.Config) (*engine.Engine, error) {
	return newDroidFuzz(dev, relation.New(), crash.NewDedup(), cfg, true)
}

func newDroidFuzz(dev *device.Device, graph *relation.Graph, dedup *crash.Dedup, cfg engine.Config, ioctlOnly bool) (*engine.Engine, error) {
	target, pr, err := probe.Target(dev, probe.Options{Params: cfg.Params})
	if err != nil {
		return nil, err
	}
	broker := adb.NewBroker(dev, target)
	if ioctlOnly {
		// With Params the target still carries the knob descriptions — the
		// gate, not the description set, is what separates DROIDFUZZ-D from
		// the full system — but the broker blocks the write leg of every
		// param call.
		broker.SetIoctlOnly(true)
	}
	eng := engine.New(broker, graph, dedup, cfg)
	eng.SeedCorpus(pr.Seeds)
	return eng, nil
}

// NewSyzkallerLike builds the Syzkaller analog: the same coverage-guided
// generate/mutate/minimize loop over the same syscall descriptions, but
// blind to the HAL boundary — no probed interfaces, no relation learning
// (Syzkaller's static choice bias stands in via random dependency
// generation with resource resolution), and kcov-only feedback.
func NewSyzkallerLike(dev *device.Device, cfg engine.Config) (*engine.Engine, error) {
	target, err := dsl.NewTarget(dev.SyscallDescs()...)
	if err != nil {
		return nil, err
	}
	broker := adb.NewBroker(dev, target)
	cfg.NoRelations = true
	cfg.NoHALCov = true
	return engine.New(broker, relation.New(), crash.NewDedup(), cfg), nil
}

// Difuze is the interface fuzzer analog: it statically "extracts" the ioctl
// command surface (request codes and argument layouts — what Difuze
// recovers from driver sources) and generates spec-conformant ioctl
// invocations with no execution feedback, like the Peach-based MangoFuzz.
type Difuze struct {
	x       adb.Executor
	target  *dsl.Target
	gen     *gen.Generator
	acc     *feedback.Accumulator
	dedup   *crash.Dedup
	rng     *rand.Rand
	modelID string
	execs   uint64
	ifaces  int
	snapEvr uint64
}

// NewDifuze builds the Difuze analog for a device.
func NewDifuze(dev *device.Device, seed int64) (*Difuze, error) {
	extracted := ExtractIoctlInterfaces(dev)
	target, err := dsl.NewTarget(extracted...)
	if err != nil {
		return nil, err
	}
	n := 0
	for _, d := range extracted {
		if strings.HasPrefix(d.Name, "ioctl$") {
			n++
		}
	}
	rng := rand.New(rand.NewSource(seed))
	return &Difuze{
		x:      adb.NewBroker(dev, target),
		target: target,
		// A fresh empty relation graph keeps the generator's walk
		// degenerate; NoRelations makes dependencies purely random, the
		// Peach behavior.
		gen:     gen.New(target, relation.New(), rng, gen.Options{NoRelations: true, MaxLen: 6}),
		acc:     feedback.NewAccumulator(),
		dedup:   crash.NewDedup(),
		rng:     rng,
		modelID: dev.Model.ID,
		ifaces:  n,
		snapEvr: 25,
	}, nil
}

// ExtractIoctlInterfaces performs the static-analysis stand-in: the open
// and ioctl descriptions of every driver family present on the device.
func ExtractIoctlInterfaces(dev *device.Device) []*dsl.CallDesc {
	var out []*dsl.CallDesc
	for _, d := range dev.SyscallDescs() {
		if strings.HasPrefix(d.Name, "open$") || strings.HasPrefix(d.Name, "ioctl$") {
			out = append(out, d)
		}
	}
	return out
}

// ExtractedInterfaces reports how many ioctl interfaces extraction found
// (the paper reports 285 and 232 for devices A1 and A2).
func (f *Difuze) ExtractedInterfaces() int { return f.ifaces }

// Accumulator implements Fuzzer (coverage is measured, not used as
// feedback).
func (f *Difuze) Accumulator() *feedback.Accumulator { return f.acc }

// Dedup implements Fuzzer.
func (f *Difuze) Dedup() *crash.Dedup { return f.dedup }

// Execs implements Fuzzer.
func (f *Difuze) Execs() uint64 { return f.execs }

// Run implements Fuzzer: pure generation, no corpus, no guidance. It
// drives the adb.Executor boundary, so the analog runs over the in-process
// broker or any transport-backed executor alike.
func (f *Difuze) Run(n int) {
	for i := 0; i < n; i++ {
		p := f.gen.Generate()
		res, err := f.x.ExecProg(p)
		f.execs++
		if err != nil {
			continue
		}
		if len(res.Crashes) > 0 {
			for _, cr := range res.Crashes {
				f.dedup.Add(f.modelID, cr, p, f.execs)
			}
			_ = f.x.Reboot()
		}
		// Coverage is recorded for the evaluation plots only.
		sig := feedback.FromExec(res, nil)
		f.acc.Merge(sig)
		sig.Release()
		res.Release()
		if f.execs%f.snapEvr == 0 {
			f.acc.Snapshot(f.execs)
		}
	}
	f.acc.Snapshot(f.execs)
}

var _ Fuzzer = (*Difuze)(nil)
