// Package droidfuzz is the public API of the DroidFuzz reproduction: a
// fuzzer for the proprietary drivers of (virtual) embedded Android devices
// that jointly tests vendor HAL services and the kernel drivers beneath
// them (DAC 2025).
//
// The typical flow mirrors the paper's architecture:
//
//	dev, _ := droidfuzz.NewDevice("A1")          // boot a Table I device model
//	fz, _ := droidfuzz.NewFuzzer(dev, droidfuzz.Config{Seed: 1})
//	fz.Run(20000)                                 // fuzz at a virtual-time budget
//	for _, bug := range fz.Dedup().Records() {    // triaged findings
//	    fmt.Println(bug.Title, bug.Component)
//	}
//
// NewFuzzer performs the pre-testing HAL probing pass (§IV-B), builds the
// relational generator over the combined syscall+HAL target (§IV-C), and
// wires cross-boundary execution state feedback (§IV-D). Baselines and
// ablation variants used in the paper's evaluation are available through
// NewSyzkallerBaseline, NewDifuzeBaseline, and VariantConfig. The bench
// subpackage entry points (RunTable2, RunFigure4, ...) regenerate every
// table and figure of the evaluation.
package droidfuzz

import (
	"droidfuzz/internal/adb"
	"droidfuzz/internal/baseline"
	"droidfuzz/internal/bench"
	"droidfuzz/internal/crash"
	"droidfuzz/internal/daemon"
	"droidfuzz/internal/device"
	"droidfuzz/internal/dsl"
	"droidfuzz/internal/engine"
	"droidfuzz/internal/probe"
	"droidfuzz/internal/relation"
)

// Re-exported core types. The aliases form the supported public surface;
// the internal packages behind them are implementation detail.
type (
	// Device is one booted virtual embedded Android device.
	Device = device.Device
	// Model describes a Table I device model.
	Model = device.Model
	// Config tunes a fuzzing engine.
	Config = engine.Config
	// Engine is a host-side fuzzing engine bound to one device.
	Engine = engine.Engine
	// Stats are engine counters.
	Stats = engine.Stats
	// Fuzzer is the uniform campaign surface all variants implement.
	Fuzzer = baseline.Fuzzer
	// BugRecord is one deduplicated finding with its reproducer.
	BugRecord = crash.Record
	// ProbeResult is the output of the HAL probing pass.
	ProbeResult = probe.Result
	// ProbeOptions tunes the probing pass.
	ProbeOptions = probe.Options
	// Prog is a test-case program in the DSL.
	Prog = dsl.Prog
	// Target aggregates the callable interface descriptions of a device.
	Target = dsl.Target
	// Broker is the device-side execution broker.
	Broker = adb.Broker
	// Executor is the execution boundary engines drive: the in-process
	// Broker or the resilient remote client.
	Executor = adb.Executor
	// ExecutorInfo is the executor identity handshake payload.
	ExecutorInfo = adb.Info
	// ExecResult is one program execution's cross-boundary feedback.
	ExecResult = adb.ExecResult
	// Daemon coordinates engines across multiple devices.
	Daemon = daemon.Daemon
	// Scale sets evaluation iteration/repetition budgets.
	Scale = bench.Scale
	// CampaignConfig describes one evaluation campaign.
	CampaignConfig = bench.CampaignConfig
	// CampaignResult is one campaign's outcome.
	CampaignResult = bench.CampaignResult
	// FuzzerKind selects a campaign fuzzer variant.
	FuzzerKind = bench.FuzzerKind
)

// Campaign fuzzer kinds (bench.FuzzerKind values).
const (
	KindDroidFuzz       = bench.DroidFuzz
	KindDroidFuzzNoRel  = bench.DroidFuzzNoRel
	KindDroidFuzzNoHCov = bench.DroidFuzzNoHCov
	KindDroidFuzzD      = bench.DroidFuzzD
	KindSyzkallerLike   = bench.SyzkallerLike
	KindDifuzeLike      = bench.DifuzeLike
)

// Models returns the seven Table I device models.
func Models() []Model { return device.Models() }

// NewDevice boots the device model with the given ID (A1, A2, B, C1, C2,
// D, E).
func NewDevice(modelID string) (*Device, error) {
	m, err := device.ModelByID(modelID)
	if err != nil {
		return nil, err
	}
	return device.New(m), nil
}

// Probe runs the pre-testing HAL driver probing pass on a booted device,
// returning the discovered interfaces, occurrence weights, and distilled
// workload seeds.
func Probe(dev *Device, opts ProbeOptions) (*ProbeResult, error) {
	return probe.Run(dev, opts)
}

// NewFuzzer builds the full DroidFuzz system for a device: probing pass,
// relational payload generation, cross-boundary feedback.
func NewFuzzer(dev *Device, cfg Config) (*Engine, error) {
	return baseline.NewDroidFuzz(dev, relation.New(), crash.NewDedup(), cfg)
}

// NewSyzkallerBaseline builds the syscall-only coverage-guided baseline.
func NewSyzkallerBaseline(dev *Device, cfg Config) (*Engine, error) {
	return baseline.NewSyzkallerLike(dev, cfg)
}

// NewDifuzeBaseline builds the generation-only ioctl-interface baseline.
func NewDifuzeBaseline(dev *Device, seed int64) (*baseline.Difuze, error) {
	return baseline.NewDifuze(dev, seed)
}

// NewDroidFuzzD builds the ioctl-gated DROIDFUZZ-D variant (§V-C2).
func NewDroidFuzzD(dev *Device, cfg Config) (*Engine, error) {
	return baseline.NewDroidFuzzD(dev, cfg)
}

// NewDaemon returns a multi-device coordinator with shared relation table
// and global crash deduplication (the paper's root process, §IV-A).
func NewDaemon() *Daemon { return daemon.New() }

// RunCampaign boots a fresh device and runs one evaluation campaign.
func RunCampaign(cfg CampaignConfig) (*CampaignResult, error) {
	return bench.RunCampaign(cfg)
}

// DefaultScale is the full evaluation budget; QuickScale a reduced one.
func DefaultScale() Scale { return bench.DefaultScale() }

// QuickScale returns the reduced smoke-test budget.
func QuickScale() Scale { return bench.QuickScale() }

// Evaluation entry points, one per paper artifact.
var (
	// Table1 renders the device listing.
	Table1 = bench.Table1
	// RunTable2 reproduces the bug-detection experiment.
	RunTable2 = bench.RunTable2
	// RunTable3 reproduces the ablation experiment.
	RunTable3 = bench.RunTable3
	// RunFigure3 reports the probing pass on one device.
	RunFigure3 = bench.RunFigure3
	// RunFigure4 reproduces the Syzkaller coverage comparison.
	RunFigure4 = bench.RunFigure4
	// RunFigure5 reproduces the Difuze / DroidFuzz-D comparison.
	RunFigure5 = bench.RunFigure5
)

// ParseProg parses a DSL program against a target (corpus files, manual
// reproducers).
func ParseProg(target *Target, text string) (*Prog, error) {
	return dsl.ParseProg(target, text)
}

// BugTable renders findings in the paper's Table II layout.
func BugTable(records []*BugRecord) string { return crash.Table(records) }
