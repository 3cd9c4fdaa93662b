package analysis_test

import (
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"droidfuzz/internal/analysis"
)

// loadFixture loads the vettest module under testdata, a miniature tree
// seeding at least one violation of every pass.
func loadFixture(t *testing.T) *analysis.Program {
	t.Helper()
	prog, err := analysis.Load(filepath.Join("testdata", "vettest"))
	if err != nil {
		t.Fatalf("load fixture: %v", err)
	}
	return prog
}

func fixtureConfig() analysis.Config {
	return analysis.Config{
		DeterminismRoots: []string{"vettest/det", "vettest/waiv"},
		Pooled: []analysis.PooledType{{
			TypePath:      "vettest/pool.Obj",
			ReleaseMethod: "Release",
			PoolVars:      []string{"vettest/pool.objPool"},
		}},
		LockTypes:        []string{"vettest/locks.A", "vettest/locks.B"},
		WireRoots:        []string{"vettest/wire.Frame"},
		SnapshotTypes:    []string{"vettest/snap.View", "vettest/snap.ParamState", "vettest/snap.Blob"},
		SnapshotBuilders: []string{"vettest/snap.New", "vettest/snap.View.Refresh", "vettest/snap.NewParamState", "vettest/snap.NewBlob", "vettest/atomics.BuildState"},
		AtomicTypes:      []string{"vettest/atomics.Counter", "vettest/atomics.Board"},
		CheckpointIface:  "vettest/cpt.Subsystem",
		GoroutineRoots:   []string{"vettest/golife"},
		GoShutdownChans:  []string{"done", "Done"},
		// No manifest by default; TestWireManifestLifecycle covers it.
	}
}

// matching returns the diagnostics of a pass whose file basename and
// message match.
func matching(diags []analysis.Diagnostic, pass, file, substr string) []analysis.Diagnostic {
	var out []analysis.Diagnostic
	for _, d := range diags {
		if d.Pass != pass {
			continue
		}
		if file != "" && filepath.Base(d.Pos.Filename) != file {
			continue
		}
		if substr != "" && !strings.Contains(d.Message, substr) {
			continue
		}
		out = append(out, d)
	}
	return out
}

func dump(t *testing.T, diags []analysis.Diagnostic) {
	t.Helper()
	for _, d := range diags {
		t.Logf("  %s", d)
	}
}

func TestDeterminismPassOnFixture(t *testing.T) {
	diags := analysis.Analyze(loadFixture(t), fixtureConfig())

	for _, want := range []string{"time.Now", "time.Since", "time.NewTicker", "time.Sleep", "math/rand", "map iteration order"} {
		if len(matching(diags, analysis.PassDeterminism, "det.go", want)) == 0 {
			dump(t, diags)
			t.Errorf("seeded %q violation not reported", want)
		}
	}
	// Exactly the six seeded sites: the collect-then-sort Keys, the
	// line-waived Waived, and the seeded-stream Seeded must stay clean.
	if got := matching(diags, analysis.PassDeterminism, "det.go", ""); len(got) != 6 {
		dump(t, got)
		t.Errorf("det.go determinism findings = %d, want exactly 6", len(got))
	}
	// The file-scoped waiver silences the whole second file.
	if got := matching(diags, analysis.PassDeterminism, "waived_file.go", ""); len(got) != 0 {
		dump(t, got)
		t.Errorf("file-waived file still produced %d findings", len(got))
	}
}

func TestPoolcheckPassOnFixture(t *testing.T) {
	diags := analysis.Analyze(loadFixture(t), fixtureConfig())

	if got := matching(diags, analysis.PassPoolcheck, "pool.go", "double-Put"); len(got) != 2 {
		dump(t, diags)
		t.Errorf("double-Put findings = %d, want 2 (method release + pool.Put)", len(got))
	}
	if got := matching(diags, analysis.PassPoolcheck, "pool.go", "use-after-Put"); len(got) != 1 {
		dump(t, diags)
		t.Errorf("use-after-Put findings = %d, want 1", len(got))
	}
	undoc := matching(diags, analysis.PassPoolcheck, "pool.go", "ownership")
	if len(undoc) != 1 || !strings.Contains(undoc[0].Message, "Undocumented") {
		dump(t, diags)
		t.Errorf("ownership-doc findings = %v, want exactly one naming Undocumented", undoc)
	}
}

func TestLockorderPassOnFixture(t *testing.T) {
	diags := analysis.Analyze(loadFixture(t), fixtureConfig())

	inv := matching(diags, analysis.PassLockorder, "locks.go", "inversion")
	if len(inv) == 0 {
		dump(t, diags)
		t.Fatal("A→B / B→A inversion not reported")
	}
	if !strings.Contains(inv[0].Message, "A") || !strings.Contains(inv[0].Message, "B") {
		t.Errorf("inversion message does not name both types: %q", inv[0].Message)
	}
	if got := matching(diags, analysis.PassLockorder, "locks.go", "self-deadlock"); len(got) == 0 {
		dump(t, diags)
		t.Error("transitive self-nesting not reported")
	}
}

func TestTaggedFieldPassOnFixture(t *testing.T) {
	diags := analysis.Analyze(loadFixture(t), fixtureConfig())

	iface := matching(diags, analysis.PassTaggedField, "wire.go", "interface-typed")
	if len(iface) != 1 || !strings.Contains(iface[0].Message, "Payload") {
		dump(t, diags)
		t.Errorf("interface-member findings = %v, want exactly one naming Payload", iface)
	}
}

func TestSnapshotPassOnFixture(t *testing.T) {
	diags := analysis.Analyze(loadFixture(t), fixtureConfig())

	// The six seeded misuse sites in snapuse.go: two assignment writes
	// (Mutate), one increment and one delete (Bump), and two
	// method-receiver writes (Stamper.Stamp, plus Stamper.New — which
	// shares the registered plain builder's name but not its receiver).
	if got := matching(diags, analysis.PassSnapshot, "snapuse.go", "assignment writes"); len(got) != 4 {
		dump(t, diags)
		t.Errorf("assignment-write findings = %d, want 4", len(got))
	}
	if got := matching(diags, analysis.PassSnapshot, "snapuse.go", "mutates snapshot"); len(got) != 1 {
		dump(t, diags)
		t.Errorf("++ findings = %d, want 1", len(got))
	}
	if got := matching(diags, analysis.PassSnapshot, "snapuse.go", "delete()"); len(got) != 1 {
		dump(t, diags)
		t.Errorf("delete findings = %d, want 1", len(got))
	}
	// Nothing beyond the six: the waived site, the read-only accessor,
	// the local-rebinding, and the copy-then-mutate pattern all stay clean.
	if got := matching(diags, analysis.PassSnapshot, "snapuse.go", ""); len(got) != 6 {
		dump(t, got)
		t.Errorf("snapuse.go snapshot findings = %d, want exactly 6", len(got))
	}
	// The registered builders' writes are exempt: New's construction and
	// the receiver-qualified View.Refresh bookkeeping.
	if got := matching(diags, analysis.PassSnapshot, "snap.go", ""); len(got) != 0 {
		dump(t, got)
		t.Errorf("builder package produced %d snapshot findings, want 0", len(got))
	}
}

func TestSnapshotPassFlagsUnregisteredParamStateWrite(t *testing.T) {
	diags := analysis.Analyze(loadFixture(t), fixtureConfig())
	// StoreKnob writes a captured knob value from an unregistered function;
	// exactly that one site in the param fixture file is flagged.
	if got := matching(diags, analysis.PassSnapshot, "params.go", "ParamState"); len(got) != 1 {
		dump(t, got)
		t.Errorf("param-state findings = %d, want exactly 1", len(got))
	}
	// The registered NewParamState builder's construction writes stay clean
	// (its file in the snap package carries no findings at all).
	if got := matching(diags, analysis.PassSnapshot, "params.go", "NewParamState"); len(got) != 0 {
		dump(t, got)
		t.Errorf("registered param builder flagged: %d findings", len(got))
	}

	// Dropping the registration must fail loud in the real config: the
	// repo-wide DefaultConfig carries the drivers.knobsState payload and the
	// Knobs.Checkpoint/Restore builders, so an unregistered-param-state
	// regression there would surface as new findings on the repo itself
	// (TestDefaultConfigOnRepo).
	cfg := analysis.DefaultConfig()
	wantType := "droidfuzz/internal/drivers.knobsState"
	if !slices.Contains(cfg.SnapshotTypes, wantType) {
		t.Errorf("DefaultConfig missing snapshot type %s", wantType)
	}
	for _, b := range []string{
		"droidfuzz/internal/drivers.Knobs.Checkpoint",
		"droidfuzz/internal/drivers.Knobs.Restore",
	} {
		if !slices.Contains(cfg.SnapshotBuilders, b) {
			t.Errorf("DefaultConfig missing snapshot builder %s", b)
		}
	}
}

func TestSnapshotPassFlagsImportedCheckpointWrite(t *testing.T) {
	diags := analysis.Analyze(loadFixture(t), fixtureConfig())
	// WriteThroughImported mutates a blob that clone twins share after
	// import; exactly its two sites in the import fixture file are flagged.
	if got := matching(diags, analysis.PassSnapshot, "import.go", "Blob"); len(got) != 2 {
		dump(t, got)
		t.Errorf("imported-blob findings = %d, want exactly 2", len(got))
	}
	// The copy-then-mutate import pattern and the registered NewBlob
	// builder stay clean.
	if got := matching(diags, analysis.PassSnapshot, "export.go", ""); len(got) != 0 {
		dump(t, got)
		t.Errorf("export builder flagged: %d findings", len(got))
	}

	// The real config must carry the decoded-checkpoint type and the
	// payload entry types, or a write through an imported checkpoint in
	// the repo would go unflagged (TestDefaultConfigOnRepo enforces zero
	// findings against DefaultConfig).
	cfg := analysis.DefaultConfig()
	for _, wantType := range []string{
		"droidfuzz/internal/device.Checkpoint",
		"droidfuzz/internal/drivers.v4l2Ctrl",
		"droidfuzz/internal/drivers.gpuBuffer",
	} {
		if !slices.Contains(cfg.SnapshotTypes, wantType) {
			t.Errorf("DefaultConfig missing snapshot type %s", wantType)
		}
	}
	if b := "droidfuzz/internal/device.rebindSnapshot"; !slices.Contains(cfg.SnapshotBuilders, b) {
		t.Errorf("DefaultConfig missing snapshot builder %s", b)
	}
}

func TestWaiverGrammarOnFixture(t *testing.T) {
	diags := analysis.Analyze(loadFixture(t), fixtureConfig())

	// The end-of-line, line-above, and stacked waivers each own their
	// clock read; only the prose-mention site stays flagged.
	nondet := matching(diags, analysis.PassDeterminism, "waiv.go", "")
	if len(nondet) != 1 {
		dump(t, nondet)
		t.Errorf("waiv.go determinism findings = %d, want exactly 1 (ProseMention)", len(nondet))
	}
	// Malformed waivers are findings of their own, one per unknown name.
	bad := matching(diags, analysis.PassWaiver, "waiv.go", "")
	if len(bad) != 2 {
		dump(t, bad)
		t.Fatalf("waiver findings = %d, want 2 (nosuchpass + typo'd -file)", len(bad))
	}
	if !strings.Contains(bad[0].Message, "nosuchpass") || !strings.Contains(bad[0].Message, "waives nothing") {
		t.Errorf("unknown-pass message = %q", bad[0].Message)
	}
	if !strings.Contains(bad[1].Message, "nondet-flie") {
		t.Errorf("typo'd-suffix message = %q", bad[1].Message)
	}
	// The hint lists the valid pass names.
	if !strings.Contains(bad[0].Message, "golifetime") || !strings.Contains(bad[0].Message, "nondet") {
		t.Errorf("unknown-pass hint does not list valid passes: %q", bad[0].Message)
	}
	// The known -file form still works (det fixture's waived_file.go) and
	// known line waivers are never reported as malformed.
	if got := matching(diags, analysis.PassWaiver, "", ""); len(got) != 2 {
		dump(t, got)
		t.Errorf("total waiver findings = %d, want exactly the 2 seeded ones", len(got))
	}
}

func TestAtomicsPassOnFixture(t *testing.T) {
	diags := analysis.Analyze(loadFixture(t), fixtureConfig())

	// The mixed-discipline verdict: the buffer is atomically stored in
	// atomics.go, so the plain element read and write in atomuse.go are
	// flagged, each citing the atomic site.
	mixed := matching(diags, analysis.PassAtomics, "atomuse.go", "accessed through sync/atomic")
	if len(mixed) != 2 {
		dump(t, diags)
		t.Errorf("mixed-discipline findings = %d, want 2 (plain read + plain write)", len(mixed))
	}
	for _, d := range mixed {
		if !strings.Contains(d.Message, "atomics.go") {
			t.Errorf("mixed-discipline finding does not cite the atomic site: %q", d.Message)
		}
	}
	// Copying an atomic-typed field out of its API.
	if got := matching(diags, analysis.PassAtomics, "atomuse.go", "outside its Load/Store API"); len(got) != 1 {
		dump(t, diags)
		t.Errorf("atomic-typed misuse findings = %d, want 1 (Steal)", len(got))
	}
	// Writes through the atomic.Pointer-published State: the assignment and
	// the delete. The published set is derived, not configured.
	if got := matching(diags, analysis.PassAtomics, "atomuse.go", "published through an atomic.Pointer"); len(got) != 2 {
		dump(t, diags)
		t.Errorf("published-write findings = %d, want 2 (assign + delete)", len(got))
	}
	// Nothing else: the waived pre-publication store, the API reads, and
	// the copy-then-mutate pattern all stay clean.
	if got := matching(diags, analysis.PassAtomics, "atomuse.go", ""); len(got) != 5 {
		dump(t, got)
		t.Errorf("atomuse.go atomics findings = %d, want exactly 5", len(got))
	}
	// The clean half: API-disciplined code and the registered builder.
	if got := matching(diags, analysis.PassAtomics, "atomics.go", ""); len(got) != 0 {
		dump(t, got)
		t.Errorf("clean atomics package produced %d findings, want 0", len(got))
	}
}

func TestCheckpointPassOnFixture(t *testing.T) {
	diags := analysis.Analyze(loadFixture(t), fixtureConfig())

	// Bad.leak: stateful, never captured, not annotated.
	if got := matching(diags, analysis.PassCheckpoint, "bad.go", "stateful field cpt.Bad.leak"); len(got) != 1 {
		dump(t, diags)
		t.Errorf("uncaptured-field findings = %d, want 1 (Bad.leak)", len(got))
	}
	// badState.C never round-trips: both in-memory legs flag it.
	for _, want := range []string{
		"never populated by cpt.Bad.Checkpoint",
		"never read back by cpt.Bad.Restore",
	} {
		got := matching(diags, analysis.PassCheckpoint, "bad.go", want)
		found := false
		for _, d := range got {
			if strings.Contains(d.Message, "badState.C") {
				found = true
			}
		}
		if !found {
			dump(t, diags)
			t.Errorf("badState.C missing %q finding", want)
		}
	}
	// badState.b round-trips in memory but is unexported and unannotated:
	// exactly the portability rule fires for it.
	if got := matching(diags, analysis.PassCheckpoint, "bad.go", "badState.b"); len(got) != 1 ||
		!strings.Contains(got[0].Message, "gob drops it from the portable checkpoint") {
		dump(t, diags)
		t.Errorf("badState.b findings = %d, want exactly 1 (unexported payload field)", len(got))
	}
	// Exactly the four seeded findings; Bad.waived is owned by its waiver.
	if got := matching(diags, analysis.PassCheckpoint, "bad.go", ""); len(got) != 4 {
		dump(t, got)
		t.Errorf("bad.go checkpoint findings = %d, want exactly 4", len(got))
	}
	// Good round-trips completely and its payload is portable (its one
	// unexported payload field is annotated device-local); Idle's wiring is
	// annotated; the sync mutex, the sub-subsystem, and the embedded
	// pattern are auto-exempt.
	if got := matching(diags, analysis.PassCheckpoint, "cpt.go", ""); len(got) != 0 {
		dump(t, got)
		t.Errorf("complete subsystem produced %d findings, want 0", len(got))
	}
}

func TestGoLifetimePassOnFixture(t *testing.T) {
	diags := analysis.Analyze(loadFixture(t), fixtureConfig())

	// The three loop leaks: no exit at all, ticker-only select, and a
	// select exiting on an unregistered channel.
	if got := matching(diags, analysis.PassGoLifetime, "golife.go", "unbounded for loop"); len(got) != 3 {
		dump(t, diags)
		t.Errorf("unbounded-loop findings = %d, want 3 (Leak, Tick, Unregistered)", len(got))
	}
	// The dynamic spawn.
	if got := matching(diags, analysis.PassGoLifetime, "golife.go", "dynamically resolved"); len(got) != 1 {
		dump(t, diags)
		t.Errorf("dynamic-spawn findings = %d, want 1", len(got))
	}
	// Nothing else: the registered-done select, the bounded loop, the
	// channel range, the named error-exit loop, and the waived leak are
	// all clean.
	if got := matching(diags, analysis.PassGoLifetime, "golife.go", ""); len(got) != 4 {
		dump(t, got)
		t.Errorf("golife.go findings = %d, want exactly 4", len(got))
	}
}

func TestWireManifestLifecycle(t *testing.T) {
	prog := loadFixture(t)
	cfg := fixtureConfig()

	manifest := analysis.WireManifest(prog, cfg)
	for _, frame := range []string{"vettest/wire.Frame", "vettest/wire.Inner", "vettest/wire.Item"} {
		if !strings.Contains(manifest, frame) {
			t.Fatalf("manifest missing frame %s:\n%s", frame, manifest)
		}
	}

	path := filepath.Join(t.TempDir(), "wire.lock")
	cfg.WireManifest = path

	// Missing manifest: reported.
	if got := matching(analysis.Analyze(prog, cfg), analysis.PassTaggedField, "", "manifest missing"); len(got) != 1 {
		t.Fatalf("missing-manifest findings = %d, want 1", len(got))
	}

	// Fresh manifest: clean (only the seeded interface-member finding
	// remains).
	if err := os.WriteFile(path, []byte(manifest), 0o644); err != nil {
		t.Fatal(err)
	}
	diags := analysis.Analyze(prog, cfg)
	if got := matching(diags, analysis.PassTaggedField, "", "drifted"); len(got) != 0 {
		dump(t, got)
		t.Fatal("fresh manifest reported drift")
	}
	if got := matching(diags, analysis.PassTaggedField, "", "no longer exists"); len(got) != 0 {
		t.Fatal("fresh manifest reported stale entries")
	}

	// Tampered field order: drift reported for that frame only.
	tampered := strings.Replace(manifest,
		"vettest/wire.Inner = Name:string; Count:int",
		"vettest/wire.Inner = Count:int; Name:string", 1)
	if tampered == manifest {
		t.Fatal("tamper replacement did not apply; fixture layout changed?")
	}
	if err := os.WriteFile(path, []byte(tampered), 0o644); err != nil {
		t.Fatal(err)
	}
	drift := matching(analysis.Analyze(prog, cfg), analysis.PassTaggedField, "", "drifted")
	if len(drift) != 1 || !strings.Contains(drift[0].Message, "wire.Inner") {
		t.Fatalf("drift findings = %v, want exactly one for wire.Inner", drift)
	}

	// Stale entry: a frame in the manifest that no longer exists.
	if err := os.WriteFile(path, []byte(manifest+"vettest/wire.Gone = X:int\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	stale := matching(analysis.Analyze(prog, cfg), analysis.PassTaggedField, "", "no longer exists")
	if len(stale) != 1 || !strings.Contains(stale[0].Message, "wire.Gone") {
		t.Fatalf("stale findings = %v, want exactly one for wire.Gone", stale)
	}
}

// TestDefaultConfigOnRepo runs the production configuration over the real
// module: the committed tree must be clean — this is the same gate CI's
// droidvet job enforces, wired into `go test` so a violation fails fast
// locally too.
func TestDefaultConfigOnRepo(t *testing.T) {
	if testing.Short() {
		t.Skip("whole-module type-check is slow; run without -short")
	}
	prog, err := analysis.Load(filepath.Join("..", ".."))
	if err != nil {
		t.Fatalf("load module: %v", err)
	}
	diags := analysis.Analyze(prog, analysis.DefaultConfig())
	for _, d := range diags {
		t.Errorf("%s", d)
	}
}

// TestDefaultConfigCoversNewPasses pins the droidvet v2 configuration: the
// atomics, checkpoint, and golifetime passes are only as strong as the type
// and root lists they are pointed at, and a dropped entry silently disables
// coverage without failing any build.
func TestDefaultConfigCoversNewPasses(t *testing.T) {
	cfg := analysis.DefaultConfig()
	for _, want := range []string{
		"droidfuzz/internal/kcov.Bitmap",
		"droidfuzz/internal/kcov.Collector",
		"droidfuzz/internal/engine.Engine",
		"droidfuzz/internal/drivers.Knobs",
	} {
		if !slices.Contains(cfg.AtomicTypes, want) {
			t.Errorf("DefaultConfig missing atomic type %s", want)
		}
	}
	if cfg.CheckpointIface != "droidfuzz/internal/snap.Subsystem" {
		t.Errorf("CheckpointIface = %q, want droidfuzz/internal/snap.Subsystem", cfg.CheckpointIface)
	}
	for _, want := range []string{
		"droidfuzz/internal/daemon",
		"droidfuzz/internal/adb",
		"droidfuzz/internal/engine",
		"droidfuzz/internal/coord",
	} {
		if !slices.Contains(cfg.GoroutineRoots, want) {
			t.Errorf("DefaultConfig missing goroutine root %s", want)
		}
	}
	for _, want := range []string{"quit", "Done"} {
		if !slices.Contains(cfg.GoShutdownChans, want) {
			t.Errorf("DefaultConfig missing shutdown channel %s", want)
		}
	}
	// The daemon schedules every engine; a clock or map-order decision
	// there reaches the shared relation table.
	if !slices.Contains(cfg.DeterminismRoots, "droidfuzz/internal/daemon") {
		t.Error("DefaultConfig determinism roots miss droidfuzz/internal/daemon")
	}
	// The coordinator protocol vocabulary must stay under the wire manifest:
	// without these roots a CoordShard or FedBatch field change would ship
	// without a wire.lock diff.
	for _, want := range []string{
		"droidfuzz/internal/adb.CoordRequest",
		"droidfuzz/internal/adb.CoordReply",
	} {
		if !slices.Contains(cfg.WireRoots, want) {
			t.Errorf("DefaultConfig missing wire root %s", want)
		}
	}
}
