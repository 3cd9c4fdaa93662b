package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
	"time"
)

// Pass names, used both for dispatch and as waiver keys.
const (
	PassDeterminism = "nondet"
	PassPoolcheck   = "poolcheck"
	PassLockorder   = "lockorder"
	PassTaggedField = "wire"
	PassSnapshot    = "snapshot"
	PassAtomics     = "atomics"
	PassCheckpoint  = "checkpoint"
	PassGoLifetime  = "golifetime"
	// PassWaiver reports malformed waiver comments themselves: a
	// //droidvet: annotation naming a pass that does not exist suppresses
	// nothing and would otherwise rot silently.
	PassWaiver = "waiver"
)

// knownPasses is the set of valid waiver keys.
var knownPasses = map[string]bool{
	PassDeterminism: true,
	PassPoolcheck:   true,
	PassLockorder:   true,
	PassTaggedField: true,
	PassSnapshot:    true,
	PassAtomics:     true,
	PassCheckpoint:  true,
	PassGoLifetime:  true,
	PassWaiver:      true,
}

// Diagnostic is one droidvet finding.
type Diagnostic struct {
	Pos     token.Position
	Pass    string
	Message string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: [%s] %s", d.Pos, d.Pass, d.Message)
}

// PooledType names one pooled object type and its release method: poolcheck
// tracks values of this type through Get/Release lifecycles.
type PooledType struct {
	// TypePath is the fully qualified named type, "pkgpath.Name".
	TypePath string
	// ReleaseMethod is the method that returns the value to its pool.
	ReleaseMethod string
	// PoolVars are package-level sync.Pool variables whose Put calls count
	// as releases of this type ("pkgpath.varname").
	PoolVars []string
}

// Config selects what the passes enforce. The zero value runs nothing; use
// DefaultConfig for the DroidFuzz production rules.
type Config struct {
	// DeterminismRoots are the package paths whose transitive module-internal
	// import closure must stay deterministic (serial-mode replay).
	DeterminismRoots []string
	// Pooled lists the pool-recycled types poolcheck tracks.
	Pooled []PooledType
	// LockTypes are the fully qualified struct types whose mutex acquisition
	// order lockorder records and checks for inversions.
	LockTypes []string
	// WireRoots are the fully qualified struct types rooting the wire-frame
	// closure taggedfield fingerprints.
	WireRoots []string
	// WireManifest is the path of the committed frame-layout manifest
	// (relative paths resolve against the module root). Empty disables the
	// manifest comparison; interface-member checks still run.
	WireManifest string
	// SnapshotTypes are the fully qualified named types that are immutable
	// once published through an atomic pointer (relation.Snapshot); the
	// snapshot pass flags any write descending through a value of them.
	SnapshotTypes []string
	// SnapshotBuilders are the "pkgpath.FuncName" functions allowed to
	// write snapshot fields: construction under the master lock, before
	// publication.
	SnapshotBuilders []string
	// AtomicTypes are the fully qualified struct types whose fields the
	// atomics pass holds to atomic access discipline: atomic-typed fields
	// stay inside their Load/Store API, plain fields touched through
	// sync/atomic anywhere are atomic everywhere, and atomic.Pointer[T]
	// fields make T publish-immutable.
	AtomicTypes []string
	// CheckpointIface is the fully qualified snapshot subsystem interface
	// ("droidfuzz/internal/snap.Subsystem"); every implementing struct gets
	// checkpoint field-set completeness checks. Empty disables the pass.
	CheckpointIface string
	// GoroutineRoots are the package paths whose transitive module-internal
	// import closure the golifetime pass scans for `go` statements.
	GoroutineRoots []string
	// GoShutdownChans are the channel identifier/field/method names the
	// daemon's close sequence is known to signal; an unbounded goroutine
	// loop must receive from one of them to count as shutdown-tied.
	GoShutdownChans []string
}

// DefaultConfig returns the production rule set for the droidfuzz module.
func DefaultConfig() Config {
	return Config{
		DeterminismRoots: []string{
			"droidfuzz/internal/daemon",
			"droidfuzz/internal/engine",
			"droidfuzz/internal/gen",
			"droidfuzz/internal/relation",
			"droidfuzz/internal/dsl",
		},
		Pooled: []PooledType{
			{
				TypePath:      "droidfuzz/internal/feedback.Signal",
				ReleaseMethod: "Release",
				PoolVars:      []string{"droidfuzz/internal/feedback.signalPool"},
			},
			{
				TypePath:      "droidfuzz/internal/adb.ExecResult",
				ReleaseMethod: "Release",
				PoolVars:      []string{"droidfuzz/internal/adb.resultPool"},
			},
			{
				TypePath:      "droidfuzz/internal/adb.resTable",
				ReleaseMethod: "release",
				PoolVars:      []string{"droidfuzz/internal/adb.resPool"},
			},
		},
		LockTypes: []string{
			"droidfuzz/internal/adb.Conn",
			"droidfuzz/internal/feedback.SpecTable",
			"droidfuzz/internal/daemon.Daemon",
			"droidfuzz/internal/relation.Graph",
		},
		SnapshotTypes: []string{
			"droidfuzz/internal/relation.Snapshot",
			// PR 6 device checkpoints: the pristine-state payloads captured
			// at boot are the restore reference — a write into one after
			// capture corrupts every later Restore. Only the registered
			// Checkpoint/Restore implementations (and the snapshot capture
			// itself) may touch them.
			"droidfuzz/internal/device.Snapshot",
			"droidfuzz/internal/device.snapEntry",
			"droidfuzz/internal/vkernel.kernelState",
			"droidfuzz/internal/kasan.heapState",
			"droidfuzz/internal/binder.smState",
			"droidfuzz/internal/hal.procState",
			"droidfuzz/internal/drivers.tcpcState",
			"droidfuzz/internal/drivers.hciState",
			"droidfuzz/internal/drivers.v4l2State",
			"droidfuzz/internal/drivers.audioState",
			"droidfuzz/internal/drivers.gpuState",
			"droidfuzz/internal/drivers.wlanState",
			"droidfuzz/internal/drivers.sensorState",
			"droidfuzz/internal/drivers.nfcState",
			"droidfuzz/internal/drivers.thermalState",
			"droidfuzz/internal/drivers.touchState",
			// PR 7 runtime-parameter state: knob snapshots restore the
			// sysfs-visible values, one payload per driver family.
			"droidfuzz/internal/drivers.knobsState",
			// The payloads' entry types; the HCI connection and the KASAN
			// object are live driver and heap types as well, so they are
			// covered through their payloads instead.
			"droidfuzz/internal/drivers.v4l2Ctrl",
			"droidfuzz/internal/drivers.gpuBuffer",
			// Portable checkpoints: a decoded checkpoint is immutable — one
			// decode may seed any number of clone twins, so a write through
			// its payloads would corrupt every sibling.
			"droidfuzz/internal/device.Checkpoint",
		},
		SnapshotBuilders: []string{
			"droidfuzz/internal/relation.Graph.buildSnapshotLocked",
			// The row-incremental build shares an earlier snapshot's names,
			// weights, index and untouched rows, and writes only the fresh
			// row-header slices of the snapshot it is constructing.
			"droidfuzz/internal/relation.Graph.rebuildRowsLocked",
			// Device.Restore maintains the per-entry generation bookkeeping
			// the Snapshot contract explicitly allows; captureSnapshot and
			// the Checkpoint methods construct payloads before publication.
			"droidfuzz/internal/device.captureSnapshot",
			"droidfuzz/internal/device.Device.Restore",
			"droidfuzz/internal/vkernel.Kernel.Checkpoint",
			"droidfuzz/internal/vkernel.Kernel.Restore",
			"droidfuzz/internal/kasan.Heap.Checkpoint",
			"droidfuzz/internal/kasan.Heap.Restore",
			"droidfuzz/internal/binder.ServiceManager.Checkpoint",
			"droidfuzz/internal/binder.ServiceManager.Restore",
			"droidfuzz/internal/hal.Process.Checkpoint",
			"droidfuzz/internal/hal.Process.Restore",
			"droidfuzz/internal/drivers.TCPCDriver.Checkpoint",
			"droidfuzz/internal/drivers.TCPCDriver.Restore",
			"droidfuzz/internal/drivers.HCIDriver.Checkpoint",
			"droidfuzz/internal/drivers.HCIDriver.Restore",
			"droidfuzz/internal/drivers.V4L2Driver.Checkpoint",
			"droidfuzz/internal/drivers.V4L2Driver.Restore",
			"droidfuzz/internal/drivers.AudioDriver.Checkpoint",
			"droidfuzz/internal/drivers.AudioDriver.Restore",
			"droidfuzz/internal/drivers.GPUDriver.Checkpoint",
			"droidfuzz/internal/drivers.GPUDriver.Restore",
			"droidfuzz/internal/drivers.WLANDriver.Checkpoint",
			"droidfuzz/internal/drivers.WLANDriver.Restore",
			"droidfuzz/internal/drivers.SensorDriver.Checkpoint",
			"droidfuzz/internal/drivers.SensorDriver.Restore",
			"droidfuzz/internal/drivers.NFCDriver.Checkpoint",
			"droidfuzz/internal/drivers.NFCDriver.Restore",
			"droidfuzz/internal/drivers.ThermalDriver.Checkpoint",
			"droidfuzz/internal/drivers.ThermalDriver.Restore",
			"droidfuzz/internal/drivers.TouchDriver.Checkpoint",
			"droidfuzz/internal/drivers.TouchDriver.Restore",
			"droidfuzz/internal/drivers.Knobs.Checkpoint",
			"droidfuzz/internal/drivers.Knobs.Restore",
			// Clone twins: rebindSnapshot re-points a shared snapshot at a
			// twin's own subsystems (the payloads themselves stay shared).
			"droidfuzz/internal/device.rebindSnapshot",
		},
		WireRoots: []string{
			"droidfuzz/internal/adb.rpcRequest",
			"droidfuzz/internal/adb.rpcReply",
			"droidfuzz/internal/adb.CoordRequest",
			"droidfuzz/internal/adb.CoordReply",
		},
		WireManifest: "internal/adb/wire.lock",
		AtomicTypes: []string{
			// The fleet's lock-free hot state: engine step counters, the
			// two coverage collectors, dirty generations, crash-dedup
			// tallies, the graph's published-snapshot pointer, and the
			// sysfs knob values ioctl handlers read concurrently.
			"droidfuzz/internal/engine.Engine",
			"droidfuzz/internal/kcov.Bitmap",
			"droidfuzz/internal/kcov.Collector",
			"droidfuzz/internal/snap.Dirty",
			"droidfuzz/internal/crash.Dedup",
			"droidfuzz/internal/relation.Graph",
			"droidfuzz/internal/drivers.Knobs",
		},
		CheckpointIface: "droidfuzz/internal/snap.Subsystem",
		GoroutineRoots: []string{
			"droidfuzz/internal/daemon",
			"droidfuzz/internal/adb",
			"droidfuzz/internal/engine",
			"droidfuzz/internal/coord",
		},
		GoShutdownChans: []string{
			// quit: the transport writeLoop's poison channel (Conn.fail
			// closes it). Done: context.Context.Done() for any future
			// ctx-threaded worker.
			"quit",
			"Done",
		},
	}
}

// PassTiming records one pass's wall-clock cost; droidvet -v prints them.
type PassTiming struct {
	Pass     string
	Duration time.Duration
}

// Analyze runs every configured pass over the loaded program and returns
// the surviving (un-waived) findings sorted by position.
func Analyze(prog *Program, cfg Config) []Diagnostic {
	diags, _ := AnalyzeTimed(prog, cfg)
	return diags
}

// AnalyzeTimed is Analyze plus per-pass wall-clock timings, in run order.
// The program load (parsing + go/types) happens once in Load and the
// declaration index once on first use, so timings measure pass logic only.
func AnalyzeTimed(prog *Program, cfg Config) ([]Diagnostic, []PassTiming) {
	w, diags := collectWaivers(prog)
	var timings []PassTiming
	run := func(pass string, check func(*Program, Config) []Diagnostic) {
		start := time.Now()
		diags = append(diags, check(prog, cfg)...)
		timings = append(timings, PassTiming{Pass: pass, Duration: time.Since(start)})
	}
	run(PassDeterminism, checkDeterminism)
	run(PassPoolcheck, checkPools)
	run(PassLockorder, checkLockOrder)
	run(PassTaggedField, checkWireFrames)
	run(PassSnapshot, checkSnapshots)
	run(PassAtomics, checkAtomics)
	run(PassCheckpoint, checkCheckpoints)
	run(PassGoLifetime, checkGoLifetime)
	diags = w.filter(diags)
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		return a.Message < b.Message
	})
	return diags, timings
}

// waivers records //droidvet:<pass> comments. A waiver comment must START
// with the droidvet: marker (after the comment opener) — a prose mention of
// the syntax inside a doc comment is not a waiver. It suppresses findings
// of its pass from its own line through the line after its comment group,
// so it can ride at end-of-line, stand alone above the statement, or stack
// with waivers for other passes above a single statement. The file-scoped
// form //droidvet:<pass>-file waives the whole file. Trailing text after
// the pass name is the human rationale ("ephemeral <why>", "pre-publication
// <why>") and is not parsed.
type waivers struct {
	// line maps file -> pass -> waived line set.
	line map[string]map[string]map[int]bool
	// file maps file -> pass -> waived.
	file map[string]map[string]bool
}

// collectWaivers gathers every waiver in the program and reports malformed
// ones — a droidvet: comment naming an unknown pass suppresses nothing, so
// letting it sit silently would leave the finding it meant to own live.
func collectWaivers(prog *Program) (*waivers, []Diagnostic) {
	w := &waivers{
		line: make(map[string]map[string]map[int]bool),
		file: make(map[string]map[string]bool),
	}
	var diags []Diagnostic
	for _, pkg := range prog.Pkgs {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				groupEnd := prog.Fset.Position(cg.End()).Line
				for _, c := range cg.List {
					diags = append(diags, w.add(prog.Fset, c, groupEnd)...)
				}
			}
		}
	}
	return w, diags
}

func (w *waivers) add(fset *token.FileSet, c *ast.Comment, groupEnd int) []Diagnostic {
	const marker = "droidvet:"
	text := c.Text
	switch {
	case strings.HasPrefix(text, "//"):
		text = text[2:]
	case strings.HasPrefix(text, "/*"):
		text = strings.TrimSuffix(text[2:], "*/")
	}
	text = strings.TrimSpace(text)
	if !strings.HasPrefix(text, marker) {
		return nil
	}
	word := text[len(marker):]
	if j := strings.IndexAny(word, " \t"); j >= 0 {
		word = word[:j]
	}
	pos := fset.Position(c.Pos())
	pass, fileScoped := strings.CutSuffix(word, "-file")
	if !knownPasses[pass] {
		return []Diagnostic{{
			Pos:  pos,
			Pass: PassWaiver,
			Message: fmt.Sprintf(
				"//droidvet:%s names no known pass and waives nothing; valid passes: %s",
				word, strings.Join(sortedPassNames(), ", ")),
		}}
	}
	if fileScoped {
		byPass := w.file[pos.Filename]
		if byPass == nil {
			byPass = make(map[string]bool)
			w.file[pos.Filename] = byPass
		}
		byPass[pass] = true
		return nil
	}
	byPass := w.line[pos.Filename]
	if byPass == nil {
		byPass = make(map[string]map[int]bool)
		w.line[pos.Filename] = byPass
	}
	lines := byPass[pass]
	if lines == nil {
		lines = make(map[int]bool)
		byPass[pass] = lines
	}
	// The waiver's own line through the line after its comment group: an
	// end-of-line waiver covers its statement, a standalone one covers the
	// line below, and a stack of waivers above a statement all reach it.
	for l := pos.Line; l <= groupEnd+1; l++ {
		lines[l] = true
	}
	return nil
}

// sortedPassNames lists the known pass names for the malformed-waiver hint.
func sortedPassNames() []string {
	out := make([]string, 0, len(knownPasses))
	for p := range knownPasses {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}

func (w *waivers) waived(d Diagnostic) bool {
	if w.file[d.Pos.Filename][d.Pass] {
		return true
	}
	return w.line[d.Pos.Filename][d.Pass][d.Pos.Line]
}

func (w *waivers) filter(diags []Diagnostic) []Diagnostic {
	out := diags[:0]
	for _, d := range diags {
		if !w.waived(d) {
			out = append(out, d)
		}
	}
	return out
}

// lookupNamed resolves "pkgpath.Name" to its named type's struct object, or
// nil when the package or type is absent (configs may name types that only
// exist in some trees, e.g. the testdata fixtures).
func lookupNamed(prog *Program, typePath string) *types.TypeName {
	dot := strings.LastIndex(typePath, ".")
	if dot < 0 {
		return nil
	}
	pkg, ok := prog.Pkgs[typePath[:dot]]
	if !ok || pkg.Types == nil {
		return nil
	}
	obj := pkg.Types.Scope().Lookup(typePath[dot+1:])
	tn, _ := obj.(*types.TypeName)
	return tn
}

// lookupVar resolves "pkgpath.varname" to its package-level variable.
func lookupVar(prog *Program, varPath string) *types.Var {
	dot := strings.LastIndex(varPath, ".")
	if dot < 0 {
		return nil
	}
	pkg, ok := prog.Pkgs[varPath[:dot]]
	if !ok || pkg.Types == nil {
		return nil
	}
	obj := pkg.Types.Scope().Lookup(varPath[dot+1:])
	v, _ := obj.(*types.Var)
	return v
}

// namedOf unwraps pointers and aliases down to the *types.Named, or nil.
func namedOf(t types.Type) *types.Named {
	for {
		switch u := t.(type) {
		case *types.Pointer:
			t = u.Elem()
		case *types.Alias:
			t = types.Unalias(u)
		case *types.Named:
			return u
		default:
			return nil
		}
	}
}

// closure computes the transitive module-internal import closure of roots.
func closure(prog *Program, roots []string) map[string]bool {
	seen := make(map[string]bool)
	var walk func(path string)
	walk = func(path string) {
		if seen[path] {
			return
		}
		pkg, ok := prog.Pkgs[path]
		if !ok {
			return
		}
		seen[path] = true
		for _, imp := range pkg.Imports {
			walk(imp)
		}
	}
	for _, r := range roots {
		walk(r)
	}
	return seen
}

// funcFor returns the *types.Func declared by decl, or nil.
func funcFor(pkg *Package, decl *ast.FuncDecl) *types.Func {
	obj := pkg.Info.Defs[decl.Name]
	fn, _ := obj.(*types.Func)
	return fn
}

// calleeOf resolves a call expression to its static callee, or nil for
// dynamic calls (interface methods, function values, conversions).
func calleeOf(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := info.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			if fn, ok := sel.Obj().(*types.Func); ok && sel.Kind() == types.MethodVal {
				return fn
			}
			return nil
		}
		// Package-qualified call: pkg.Fn.
		fn, _ := info.Uses[fun.Sel].(*types.Func)
		return fn
	}
	return nil
}
