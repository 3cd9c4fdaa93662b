// Pristine-reset campaign modes and the fork-style lineage scheduler.
//
// Both features build on checkpoint portability (internal/device,
// internal/adb.Cloner): a device's full mutable state exports to an opaque
// blob that can be re-imported later — onto the same device or a clone —
// in O(state) time, far below a boot plus probing pass. The reset modes
// use the executor's ordinary reset (the O(dirty-state) snapshot rewind,
// carried by the executor call it precedes) to start every program or
// batch from pristine state, trading a bounded per-exec cost for
// state-independent, directly-reproducible findings.
// The lineage scheduler uses Export/ImportCheckpoint to fork the device
// state *after* a freshly admitted prefix and fan K independent mutation
// lineages out from that point, amortizing the prefix execution across
// K*LineageLen mutants — the fork-server idiom, at device-state
// granularity.
package engine

import (
	"math/rand"

	"droidfuzz/internal/dsl"
	"droidfuzz/internal/gen"
)

// Reset campaign modes (Config.Reset).
const (
	// ResetNever accumulates device state within a boot; resets happen
	// only on crash fallout. This is the historical default ("" means the
	// same).
	ResetNever = "never"
	// ResetExec rewinds the device to its pristine checkpoint before
	// every program, so each execution observes boot-fresh driver state.
	ResetExec = "exec"
	// ResetBatch rewinds before every executor batch — every
	// DefaultBatchSize executions when programs execute one at a time.
	ResetBatch = "batch"
)

// ValidResetMode reports whether s names a reset campaign mode (the empty
// string is the ResetNever default). Front-ends validate flag input with
// it before building a Config.
func ValidResetMode(s string) bool {
	switch s {
	case "", ResetNever, ResetExec, ResetBatch:
		return true
	}
	return false
}

// resetBefore applies the pristine-reset campaign mode before one executor
// call carrying batch programs. ResetExec rewinds before every call; a
// device-side batch cannot be split per program, so with batch > 1 it
// degrades to batch granularity — the batch still starts pristine.
// ResetBatch rewinds before every call with batch > 1 and every
// DefaultBatchSize executions otherwise. ResetNever leaves the historical
// accumulate-within-a-boot behavior untouched.
func (e *Engine) resetBefore(batch int) {
	switch e.cfg.Reset {
	case ResetExec:
		e.reset()
	case ResetBatch:
		if batch > 1 || e.execs.Load()%DefaultBatchSize == 0 {
			e.reset()
		}
	}
}

// lineageSalt decorrelates lineage RNG streams from the engine RNG and
// the look-ahead producer RNG (which uses pipelineSalt).
const lineageSalt = 0x517cc1b727220a95

// lineage is the fork-style fan-out scheduler: called when prefix was
// just admitted with new kernel coverage, it replays the prefix on a
// pristine device, checkpoints the post-prefix state, and runs
// Config.LineageK independent mutation lineages of Config.LineageLen
// programs each against that state — every mutant inherits the prefix's
// device state without re-executing the prefix.
//
// Each lineage pins the fan-out point's engine-state view (the look-ahead
// producer's pipeView discipline) and derives its RNG purely from
// (campaign seed, prefix identity, lineage index), so a lineage is
// self-reproducible and decorrelated from its siblings regardless of
// what the campaign executed before the fan-out point.
func (e *Engine) lineage(prefix *dsl.Prog) {
	if e.cl == nil || e.inLineage || prefix.Len() == 0 {
		return
	}
	e.inLineage = true
	defer func() { e.inLineage = false }()

	// The fan-out needs two checkpoints: the campaign's pristine reset
	// point (cached — it never changes within a campaign) and the
	// post-prefix state.
	e.reset()
	if e.pristine == nil {
		e.flushResets()
		blob, err := e.cl.ExportCheckpoint()
		if err != nil {
			e.execErrors.Add(1)
			return
		}
		e.pristine = blob
	}
	res := e.execOne(prefix)
	e.execs.Add(1)
	if res == nil {
		e.execErrors.Add(1)
		return
	}
	bad := len(res.Crashes) > 0 || res.NeedsReboot()
	res.Release()
	if bad {
		// The prefix does not replay cleanly (flaky crash, kernel wedge):
		// not a state worth forking.
		e.reset()
		return
	}
	post, err := e.cl.ExportCheckpoint()
	if err != nil {
		e.execErrors.Add(1)
		e.reset()
		return
	}

	e.land()
	view := pipeView{snap: e.graph.Snapshot(), corpusLen: e.corpus.Len()}
	salt := progSalt(prefix)
	for k := 0; k < e.cfg.LineageK; k++ {
		// Importing the checkpoint also makes it the state crash-fallout
		// resets rewind to, so a mid-lineage crash recovers to the
		// post-prefix fork point, not to boot.
		e.flushResets()
		if err := e.cl.ImportCheckpoint(post); err != nil {
			e.execErrors.Add(1)
			break
		}
		lrng := rand.New(rand.NewSource(int64(uint64(e.cfg.Seed) ^ lineageSalt ^ salt ^ uint64(k+1)*0x9e3779b97f4a7c15)))
		lgen := e.gen.Fork(lrng)
		lgen.SetView(view.snap)
		for i := 0; i < e.cfg.LineageLen; i++ {
			donor := e.corpus.PickN(lrng, view.corpusLen)
			p, _ := lgen.Mutate(prefix, donor)
			e.lineageStep(prefix, p)
		}
	}

	// Wind the device back to the campaign's pristine reset point; the
	// import reinstates it as the state later resets rewind to. If even
	// that fails (remote link down), fall back to a reboot so the
	// campaign never continues from a half-lineage state.
	e.flushResets()
	if err := e.cl.ImportCheckpoint(e.pristine); err != nil {
		e.execErrors.Add(1)
		if e.x.Reboot() == nil {
			e.reboots.Add(1)
		}
	}
}

// lineageStep executes one lineage mutant against the inherited
// post-prefix device state and folds the outcome back without recursing
// into another fan-out. Discoveries are admitted as prefix+mutant
// concatenations so the corpus entry is self-contained from a pristine
// boot; minimization is skipped — the mid-lineage reset point is the
// post-prefix checkpoint, so a from-pristine minimization pass would cost
// an extra checkpoint round trip per candidate (DESIGN.md records the
// tradeoff).
func (e *Engine) lineageStep(prefix, p *dsl.Prog) {
	res, sig := e.afterExec(p, e.execOne(p))
	e.lineageExecs.Add(1)
	e.mutated.Add(1)
	newElems := e.acc.MergeNew(sig)
	if newElems.KernelLen() > 0 {
		if full := concatProgs(prefix, p); full != nil {
			e.newSig.Add(1)
			e.corpus.Add(full, seedScore(newElems))
			if !e.cfg.NoRelations {
				e.learn(full)
			}
		}
	}
	newElems.Release()
	sig.Release()
	res.Release()
	e.sanitizeStep()
}

// concatProgs builds prefix followed by tail as one self-contained
// program, shifting tail's resource references past the prefix
// (references are producing-call indices within one program). It returns
// nil when the concatenation would exceed gen.HardCap — an oversized
// entry would be truncated by every later mutation anyway.
func concatProgs(prefix, tail *dsl.Prog) *dsl.Prog {
	if prefix.Len()+tail.Len() > gen.HardCap {
		return nil
	}
	pc := prefix.Clone()
	tc := tail.Clone()
	shift := len(pc.Calls)
	for _, c := range tc.Calls {
		for j := range c.Args {
			if c.Desc.Args[j].Type.Kind == dsl.KindResource && c.Args[j].Ref >= 0 {
				c.Args[j].Ref += shift
			}
		}
	}
	return &dsl.Prog{Calls: append(pc.Calls, tc.Calls...)}
}

// progSalt hashes a program's canonical text (FNV-1a) into the lineage
// RNG derivation, so distinct fan-out points get decorrelated streams
// even within one campaign.
func progSalt(p *dsl.Prog) uint64 {
	h := uint64(14695981039346656037)
	for _, b := range []byte(p.String()) {
		h ^= uint64(b)
		h *= 1099511628211
	}
	return h
}
