// Package engine implements the host-side Fuzzing Engine (paper §IV-A):
// one per device, it produces test cases (relational generation plus
// corpus mutation), ships them to the device's execution broker, interprets
// the cross-boundary feedback, minimizes and admits interesting programs,
// learns relations, and triages crashes.
//
// Every campaign runs one loop (RunSchedule): pick the next program, ship
// it to the broker, and fold the feedback back in. One derived number, the
// look-ahead, decides where programs come from. With none (Run) they are
// generated inline from one RNG against live state, so a fixed seed
// replays a campaign bit-identically. With a look-ahead a producer
// goroutine generates ahead of execution from its own derived RNG against
// pinned state views — reproducible against itself, trading bit-identity
// with the serial schedule for throughput (the deployment-shape tradeoff;
// see DESIGN.md).
package engine

import (
	"errors"
	"math/rand"
	"sync/atomic"

	"droidfuzz/internal/adb"
	"droidfuzz/internal/corpus"
	"droidfuzz/internal/crash"
	"droidfuzz/internal/dsl"
	"droidfuzz/internal/feedback"
	"droidfuzz/internal/gen"
	"droidfuzz/internal/relation"
)

// Fixed campaign tuning.
const (
	// generateRatio is the probability of fresh generation vs corpus
	// mutation; mutation dominates once a corpus exists.
	generateRatio = 0.4
	// dirAdmitProb is the probability of admitting a program whose only
	// novelty is directional (HAL-order) signal. Every fresh interleaving
	// hashes to new directional elements, so admitting them all floods the
	// corpus and starves kernel-productive seeds; subsampling keeps the
	// ordering guidance at a bounded dilution cost.
	dirAdmitProb = 0.25
	// snapshotEvery is the coverage-history sampling period in executions.
	snapshotEvery = 25
	// maxMinimizeExecs bounds the extra executions spent per minimization.
	maxMinimizeExecs = 12
)

// Config tunes one engine.
type Config struct {
	// Seed seeds the engine's RNG; campaigns are reproducible.
	Seed int64
	// NoRelations is the DF-NoRel ablation: random dependency generation
	// and no relation learning.
	NoRelations bool
	// NoHALCov is the DF-NoHCov ablation: directional HAL coverage is
	// dropped from the feedback signal.
	NoHALCov bool
	// DecayEvery is the period (in executions) of relation-weight decay
	// (default 400).
	DecayEvery uint64
	// DecayFactor multiplies edge weights at each decay (default 0.9; the
	// valid range is (0,1), values outside it fall back to the default).
	DecayFactor float64
	// SkipMinimize disables reproducing-signal minimization before corpus
	// admission and relation learning (on by default).
	SkipMinimize bool
	// Params enables the runtime-parameter dimension: the probing pass
	// discovers writable sysfs knobs, the target gains their write
	// descriptions, and generation may plant knob writes before the calls
	// they unlock. Off by default — a param-free target offers generation
	// no param operators, so disabled campaigns replay bit-identically to
	// historical seeds. The engine itself is gated by the target contents;
	// this flag is consumed at target-assembly time (baseline, daemon).
	Params bool
	// Reset selects the pristine-reset campaign mode: "" or ResetNever
	// accumulates device state within a boot (historical behavior),
	// ResetExec restores the pristine checkpoint before every program, and
	// ResetBatch before every executor batch (every DefaultBatchSize
	// executions when programs execute one at a time). The exec/batch
	// modes lean on the snapshot restore path, so their steady-state cost
	// is an O(dirty-state) rewind per reset, not a reboot.
	Reset string
	// LineageK, when positive and the executor supports checkpoint
	// portability (adb.Cloner), enables fork-style corpus fan-out: a
	// corpus admission carrying new kernel coverage checkpoints the
	// post-prefix device state and runs LineageK independent mutation
	// lineages against it, each inheriting the prefix's device state
	// without re-executing the prefix. 0 disables fan-out.
	LineageK int
	// LineageLen is the number of mutants each lineage executes
	// (default 8 when LineageK is set).
	LineageLen int
	// Gen forwards generation options.
	Gen gen.Options
}

func (c *Config) defaults() {
	if c.DecayEvery == 0 {
		c.DecayEvery = 400
	}
	if c.DecayFactor <= 0 || c.DecayFactor >= 1 {
		c.DecayFactor = 0.9
	}
	if c.Reset == "" {
		c.Reset = ResetNever
	}
	if c.LineageK > 0 && c.LineageLen <= 0 {
		c.LineageLen = 8
	}
	c.Gen.NoRelations = c.NoRelations
}

// Stats are engine counters.
type Stats struct {
	Execs        uint64
	Generated    uint64
	Mutated      uint64
	NewSignal    uint64
	ExecErrors   uint64
	ParamWrites  uint64
	LineageExecs uint64
	CorpusSize   int
	Crashes      int
	UniqueBugs   int
	Reboots      int
	Restores     int
	KernelCov    int
	TotalSignal  int
}

// Engine drives fuzzing for one device.
type Engine struct {
	x      adb.Executor
	target *dsl.Target
	gen    *gen.Generator
	graph  *relation.Graph
	corpus *corpus.Corpus
	acc    *feedback.Accumulator
	spec   *feedback.SpecTable
	dedup  *crash.Dedup
	rng    *rand.Rand
	cfg    Config

	// modelID is the device identity cached from the attach-time
	// handshake, so crash attribution keeps working while a remote link is
	// down.
	modelID string

	// bx and cl are the executor's optional batch and checkpoint
	// extensions, asserted once at construction (nil when unsupported).
	bx adb.BatchExecutor
	cl adb.Cloner

	// journal is the engine's append-only relation learn journal: every
	// dependency pair learn records, in order. A pair's index is its
	// sequence number and never resets. The first landed pairs are in the
	// shared graph; land applies the rest.
	journal [][2]string
	landed  int

	// prng and pgen are the look-ahead producer's RNG and generator,
	// created once per engine so successive RunSchedule calls continue one
	// draw stream instead of replaying it.
	prng *rand.Rand
	pgen *gen.Generator

	// pristine caches the campaign's pristine checkpoint blob so lineage
	// fan-outs can wind the device back without re-exporting it every
	// time; inLineage guards against a fan-out triggering another fan-out.
	pristine  []byte
	inLineage bool

	// Counters are atomics so the daemon's status path can snapshot them
	// mid-campaign without stalling the engine goroutine. Only the engine
	// itself writes them.
	execs        atomic.Uint64
	generated    atomic.Uint64
	mutated      atomic.Uint64
	newSig       atomic.Uint64
	execErrors   atomic.Uint64
	paramWrites  atomic.Uint64
	lineageExecs atomic.Uint64
	crashes      atomic.Int64
	reboots      atomic.Int64
	restores     atomic.Int64
}

// New builds an engine over an executor whose target already includes
// probed HAL interfaces — the in-process broker, a transport connection, or
// a resilient remote client; everything above this boundary is
// transport-agnostic. The relation graph and dedup collector may be shared
// with other engines (the daemon owns them).
func New(x adb.Executor, graph *relation.Graph, dedup *crash.Dedup, cfg Config) *Engine {
	cfg.defaults()
	target := x.Target()
	rng := rand.New(rand.NewSource(cfg.Seed))
	prng := rand.New(rand.NewSource(int64(uint64(cfg.Seed) ^ pipelineSalt)))
	var spec *feedback.SpecTable
	if !cfg.NoHALCov {
		spec = feedback.NewSpecTable(target)
	}
	// Seed the relation graph's vertices from the target's descriptions.
	for _, d := range target.Calls() {
		graph.AddVertex(d.Name, d.Weight)
	}
	e := &Engine{
		x:      x,
		target: target,
		gen:    gen.New(target, graph, rng, cfg.Gen),
		graph:  graph,
		corpus: corpus.New(),
		acc:    feedback.NewAccumulator(),
		spec:   spec,
		dedup:  dedup,
		rng:    rng,
		cfg:    cfg,
		prng:   prng,
		pgen:   gen.New(target, graph, prng, cfg.Gen),
	}
	e.bx, _ = x.(adb.BatchExecutor)
	e.cl, _ = x.(adb.Cloner)
	// Best-effort identity snapshot: the in-process broker always answers;
	// a resilient remote client answers from its handshake cache even when
	// the link is down.
	if info, err := x.Info(); err == nil || info.ModelID != "" {
		e.modelID = info.ModelID
		e.reboots.Store(int64(info.Reboots))
		e.restores.Store(int64(info.Restores))
	}
	return e
}

// Corpus exposes the engine's corpus (persistence, tests).
func (e *Engine) Corpus() *corpus.Corpus { return e.corpus }

// Executor exposes the engine's execution boundary (diagnostics).
func (e *Engine) Executor() adb.Executor { return e.x }

// Broker exposes the in-process execution broker when the engine runs over
// one (diagnostics, fault injection in tests); it returns nil for remote
// executors.
func (e *Engine) Broker() *adb.Broker {
	b, _ := e.x.(*adb.Broker)
	return b
}

// Accumulator exposes the coverage accumulator.
func (e *Engine) Accumulator() *feedback.Accumulator { return e.acc }

// Dedup exposes the crash collector.
func (e *Engine) Dedup() *crash.Dedup { return e.dedup }

// Graph exposes the relation graph.
func (e *Engine) Graph() *relation.Graph { return e.graph }

// Gen exposes the generator (diagnostics, distribution analysis).
func (e *Engine) Gen() *gen.Generator { return e.gen }

// Execs reports executions so far (the virtual-time clock).
func (e *Engine) Execs() uint64 { return e.execs.Load() }

// Stats snapshots the counters. Safe to call from the daemon's status path
// while the engine is mid-campaign: every source is an atomic or takes a
// short independent lock.
func (e *Engine) Stats() Stats {
	return Stats{
		Execs:        e.execs.Load(),
		Generated:    e.generated.Load(),
		Mutated:      e.mutated.Load(),
		NewSignal:    e.newSig.Load(),
		ExecErrors:   e.execErrors.Load(),
		ParamWrites:  e.paramWrites.Load(),
		LineageExecs: e.lineageExecs.Load(),
		CorpusSize:   e.corpus.Len(),
		Crashes:      int(e.crashes.Load()),
		UniqueBugs:   e.dedup.Len(),
		Reboots:      int(e.reboots.Load()),
		Restores:     int(e.restores.Load()),
		KernelCov:    e.acc.KernelTotal(),
		TotalSignal:  e.acc.Total(),
	}
}

// reset brings the device back to pristine post-boot state through the
// executor. The executor restores from its boot snapshot when it can (an
// O(dirty-state) rewind) and falls back to a full reboot otherwise; either
// way the engine observes a pristine device, so the two paths are
// interchangeable for campaign determinism and only the counters differ.
// In-process resets cannot fail; a remote reset that does (broker down
// mid-campaign) counts against ExecErrors like any other boundary failure
// and the campaign proceeds — the next execution surfaces the same link
// trouble anyway.
func (e *Engine) reset() {
	restored, err := e.x.Reset()
	if err != nil {
		e.execErrors.Add(1)
		return
	}
	if restored {
		e.restores.Add(1)
	} else {
		e.reboots.Add(1)
	}
}

// exec runs one program, bumping virtual time and handling crash fallout.
// Both returned values are pooled; the caller releases them.
func (e *Engine) exec(p *dsl.Prog) (*adb.ExecResult, *feedback.Signal) {
	res, err := e.x.ExecProg(p)
	return e.afterExec(p, res, err)
}

// afterExec is the post-execution half of exec, shared with the campaign
// loop: virtual time, error accounting, and crash fallout (reboot, dedup,
// triage). res may be nil on error. Both returned values are pooled; the
// caller releases them.
func (e *Engine) afterExec(p *dsl.Prog, res *adb.ExecResult, err error) (*adb.ExecResult, *feedback.Signal) {
	e.execs.Add(1)
	if err != nil || res == nil {
		// Executor errors are surfaced through the ExecErrors counter
		// rather than silently swallowed; the iteration proceeds on an
		// empty result so virtual time still advances.
		e.execErrors.Add(1)
		return adb.GetResult(), feedback.NewSignal()
	}
	for _, c := range p.Calls {
		if c.Desc.Class == dsl.ClassParam {
			e.paramWrites.Add(1)
		}
	}
	if len(res.Crashes) > 0 {
		e.crashes.Add(int64(len(res.Crashes)))
		var fresh []string
		for _, cr := range res.Crashes {
			if _, isNew := e.dedup.Add(e.modelID, cr, p, e.execs.Load()); isNew {
				fresh = append(fresh, crash.NormalizeTitle(cr.Title))
			}
		}
		// The paper's configuration reboots the target on any bug,
		// including warnings and HAL errors (§V-A).
		e.reset()
		// New unique findings are reproduced on a clean boot and their
		// reproducers minimized ("all bugs triggered were initially
		// minimized, deduplicated, and reproduced", §V-B).
		for _, title := range fresh {
			e.triageCrash(p, title)
		}
	}
	return res, feedback.FromExec(res, e.spec)
}

// SeedCorpus executes the given programs and admits them to the corpus
// unminimized, bootstrapping fuzzing with realistic workloads (the distilled
// framework traces from the probing pass). Relations are learned from their
// call orders and land in the graph before SeedCorpus returns.
func (e *Engine) SeedCorpus(progs []*dsl.Prog) {
	for _, p := range progs {
		res, sig := e.exec(p)
		newElems := e.acc.MergeNew(sig)
		score := newElems.Len()
		if score == 0 {
			score = 1
		}
		newElems.Release()
		sig.Release()
		res.Release()
		e.corpus.Add(p, score)
		if !e.cfg.NoRelations {
			e.learn(p)
		}
	}
	e.land()
}

// pending is one selected program awaiting execution.
type pending struct {
	p         *dsl.Prog
	generated bool
}

// nextFrom selects the program for one iteration: fresh generation or
// corpus mutation, drawn from the given RNG and generator, with seeds drawn
// only from the first climit corpus entries (climit < 0: the whole corpus).
// The draw order (the seed PickN, then the short-circuited ratio draw, then
// the donor PickN) is part of the serial determinism contract — do not
// reorder. Both picks are the corpus's own programs, shared read-only:
// generation discards the seed uncopied, and Mutate's clone is the only
// copy a mutation makes.
func (e *Engine) nextFrom(rng *rand.Rand, g *gen.Generator, climit int) pending {
	seed := e.corpus.PickN(rng, climit)
	if seed == nil || rng.Float64() < generateRatio {
		return pending{g.Generate(), true}
	}
	donor := e.corpus.PickN(rng, climit)
	p, _ := g.Mutate(seed, donor)
	return pending{p, false}
}

// feed folds one execution's outcome back into the engine: counters,
// single-pass signal merge (one lock acquisition), minimization and
// admission, relation learning, lineage fan-out, decay, and history
// sampling. It consumes (releases) res and sig; all per-execution state is
// pooled, so the steady state allocates only when a program is admitted.
func (e *Engine) feed(p *dsl.Prog, generated bool, res *adb.ExecResult, sig *feedback.Signal) {
	if generated {
		e.generated.Add(1)
	} else {
		e.mutated.Add(1)
	}

	var lineageSeed *dsl.Prog
	newElems := e.acc.MergeNew(sig)
	if newElems.Len() > 0 {
		e.newSig.Add(1)
		admit := newElems.KernelLen() > 0 || e.rng.Float64() < dirAdmitProb
		if admit {
			admitted := p
			if !e.cfg.SkipMinimize {
				admitted = e.minimize(p, newElems)
			}
			e.corpus.Add(admitted, seedScore(newElems))
			if !e.cfg.NoRelations {
				e.learn(admitted)
			}
			// Kernel-productive admissions are fan-out points: the lineage
			// scheduler forks the post-prefix device state K ways once the
			// pooled per-execution state is released below.
			if e.cfg.LineageK > 0 && !e.inLineage && newElems.KernelLen() > 0 {
				lineageSeed = admitted
			}
		}
		// Direction-only novelty below the subsample was already folded
		// into the accumulator by MergeNew, so it stops counting as new
		// without a corpus entry.
	}
	newElems.Release()
	sig.Release()
	res.Release()

	if lineageSeed != nil {
		e.lineage(lineageSeed)
	}

	if e.execs.Load()%e.cfg.DecayEvery == 0 {
		e.land()
		e.graph.Decay(e.cfg.DecayFactor, 0.01)
	}
	if e.execs.Load()%snapshotEvery == 0 {
		e.acc.Snapshot(e.execs.Load())
	}
	e.sanitizeStep()
}

// Run executes n fuzzing iterations serially: deterministic for a fixed
// seed. It is RunSchedule with no look-ahead.
func (e *Engine) Run(n int) { e.RunSchedule(n, 0, 1) }

// pipelineSalt decorrelates the producer RNG from the engine RNG so the
// two streams never repeat each other's draws.
const pipelineSalt = 0x9e3779b97f4a7c15

// DefaultBatchSize is the ResetBatch cadence, in executions, when programs
// execute one at a time.
const DefaultBatchSize = 16

// RunSchedule executes n iterations of the campaign loop (paper §IV-A):
// select a program, apply the reset mode, execute, and fold the result
// back (signal merge, minimize and admit, learn, lineage fan-out, decay,
// crash triage).
//
// depth and batch shape one derived number, the look-ahead
// L = depth + batch − 1: how many programs may be selected before the
// oldest of them has been fed back. A batch is selected in full before any
// of it executes, so batch > 1 counts depth as at least 1.
//
//   - L = 0 is the serial schedule: each program is generated inline from
//     the engine RNG against live state, so a fixed seed replays the
//     campaign bit-identically.
//   - L > 0 moves selection to a producer goroutine with a private RNG
//     derived from the seed. It selects item i against the engine-state
//     view (relation-graph snapshot + corpus length) captured after item
//     i−L was fed back, never against live state, so the campaign is
//     reproducible against itself regardless of goroutine scheduling but
//     not bit-identical to the serial one: mutation speculates on a view
//     that admission has advanced L items past.
//
// Each executor call carries batch programs: a batch of 1 goes through
// ExecProg, a larger one through the BatchExecutor extension in summary
// mode — over a remote link one windowed wire frame per batch and an
// interesting-only coverage uplink. Executors without the extension run
// one program per call under the same look-ahead. Results are fed back
// per program in order; a mid-batch crash reboots the device while the
// rest of the batch still runs, so batched crash timing is coarsened to
// batch granularity (see DESIGN.md). Relation learns are journaled during
// the fold and land in the shared graph per executor call (see land).
//
// The producer's RNG and generator belong to the engine, so a campaign cut
// into several RunSchedule calls continues one producer draw stream.
func (e *Engine) RunSchedule(n, depth, batch int) {
	batch = max(batch, 1)
	depth = max(depth, 0)
	if batch > 1 {
		depth = max(depth, 1)
	}
	lookahead := depth + batch - 1
	if e.bx == nil {
		batch = 1
	}
	next := func() pending { return e.nextFrom(e.rng, e.gen, -1) }
	fed := func() {}
	if lookahead > 0 {
		next, fed = e.produce(n, lookahead)
	}
	items := make([]pending, 0, batch)
	for done := 0; done < n; done += len(items) {
		items = items[:0]
		for len(items) < batch && done+len(items) < n {
			items = append(items, next())
		}
		e.execBatch(items, batch, fed)
	}
	e.acc.Snapshot(e.execs.Load())
}

// pipeView is the engine-state view the look-ahead producer generates
// against: an immutable relation-graph snapshot and the corpus length at the
// capture point (the corpus is append-only, so a length pins a prefix view).
// Views are captured by the loop at deterministic points — after feeding
// item j it hands the producer the view for item j+L — which makes
// look-ahead generation a pure function of (seed, iteration index) instead
// of a race against the loop's admissions and learns.
type pipeView struct {
	snap      *relation.Snapshot
	corpusLen int
}

// produce starts the look-ahead producer for an n-iteration run and returns
// the loop's program source and the hook the loop calls after each program
// is fully fed back, which releases the view for the item lookahead ahead.
// At most lookahead views are ever outstanding (prefilled, plus one per fed
// item, minus one per produced item), so the hook never blocks.
func (e *Engine) produce(n, lookahead int) (next func() pending, fed func()) {
	ch := make(chan pending, lookahead)
	views := make(chan pipeView, lookahead)
	v0 := pipeView{snap: e.graph.Snapshot(), corpusLen: e.corpus.Len()}
	for i := 0; i < min(lookahead, n); i++ {
		views <- v0
	}
	go func() {
		for i := 0; i < n; i++ {
			v := <-views
			e.pgen.SetView(v.snap)
			ch <- e.nextFrom(e.prng, e.pgen, v.corpusLen)
		}
	}()
	done := 0
	return func() pending { return <-ch }, func() {
		done++
		if done+lookahead <= n {
			views <- pipeView{snap: e.graph.Snapshot(), corpusLen: e.corpus.Len()}
		}
	}
}

// execBatch is the loop's one executor call: it applies the reset mode,
// ships the items — through ExecProg when batch is 1, otherwise through
// ExecBatch with each program serialized once (retries inside a resilient
// executor reuse the same text) — and folds every result back in order,
// calling fed after each. The call's journaled learns land once the last
// result is fed back, before its fed hook captures the next view.
// Programs a batch failed to cover (a transport error after retries, a
// broker rejection) count as ExecErrors, exactly like a failed single
// execution.
func (e *Engine) execBatch(items []pending, batch int, fed func()) {
	e.resetBefore(batch)
	if batch == 1 {
		it := items[0]
		res, err := e.x.ExecProg(it.p)
		res, sig := e.afterExec(it.p, res, err)
		e.feed(it.p, it.generated, res, sig)
		e.land()
		fed()
		return
	}
	texts := make([]string, len(items))
	for i, it := range items {
		texts[i] = it.p.String()
	}
	results, _ := e.bx.ExecBatch(adb.ExecBatchRequest{Progs: texts, Summary: true})
	for i, it := range items {
		var res *adb.ExecResult
		err := errBatchShortfall
		if i < len(results) && results[i] != nil {
			res, err = results[i], nil
		}
		res, sig := e.afterExec(it.p, res, err)
		e.feed(it.p, it.generated, res, sig)
		if i == len(items)-1 {
			e.land()
		}
		fed()
	}
}

// errBatchShortfall marks a batched program whose result never arrived.
var errBatchShortfall = errors.New("engine: batched execution not acknowledged")

// minimize reduces the program to the essential calls that still reproduce
// all newly found signal elements (paper §IV-C: "minimize the call to the
// bare bones API and system calls"). Every check runs on a freshly
// rebooted device: device state persists across programs within a boot, so
// minimizing in place would keep state-dependent fragments that are
// useless as standalone seeds and would teach the relation graph
// accidental adjacencies.
func (e *Engine) minimize(p *dsl.Prog, want *feedback.Signal) *dsl.Prog {
	// First check the program is self-contained at all.
	e.reset()
	if !e.coversOnCurrentBoot(p, want) {
		// The new signal depended on accumulated device state; keep the
		// raw program (it is still a valid splice donor).
		e.reset()
		return p
	}
	budget := maxMinimizeExecs
	cur := p
	for i := cur.Len() - 1; i >= 0 && budget > 0; i-- {
		if cur.Len() <= 1 {
			break
		}
		cand := cur.RemoveCall(i)
		e.reset()
		budget--
		if e.coversOnCurrentBoot(cand, want) {
			cur = cand
		}
	}
	e.reset()
	return cur
}

// coversOnCurrentBoot executes p and reports whether its signal contains
// every element of want; crashes make the check fail (and the caller
// reboots before the next candidate anyway).
func (e *Engine) coversOnCurrentBoot(p *dsl.Prog, want *feedback.Signal) bool {
	res, err := e.x.ExecProg(p)
	e.execs.Add(1)
	if err != nil {
		e.execErrors.Add(1)
		return false
	}
	if len(res.Crashes) > 0 || res.NeedsReboot() {
		res.Release()
		return false
	}
	sig := feedback.FromExec(res, e.spec)
	ok := sig.ContainsAll(want)
	sig.Release()
	res.Release()
	return ok
}

// seedScore prioritizes corpus entries: new kernel coverage is worth far
// more than new directional (HAL-order) signal. Directional novelty is
// plentiful — every fresh interleaving hashes differently — so scoring it
// at parity would let order-novel programs drown out the seeds that still
// advance kernel state.
func seedScore(newElems *feedback.Signal) int {
	kernel := newElems.KernelLen()
	return kernel*8 + (newElems.Len() - kernel)
}

// crashTriageBudget bounds the executions spent minimizing one reproducer.
const crashTriageBudget = 32

// triageCrash reproduces a new finding on a clean boot and minimizes its
// reproducer, updating the shared record.
func (e *Engine) triageCrash(p *dsl.Prog, title string) {
	if !e.crashesWith(p, title) {
		// State from earlier programs in the same boot was required; the
		// raw program is kept but marked non-reproducing.
		e.dedup.UpdateRepro(title, nil, false)
		e.reset()
		return
	}
	e.reset()
	cur := p
	budget := crashTriageBudget
	for i := cur.Len() - 1; i >= 0 && budget > 0 && cur.Len() > 1; i-- {
		cand := cur.RemoveCall(i)
		budget--
		if e.crashesWith(cand, title) {
			cur = cand
		}
		e.reset()
	}
	e.dedup.UpdateRepro(title, cur, true)
}

// crashesWith executes p and reports whether it raises the given
// (normalized) crash title. The caller reboots afterwards.
func (e *Engine) crashesWith(p *dsl.Prog, title string) bool {
	res, err := e.x.ExecProg(p)
	e.execs.Add(1)
	if err != nil {
		e.execErrors.Add(1)
		return false
	}
	hit := false
	for _, cr := range res.Crashes {
		if crash.NormalizeTitle(cr.Title) == title {
			hit = true
			break
		}
	}
	res.Release()
	return hit
}

// learn journals the adjacent-pair dependencies of a minimized program
// (paper Eq. (1)); land applies them to the relation graph.
func (e *Engine) learn(p *dsl.Prog) {
	for i := 1; i < p.Len(); i++ {
		e.journal = append(e.journal, [2]string{p.Calls[i-1].Desc.Name, p.Calls[i].Desc.Name})
	}
}

// land applies the journal's pending pairs to the shared graph in journal
// order. The loop lands once an executor call's results have all been fed
// back, and feed lands before a decay or a lineage view capture, so the
// graph sees the engine's learns in the order they were made relative to
// its own decays and views; with batch 1 that is where a synchronous
// learn would land. With nothing pending it costs no lock and no
// allocation.
func (e *Engine) land() {
	for _, p := range e.journal[e.landed:] {
		e.graph.Learn(p[0], p[1])
	}
	e.landed = len(e.journal)
}

// LearnOps returns the journaled pairs from sequence number from on as
// learn records stamped with device — the feed a federation uplink reads
// by cursor. Call it only while the engine is not running.
func (e *Engine) LearnOps(device string, from int) []relation.LearnOp {
	if from >= len(e.journal) {
		return nil
	}
	ops := make([]relation.LearnOp, 0, len(e.journal)-from)
	for i, p := range e.journal[from:] {
		ops = append(ops, relation.LearnOp{A: p[0], B: p[1], Device: device, Seq: uint64(from + i)})
	}
	return ops
}
