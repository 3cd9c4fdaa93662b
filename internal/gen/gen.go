// Package gen implements DroidFuzz's kernel–user relational payload
// generation (paper §IV-C): programs start from a base invocation drawn by
// vertex weight, grow along the relation graph's learned dependency edges,
// have unresolved resource arguments satisfied by inserting producer calls
// as prefixes, and are further evolved by syntax-aware mutation over the
// corpus.
package gen

import (
	"math/rand"

	"droidfuzz/internal/dsl"
	"droidfuzz/internal/relation"
)

// Options tune generation.
type Options struct {
	// NoRelations disables graph-guided dependency selection: the DF-NoRel
	// ablation generates with purely randomized dependencies.
	NoRelations bool
	// MaxLen bounds the walk length (default 8); resolution may add
	// producer calls beyond it up to HardCap.
	MaxLen int
	// StopProb is the per-step probability of ending the relation walk
	// (default 0.25).
	StopProb float64
	// InvalidResourceProb is the chance an unresolved resource argument is
	// deliberately left as an invalid handle to exercise error paths
	// (default 0.05).
	InvalidResourceProb float64
	// Epsilon is the exploration rate of relational generation: the
	// probability of drawing a uniform random call instead of following
	// vertex weights or learned edges at each step (default 0.35).
	// Exploitation without exploration over-concentrates on known chains
	// and starves argument-space diversity.
	Epsilon float64
}

// HardCap bounds total program length after producer insertion.
const HardCap = 24

func (o *Options) defaults() {
	if o.MaxLen <= 0 {
		o.MaxLen = 8
	}
	if o.StopProb <= 0 {
		o.StopProb = 0.25
	}
	if o.InvalidResourceProb <= 0 {
		o.InvalidResourceProb = 0.05
	}
	if o.Epsilon <= 0 {
		o.Epsilon = 0.35
	}
}

// Generator produces and mutates programs for one target.
type Generator struct {
	target *dsl.Target
	graph  *relation.Graph
	view   *relation.Snapshot
	rng    *rand.Rand
	opts   Options
	vt     *vertexTable
	// step is the reusable buffer of walk's single relation steps.
	step []int32
	// hasParams records whether the target carries runtime-parameter
	// descriptions. When it is false the param operators are never offered,
	// so a param-free campaign draws the exact RNG sequence it always did.
	hasParams bool
}

// vertexTable maps relation-graph vertex ids to a target's descriptions
// (descs; nil marks a vertex of another model sharing the graph) and back
// (ids). It grows as the graph gains vertices (see snap).
type vertexTable struct {
	descs []*dsl.CallDesc
	ids   map[*dsl.CallDesc]int32
}

// New builds a generator. The graph may be shared across engines.
func New(target *dsl.Target, graph *relation.Graph, rng *rand.Rand, opts Options) *Generator {
	opts.defaults()
	return &Generator{
		target: target, graph: graph, rng: rng, opts: opts,
		vt:        &vertexTable{ids: make(map[*dsl.CallDesc]int32, len(target.Calls()))},
		hasParams: len(target.ParamCalls()) > 0,
	}
}

// Fork returns a generator for g's target, graph and options that draws
// from rng, with no pinned view: it generates exactly what New would with
// the same arguments. It shares g's vertex-id table instead of building
// its own, so it must be used on g's goroutine.
func (g *Generator) Fork(rng *rand.Rand) *Generator {
	return &Generator{target: g.target, graph: g.graph, rng: rng, opts: g.opts, vt: g.vt, hasParams: g.hasParams}
}

// Target returns the generator's description target.
func (g *Generator) Target() *dsl.Target { return g.target }

// SetView pins the relation-graph view the generator reads. With a pinned
// view, Generate and Mutate consult exactly that snapshot instead of the
// graph's live one, making generation a pure function of (view, RNG state)
// — the pipelined producer repins at deterministic sync points so a
// pipelined campaign reproduces itself regardless of goroutine scheduling.
// Passing nil unpins: the generator follows the live graph again.
func (g *Generator) SetView(s *relation.Snapshot) { g.view = s }

// snap returns the graph view generation reads from: the pinned view when
// one is set, otherwise the graph's current snapshot. It first extends the
// id tables to every vertex the view has.
func (g *Generator) snap() *relation.Snapshot {
	s := g.view
	if s == nil {
		s = g.graph.Snapshot()
	}
	if vt, names := g.vt, s.Names(); len(vt.descs) < len(names) {
		for _, name := range names[len(vt.descs):] {
			d := g.target.Lookup(name)
			if d != nil {
				vt.ids[d] = int32(len(vt.descs))
			}
			vt.descs = append(vt.descs, d)
		}
	}
	return s
}

// descOf returns this target's description of vertex id, or nil when the
// vertex belongs to another model. The id must come from a view snap
// returned.
func (g *Generator) descOf(id int32) *dsl.CallDesc { return g.vt.descs[id] }

// idOf returns d's vertex id, or -1 when the graph lacks it, which reads
// as a vertex without edges. The id tables must be current: call snap
// first.
func (g *Generator) idOf(d *dsl.CallDesc) int32 {
	if id, ok := g.vt.ids[d]; ok {
		return id
	}
	return -1
}

// instantiate builds a call with randomized arguments.
func (g *Generator) instantiate(desc *dsl.CallDesc) *dsl.Call {
	c := &dsl.Call{Desc: desc, Args: make([]dsl.Arg, len(desc.Args))}
	for i, f := range desc.Args {
		c.Args[i] = dsl.RandomArg(f.Type, g.rng)
	}
	dsl.FixupLens(c)
	return c
}

// randomDesc draws a description uniformly.
func (g *Generator) randomDesc() *dsl.CallDesc {
	calls := g.target.Calls()
	if len(calls) == 0 {
		return nil
	}
	return calls[g.rng.Intn(len(calls))]
}

// pickBase draws a base invocation: with probability Epsilon a uniform
// random call (exploration), otherwise by vertex weight (exploitation). It
// returns the vertex id and this target's description of it (nil for
// another model's vertex), and ok false when there is nothing to draw.
func (g *Generator) pickBase() (id int32, d *dsl.CallDesc, ok bool) {
	snap := g.snap()
	if g.rng.Float64() < g.opts.Epsilon {
		if d := g.randomDesc(); d != nil {
			return g.idOf(d), d, true
		}
	}
	if id := snap.PickBase(g.rng); id >= 0 {
		return id, g.descOf(id), true
	}
	if d := g.randomDesc(); d != nil {
		return g.idOf(d), d, true
	}
	return -1, nil, false
}

// walk traverses the relation graph from vertex `from`, injecting uniform
// random detours at rate Epsilon so learned chains stay mixed with fresh
// calls, and appends to path this target's description of each vertex it
// visits, at most maxLen of them; a nil entry is another model's vertex,
// which the walk still steps through.
func (g *Generator) walk(path []*dsl.CallDesc, from int32, maxLen int) []*dsl.CallDesc {
	// Pin one snapshot for the whole walk: every step reads the same
	// consistent view lock-free, and concurrent Learns simply land in the
	// next generation's snapshot.
	snap := g.snap()
	cur := from
	for range maxLen {
		if g.rng.Float64() < g.opts.StopProb {
			break
		}
		if g.rng.Float64() < g.opts.Epsilon {
			d := g.randomDesc()
			if d == nil {
				break
			}
			path = append(path, d)
			cur = g.idOf(d)
			continue
		}
		g.step = snap.Walk(g.step[:0], g.rng, cur, 1, 0)
		if len(g.step) == 0 {
			break
		}
		cur = g.step[0]
		path = append(path, g.descOf(cur))
	}
	return path
}

// Generate produces a fresh program: base invocation by vertex weight, a
// relation-graph walk for the dependent calls (or a random tail under
// NoRelations), then producer resolution.
func (g *Generator) Generate() *dsl.Prog {
	var descs []*dsl.CallDesc
	maxLen := g.opts.MaxLen
	if maxLen > HardCap {
		maxLen = HardCap
	}
	n := 1 + g.rng.Intn(maxLen)
	if g.opts.NoRelations {
		// Randomized dependency generation: uniform draws.
		for i := 0; i < n; i++ {
			if d := g.randomDesc(); d != nil {
				descs = append(descs, d)
			}
		}
	} else {
		// Relational generation fills the same length budget with
		// weighted base invocations and graph walks; multiple clusters
		// share resources through producer resolution, which is how
		// independent learned chains combine into longer
		// cross-interface interactions. Another model's vertices count
		// towards the budget but are not instantiated.
		for len(descs) < n {
			id, d, ok := g.pickBase()
			if !ok {
				break
			}
			descs = append(descs, d)
			descs = g.walk(descs, id, n-len(descs))
		}
	}
	p := &dsl.Prog{}
	for _, d := range descs {
		if d == nil {
			continue
		}
		p.Calls = append(p.Calls, g.instantiate(d))
	}
	if p.Len() == 0 {
		if d := g.randomDesc(); d != nil {
			p.Calls = append(p.Calls, g.instantiate(d))
		}
	}
	return g.Resolve(p)
}

// Resolve satisfies unresolved resource arguments: link to an earlier
// producing call when one exists, otherwise instantiate a producer call and
// insert it as a prefix (paper §IV-C: "find producer calls ... and insert
// it into the call sequence as a prefix to the current call"). It runs to a
// fixpoint so producers' own resources resolve transitively. It edits p in
// place, so p must be the caller's own program, never corpus storage.
func (g *Generator) Resolve(p *dsl.Prog) *dsl.Prog {
	for pass := 0; pass < HardCap; pass++ {
		inserted := false
		for i := 0; i < p.Len(); i++ {
			c := p.Calls[i]
			for ai, f := range c.Desc.Args {
				if f.Type.Kind != dsl.KindResource || c.Args[ai].Ref >= 0 {
					continue
				}
				if g.rng.Float64() < g.opts.InvalidResourceProb {
					continue // keep the invalid handle on purpose
				}
				// Link to an existing earlier producer if any.
				var cands []int
				for j := 0; j < i; j++ {
					if p.Calls[j].Desc.Ret == f.Type.Res {
						cands = append(cands, j)
					}
				}
				if len(cands) > 0 {
					c.Args[ai].Ref = cands[g.rng.Intn(len(cands))]
					continue
				}
				prods := g.target.Producers(f.Type.Res)
				if len(prods) == 0 || p.Len() >= HardCap {
					continue
				}
				prod := g.instantiate(prods[g.rng.Intn(len(prods))])
				p.InsertCall(i, prod)
				c.Args[ai].Ref = i
				inserted = true
				break
			}
			if inserted {
				break
			}
		}
		if !inserted {
			break
		}
	}
	return p
}

// MutateOp identifies a mutation operator, exposed for stats.
type MutateOp int

// Mutation operators.
const (
	OpMutateArgs MutateOp = iota
	OpInsertCall
	OpRemoveCall
	OpSplice
	OpAppendWalk
	OpParamPrefix
)

// Mutate evolves a seed program. donor, when non-nil, enables the splice
// operator. The returned program is always freshly allocated and valid.
// seed and donor are only read: callers pass corpus programs as shared
// read-only storage (corpus.PickN), so the one clone of seed below and
// splice's copies of the donor's calls are the only copies a mutation
// makes.
func (g *Generator) Mutate(seed *dsl.Prog, donor *dsl.Prog) (*dsl.Prog, MutateOp) {
	p := seed.Clone()
	ops := []MutateOp{OpMutateArgs, OpMutateArgs, OpInsertCall, OpInsertCall, OpRemoveCall}
	if donor != nil && donor.Len() > 0 {
		ops = append(ops, OpSplice)
	}
	if !g.opts.NoRelations {
		ops = append(ops, OpAppendWalk, OpAppendWalk)
	}
	if g.hasParams {
		ops = append(ops, OpParamPrefix)
	}
	op := ops[g.rng.Intn(len(ops))]
	switch op {
	case OpMutateArgs:
		p = g.mutateArgs(p)
	case OpInsertCall:
		p = g.insertCall(p)
	case OpRemoveCall:
		p = g.removeCall(p)
	case OpSplice:
		p = g.splice(p, donor)
	case OpAppendWalk:
		p = g.appendWalk(p)
	case OpParamPrefix:
		p = g.paramPrefix(p)
	}
	p = g.Resolve(p)
	for _, c := range p.Calls {
		dsl.FixupLens(c)
	}
	return p, op
}

// mutateArgs re-randomizes one or two mutable arguments of a random call.
// Resource arguments mutate by redirecting to a different earlier producer
// of the same kind — the operator that splices independently-grown clusters
// onto one shared object.
func (g *Generator) mutateArgs(p *dsl.Prog) *dsl.Prog {
	if p.Len() == 0 {
		return p
	}
	ci := g.rng.Intn(p.Len())
	c := p.Calls[ci]
	mutable := make([]int, 0, len(c.Desc.Args))
	for i, f := range c.Desc.Args {
		switch f.Type.Kind {
		case dsl.KindConst, dsl.KindLen:
		case dsl.KindResource:
			if ci > 0 {
				mutable = append(mutable, i)
			}
		default:
			mutable = append(mutable, i)
		}
	}
	if len(mutable) == 0 {
		return p
	}
	n := 1 + g.rng.Intn(2)
	for ; n > 0; n-- {
		i := mutable[g.rng.Intn(len(mutable))]
		f := c.Desc.Args[i]
		if f.Type.Kind == dsl.KindResource {
			var cands []int
			for j := 0; j < ci; j++ {
				if p.Calls[j].Desc.Ret == f.Type.Res {
					cands = append(cands, j)
				}
			}
			if len(cands) > 0 {
				c.Args[i].Ref = cands[g.rng.Intn(len(cands))]
			}
			continue
		}
		if f.Type.Kind == dsl.KindBuffer && len(c.Args[i].Data) > 0 && g.rng.Intn(2) == 0 {
			// Byte-level tweak instead of full regeneration.
			b := append([]byte(nil), c.Args[i].Data...)
			b[g.rng.Intn(len(b))] ^= byte(1 << g.rng.Intn(8))
			c.Args[i].Data = b
			continue
		}
		if f.Type.Kind == dsl.KindInt && g.rng.Intn(3) == 0 {
			// Boundary values find validation bugs.
			bounds := []uint64{f.Type.Min, f.Type.Max, 0, f.Type.Max + 1, ^uint64(0)}
			c.Args[i].Val = bounds[g.rng.Intn(len(bounds))]
			continue
		}
		c.Args[i] = dsl.RandomArg(f.Type, g.rng)
	}
	dsl.FixupLens(c)
	return p
}

// insertCall adds a call at a random position; with relations enabled, the
// call is drawn from the graph successors of its predecessor when possible.
func (g *Generator) insertCall(p *dsl.Prog) *dsl.Prog {
	if p.Len() >= HardCap {
		return p
	}
	pos := g.rng.Intn(p.Len() + 1)
	var desc *dsl.CallDesc
	if !g.opts.NoRelations && pos > 0 {
		// Snapshot successors are read-only shared storage: no per-call
		// copy, no graph lock.
		snap := g.snap()
		succ := snap.Successors(g.idOf(p.Calls[pos-1].Desc))
		if len(succ) > 0 && g.rng.Float64() < 0.7 {
			desc = g.descOf(succ[g.rng.Intn(len(succ))].ID)
		}
	}
	if desc == nil {
		desc = g.randomDesc()
	}
	if desc == nil {
		return p
	}
	p.InsertCall(pos, g.instantiate(desc))
	return p
}

// removeCall drops a random call (keeping at least one).
func (g *Generator) removeCall(p *dsl.Prog) *dsl.Prog {
	if p.Len() <= 1 {
		return p
	}
	return p.RemoveCall(g.rng.Intn(p.Len()))
}

// appendWalk extends the program with new calls: a relation-graph walk
// continuing from the final call when it has successors, otherwise a fresh
// weighted base invocation (possibly walked further). This is the
// generation-time traversal of §IV-C applied as a mutation.
func (g *Generator) appendWalk(p *dsl.Prog) *dsl.Prog {
	if p.Len() == 0 || p.Len() >= HardCap {
		return p
	}
	g.snap() // the id tables must cover the last call's vertex
	descs := g.walk(nil, g.idOf(p.Calls[p.Len()-1].Desc), 3)
	if len(descs) == 0 {
		if id, d, ok := g.pickBase(); ok {
			descs = append(descs, d)
			descs = g.walk(descs, id, 2)
		}
	}
	for _, d := range descs {
		if d == nil || p.Len() >= HardCap {
			continue
		}
		p.Calls = append(p.Calls, g.instantiate(d))
	}
	return p
}

// paramPrefix plants a knob write in front of a random call — the producer
// insertion of §IV-C extended to the runtime-parameter dimension. The
// relation graph's predecessor edges record which param writes historically
// ran before a call revealed coverage; replaying the strongest learned knob
// write first is what re-unlocks the gated branch. Without a learned
// dependency the operator explores with a uniformly drawn param write.
func (g *Generator) paramPrefix(p *dsl.Prog) *dsl.Prog {
	if p.Len() == 0 || p.Len() >= HardCap {
		return p
	}
	ci := g.rng.Intn(p.Len())
	var cands []*dsl.CallDesc
	var weights []float64
	var total float64
	snap := g.snap()
	for _, e := range snap.Predecessors(g.idOf(p.Calls[ci].Desc)) {
		d := g.descOf(e.ID)
		if d == nil || d.Class != dsl.ClassParam {
			continue
		}
		cands = append(cands, d)
		weights = append(weights, e.Weight)
		total += e.Weight
	}
	var desc *dsl.CallDesc
	if len(cands) == 0 || total <= 0 {
		params := g.target.ParamCalls()
		if len(params) == 0 {
			return p
		}
		desc = params[g.rng.Intn(len(params))]
	} else {
		x := g.rng.Float64() * total
		desc = cands[len(cands)-1]
		for i, w := range weights {
			x -= w
			if x <= 0 {
				desc = cands[i]
				break
			}
		}
	}
	p.InsertCall(ci, g.instantiate(desc))
	return p
}

// splice appends copies of the donor's calls (with internal references
// remapped) after a random prefix of p, truncating to HardCap. p is the
// mutation's private clone, so its prefix calls move over uncopied; the
// donor is shared read-only storage and is never written.
func (g *Generator) splice(p *dsl.Prog, donor *dsl.Prog) *dsl.Prog {
	cut := g.rng.Intn(p.Len() + 1)
	out := &dsl.Prog{Calls: append([]*dsl.Call(nil), p.Calls[:cut]...)}
	offset := len(out.Calls)
	for _, c := range donor.Calls {
		if len(out.Calls) >= HardCap {
			break
		}
		nc := c.Clone()
		for i := range nc.Args {
			if nc.Desc.Args[i].Type.Kind == dsl.KindResource && nc.Args[i].Ref >= 0 {
				nc.Args[i].Ref += offset
			}
		}
		out.Calls = append(out.Calls, nc)
	}
	return out
}
