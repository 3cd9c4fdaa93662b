// Package relation implements DroidFuzz's kernel–user relation graph
// (paper §IV-C): a directed weighted graph G_rel = (V, E) whose vertices are
// the individual system calls and HAL interfaces, each carrying a fixed
// weight w ∈ (0,1) that is the probability mass of being chosen as the base
// invocation, and whose edges carry learned dependency confidence.
//
// When a minimized program reveals new coverage, each adjacent ordered pair
// a→b is learned with the paper's Eq. (1):
//
//	w(a,b) = 1 - Σ_{e=(x,b), x≠a} w(x,b) / 2
//
// while the other edges into b are halved, so the in-weights of b stay
// normalized to 1 and the freshest dependency dominates. Periodic decay
// multiplies all edge weights by a factor < 1 to keep exploration alive.
//
// Vertices are dense int32 ids, assigned in insertion order. Each vertex
// has an out-row and an in-row of (id, weight) arcs, kept sorted by weight
// descending and then by the other end's name ascending; generation reads
// those rows, through a published Snapshot, by id. Names stay at the
// boundaries: the learn journal and federation (LearnOp), String, and the
// name-keyed accessors tests and diagnostics use.
package relation

import (
	"fmt"
	"math/bits"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
)

// Arc is one entry of a vertex's row: the vertex at the other end of the
// edge and the edge's weight.
type Arc struct {
	ID     int32
	Weight float64
}

// Vertex is a name-keyed copy of one vertex, built on demand by
// Graph.Vertex for tests and diagnostics.
type Vertex struct {
	Name string
	// Weight is the fixed base-invocation weight from descriptions
	// (syscalls) or probing (HAL interfaces).
	Weight float64
	// Out maps successor names to edge weights (dependency a→b means b
	// depends on a having run before it).
	Out map[string]float64
	// In maps predecessor names to the same edge weights.
	In map[string]float64
}

// Graph is the relation graph. Safe for concurrent use: the daemon shares
// one relation table across fuzzing engines (paper §IV-A).
//
// Storage is copy-on-write against the published Snapshot, which shares
// the graph's names, weights, page table, pages and rows. Every publish
// starts a new epoch; a page table, page, row or weight slice the graph
// allocated in the current epoch is private and written in place, and
// anything older is copied before its first write. So no published
// storage is ever written, and a burst of Learns between two publishes
// copies each row it touches once.
type Graph struct {
	mu      sync.Mutex
	ids     map[string]int32
	names   []string // by id: insertion order
	weights []float64
	total   float64 // insertion-order sum of weights, PickBase's total
	// byName lists the ids in ascending name order and rank is its
	// inverse: rank[id] breaks weight ties in every row.
	byName []int32
	rank   []int32
	pages  []*page
	// epoch counts publishes; the *Own fields record the epoch in which
	// the graph last allocated the page table, each page, each row and
	// the weight slice. Equal to epoch means private.
	epoch      uint64
	tableOwn   uint64
	weightsOwn uint64
	pageOwn    []uint64
	outOwn     []uint64
	inOwn      []uint64
	edges      int
	// learns counts Learn operations, for stats.
	learns uint64
	// snap is the published immutable view; mutators store nil and the
	// next Snapshot() call publishes under mu. Generation-time reads
	// (PickBase, Walk, Successors) go through it lock-free.
	snap atomic.Pointer[Snapshot]
	// sumBits and sumVals are Learn's scratch, indexed by rank: the halved
	// sibling weights, summed in name order.
	sumBits []uint64
	sumVals []float64
	san     graphSan
}

// New returns a graph with no vertices.
func New() *Graph {
	return &Graph{ids: make(map[string]int32), epoch: 1}
}

// AddVertex inserts a vertex with the given base weight. Re-adding an
// existing name updates its weight and keeps its edges.
func (g *Graph) AddVertex(name string, weight float64) {
	if weight <= 0 {
		weight = 0.01
	}
	if weight >= 1 {
		weight = 0.99
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if id, ok := g.ids[name]; ok {
		if g.weights[id] == weight {
			return
		}
		if g.weightsOwn != g.epoch {
			g.weights = slices.Clone(g.weights)
			g.weightsOwn = g.epoch
		}
		g.weights[id] = weight
		// The total is an insertion-order sum, so a changed term means
		// summing again.
		g.total = 0
		for _, w := range g.weights {
			g.total += w
		}
	} else {
		// Appends write past the end of every published slice, which
		// no snapshot reads, so they need no copy.
		id := int32(len(g.names))
		g.ids[name] = id
		g.names = append(g.names, name)
		g.weights = append(g.weights, weight)
		if id&pageMask == 0 {
			g.pages = append(g.pages, new(page))
			g.pageOwn = append(g.pageOwn, g.epoch)
		}
		g.outOwn = append(g.outOwn, 0)
		g.inOwn = append(g.inOwn, 0)
		// A new name shifts the ranks after it by one, which keeps
		// every row's order.
		pos, _ := slices.BinarySearchFunc(g.byName, name, func(x int32, name string) int {
			return strings.Compare(g.names[x], name)
		})
		g.byName = slices.Insert(g.byName, pos, id)
		g.rank = append(g.rank, 0)
		for i := pos; i < len(g.byName); i++ {
			g.rank[g.byName[i]] = int32(i)
		}
		g.sumVals = append(g.sumVals, 0)
		if len(g.sumBits)*64 < len(g.names) {
			g.sumBits = append(g.sumBits, 0)
		}
		g.total += weight
	}
	g.invalidateLocked()
}

// Vertex returns a name-keyed copy of the named vertex, or nil.
func (g *Graph) Vertex(name string) *Vertex {
	g.mu.Lock()
	defer g.mu.Unlock()
	id, ok := g.ids[name]
	if !ok {
		return nil
	}
	out, in := g.out(id), g.in(id)
	v := &Vertex{Name: name, Weight: g.weights[id],
		Out: make(map[string]float64, len(out)),
		In:  make(map[string]float64, len(in))}
	for _, e := range out {
		v.Out[g.names[e.ID]] = e.Weight
	}
	for _, e := range in {
		v.In[g.names[e.ID]] = e.Weight
	}
	return v
}

// Len reports the number of vertices.
func (g *Graph) Len() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return len(g.names)
}

// Edges reports the number of directed edges.
func (g *Graph) Edges() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.edges
}

// Learns reports how many relations were learned since construction.
func (g *Graph) Learns() uint64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.learns
}

// EdgeWeight returns the weight of a→b, or 0 if absent.
func (g *Graph) EdgeWeight(a, b string) float64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	ia, ok := g.ids[a]
	if !ok {
		return 0
	}
	ib, ok := g.ids[b]
	if !ok {
		return 0
	}
	if i := find(g.out(ia), ib); i >= 0 {
		return g.out(ia)[i].Weight
	}
	return 0
}

// Learn records the dependency a→b per Eq. (1): existing sibling edges into
// b are halved, and the new edge takes the remaining normalized mass.
// Unknown vertices are ignored (descriptions change across probing runs).
func (g *Graph) Learn(a, b string) {
	if a == b {
		return
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	ia, ok := g.ids[a]
	if !ok {
		return
	}
	ib, ok := g.ids[b]
	if !ok {
		return
	}
	g.learnLocked(ia, ib)
	g.learns++
	g.invalidateLocked()
	g.sanCheck("Learn", 0)
}

// learnLocked applies Eq. (1) to a→b in O(in-degree of b plus the lengths
// of the rows it rewrites); g.mu must be held.
func (g *Graph) learnLocked(a, b int32) {
	in := g.in(b)
	// The halved weights of b's other in-edges are summed in producer
	// name order, the order the accumulation has always run in, so the
	// remainder is bit-identical across runs and implementations. The
	// rank bitset visits them in that order without a sort.
	for _, e := range in {
		if e.ID != a {
			r := g.rank[e.ID]
			g.sumVals[r] = e.Weight / 2
			g.sumBits[r>>6] |= 1 << (r & 63)
		}
	}
	var sum float64
	for i, word := range g.sumBits {
		for word != 0 {
			sum += g.sumVals[i<<6|bits.TrailingZeros64(word)]
			word &= word - 1
		}
		g.sumBits[i] = 0
	}
	w := 1 - sum
	if w < 0 {
		w = 0
	}
	// Each sibling's edge into b halves, so within the sibling's out-row
	// it can only move towards the lighter end.
	for _, e := range in {
		if e.ID == a {
			continue
		}
		row := *g.mutRow(e.ID, false)
		i := find(row, b)
		row[i].Weight /= 2
		g.sift(row, i)
	}
	// Halving every other in-edge of b keeps their order, except where
	// rounding in the subnormal range ties two weights; settle re-sorts
	// those. Then a's edge goes in at its place.
	rowp := g.mutRow(b, true)
	row, n, existed := *rowp, 0, false
	for _, e := range row {
		if e.ID == a {
			existed = true
			continue
		}
		row[n] = Arc{e.ID, e.Weight / 2}
		n++
	}
	row = row[:n]
	g.settle(row)
	*rowp = g.insert(row, Arc{a, w})

	rowp = g.mutRow(a, false)
	row = *rowp
	if existed {
		i := find(row, b)
		row[i].Weight = w
		g.sift(row, i)
	} else {
		*rowp = g.insert(row, Arc{b, w})
		g.edges++
	}
}

// Decay multiplies every edge weight by factor (0 < factor < 1), the
// periodic reduction that keeps DroidFuzz exploring new interaction paths.
// Edges decayed below floor are pruned.
func (g *Graph) Decay(factor, floor float64) {
	if factor <= 0 || factor >= 1 {
		return
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	// Every published row is copied, all into one allocation sized for
	// the arcs that survive; a row this epoch already owns is scaled in
	// place.
	need := 0
	for id := range g.names {
		if g.outOwn[id] != g.epoch {
			need += survivors(g.out(int32(id)), factor, floor)
		}
		if g.inOwn[id] != g.epoch {
			need += survivors(g.in(int32(id)), factor, floor)
		}
	}
	arena := make([]Arc, need)
	for id := range g.names {
		g.decayRow(int32(id), false, factor, floor, &arena)
		g.decayRow(int32(id), true, factor, floor, &arena)
	}
	g.invalidateLocked()
	g.sanCheck("Decay", floor)
}

// decayRow scales one row by factor and drops the arcs that fall below
// floor. Scaling never reorders two weights, but rounding can tie two
// that differed; settle re-sorts exactly those. A published row is
// rewritten into the front of *arena, which then advances past it.
func (g *Graph) decayRow(id int32, in bool, factor, floor float64, arena *[]Arc) {
	src := g.out(id)
	if in {
		src = g.in(id)
	}
	if len(src) == 0 {
		return
	}
	r := g.writable(id)
	dst, own := &r.out, &g.outOwn[id]
	if in {
		dst, own = &r.in, &g.inOwn[id]
	}
	row := src[:0]
	if *own != g.epoch {
		n := survivors(src, factor, floor)
		row = (*arena)[:0:n]
		*arena = (*arena)[n:]
		*own = g.epoch
	}
	for _, e := range src {
		nw := e.Weight * factor
		if nw < floor {
			if !in {
				g.edges--
			}
			continue
		}
		row = append(row, Arc{e.ID, nw})
	}
	g.settle(row)
	if len(row) == 0 {
		row = nil
	}
	*dst = row
}

// survivors counts the arcs of row that Decay(factor, floor) keeps.
func survivors(row []Arc, factor, floor float64) int {
	n := 0
	for _, e := range row {
		if e.Weight*factor >= floor {
			n++
		}
	}
	return n
}

// PickBase draws a base invocation by name through the published Snapshot:
// vertices are sampled proportionally to their fixed weights (paper: the
// vertex weight "corresponds to the probability at which the system call
// or interface is chosen during generation as the base invocation"). It
// returns "" on an empty graph. Generation uses Snapshot.PickBase, which
// returns the id.
func (g *Graph) PickBase(rng *rand.Rand) string {
	s := g.Snapshot()
	if id := s.PickBase(rng); id >= 0 {
		return s.names[id]
	}
	return ""
}

// Successors returns the out-edges of name sorted by descending weight
// then ascending successor name, as a fresh name-keyed copy for tests and
// diagnostics; generation reads Snapshot.Successors by id.
func (g *Graph) Successors(name string) []Edge {
	g.mu.Lock()
	defer g.mu.Unlock()
	id, ok := g.ids[name]
	if !ok {
		return nil
	}
	out := g.out(id)
	if len(out) == 0 {
		return nil
	}
	edges := make([]Edge, len(out))
	for i, e := range out {
		edges[i] = Edge{From: name, To: g.names[e.ID], Weight: e.Weight}
	}
	return edges
}

// Edge is one named directed dependency with its confidence weight, the
// form Graph.Successors reports.
type Edge struct {
	From, To string
	Weight   float64
}

// Walk performs the generation-time traversal of Snapshot.Walk by name:
// starting from `from`, it repeatedly steps to a successor with
// probability proportional to edge weight, stopping when the stop
// probability fires or no successor exists. The returned slice excludes
// the starting vertex and has at most maxLen elements.
func (g *Graph) Walk(rng *rand.Rand, from string, maxLen int, stopProb float64) []string {
	g.mu.Lock()
	id, ok := g.ids[from]
	g.mu.Unlock()
	if !ok {
		id = -1
	}
	s := g.Snapshot()
	var path []string
	for _, v := range s.Walk(nil, rng, id, maxLen, stopProb) {
		path = append(path, s.names[v])
	}
	return path
}

// Names returns the vertex names in insertion order.
func (g *Graph) Names() []string {
	g.mu.Lock()
	defer g.mu.Unlock()
	return slices.Clone(g.names)
}

// String summarizes the graph.
func (g *Graph) String() string {
	g.mu.Lock()
	defer g.mu.Unlock()
	return fmt.Sprintf("relation.Graph(%d vertices, %d edges, %d learned)",
		len(g.names), g.edges, g.learns)
}

// CheckInvariants verifies the graph's structural invariants — the
// properties every perf shortcut and the §IV-C math rely on:
//
//   - out/in mirror consistency: w(a,b) recorded in a's out-row equals the
//     copy in b's in-row, and neither side has an edge the other lacks;
//   - weight range: every edge weight is in [0, 1] (Eq. (1) assigns the
//     normalized remainder, never more);
//   - Eq. (1) normalization: the in-weight sum of every vertex is ≤ 1
//     (within float tolerance);
//   - the edge counter matches the number of out-row entries.
//
// It returns the first violation found, or nil. Row order is the
// sanitizer's full-rebuild comparison's to check. The droidfuzz_sanitize
// build runs it after every Learn and Decay; tests and tools may call it
// directly at any time.
func (g *Graph) CheckInvariants() error {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.sanVerifySnapLocked()
	return g.checkInvariantsLocked(0)
}

// checkInvariantsLocked is CheckInvariants with g.mu already held; a
// positive minWeight additionally asserts the decay floor (no surviving
// edge below it — Decay must prune, not underflow).
func (g *Graph) checkInvariantsLocked(minWeight float64) error {
	const eps = 1e-6
	n := int32(len(g.names))
	out := make(map[[2]int32]float64, g.edges)
	for a := range n {
		for _, e := range g.out(a) {
			if e.ID < 0 || e.ID >= n {
				return fmt.Errorf("edge %s->#%d points at a missing vertex", g.names[a], e.ID)
			}
			name := g.names[a] + "->" + g.names[e.ID]
			if _, dup := out[[2]int32{a, e.ID}]; dup {
				return fmt.Errorf("edge %s is recorded twice", name)
			}
			out[[2]int32{a, e.ID}] = e.Weight
			if e.Weight < 0 || e.Weight > 1+eps {
				return fmt.Errorf("edge %s weight %g outside [0,1]", name, e.Weight)
			}
			if minWeight > 0 && e.Weight < minWeight {
				return fmt.Errorf("edge %s weight %g survived below the decay floor %g", name, e.Weight, minWeight)
			}
		}
	}
	recorded := len(out)
	for b := range n {
		var sum float64
		for _, e := range g.in(b) {
			if e.ID < 0 || e.ID >= n {
				return fmt.Errorf("in-edge #%d->%s names a missing vertex", e.ID, g.names[b])
			}
			key := [2]int32{e.ID, b}
			w, ok := out[key]
			if !ok {
				return fmt.Errorf("in-edge %s->%s has no matching out-row entry", g.names[e.ID], g.names[b])
			}
			if w != e.Weight {
				return fmt.Errorf("edge %s->%s mirror mismatch: out=%g in=%g", g.names[e.ID], g.names[b], w, e.Weight)
			}
			delete(out, key)
			sum += e.Weight
		}
		if sum > 1+eps {
			return fmt.Errorf("in-weight sum of %s is %g > 1: Eq. (1) normalization violated", g.names[b], sum)
		}
	}
	if len(out) > 0 {
		return fmt.Errorf("%d out-row entries have no in-row mirror", len(out))
	}
	if recorded != g.edges {
		return fmt.Errorf("edge counter %d does not match %d recorded edges", g.edges, recorded)
	}
	return nil
}

// InWeightSum returns the total in-edge weight of b (≈1 after learning, by
// Eq. (1) normalization); exposed for tests and invariant checks.
func (g *Graph) InWeightSum(b string) float64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	id, ok := g.ids[b]
	if !ok {
		return 0
	}
	var sum float64
	for _, e := range g.in(id) {
		sum += e.Weight
	}
	return sum
}
