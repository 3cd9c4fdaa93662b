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
package relation

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
)

// Vertex is one system call or HAL interface node.
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
	// idx is the vertex's insertion position, its row in every Snapshot.
	idx int
}

// Graph is the relation graph. Safe for concurrent use: the daemon shares
// one relation table across fuzzing engines (paper §IV-A).
type Graph struct {
	mu    sync.Mutex
	verts map[string]*Vertex
	names []string // insertion order for deterministic iteration
	edges int
	// learns counts Learn operations, for stats.
	learns uint64
	// snap is the published immutable view; mutators store nil and the
	// next Snapshot() call rebuilds under mu. Generation-time reads
	// (PickBase, Walk, Successors) go through it lock-free.
	snap atomic.Pointer[Snapshot]
	// last is the most recently built snapshot. It outlives invalidation so
	// the next build can share every row no Learn touched since; nil means
	// the next build starts from scratch (AddVertex, Decay).
	last *Snapshot
	// dirty holds, per vertex index, the dirtySucc/dirtyPred bits of the
	// rows of last that Learns changed. Only meaningful while last != nil.
	dirty []uint8
	san   graphSan
}

// New returns a graph with no vertices.
func New() *Graph {
	return &Graph{verts: make(map[string]*Vertex)}
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
	defer g.resetSnapshotLocked()
	if v, ok := g.verts[name]; ok {
		v.Weight = weight
		return
	}
	g.verts[name] = &Vertex{
		Name:   name,
		Weight: weight,
		Out:    make(map[string]float64),
		In:     make(map[string]float64),
		idx:    len(g.names),
	}
	g.names = append(g.names, name)
}

// Vertex returns a snapshot copy of the named vertex, or nil.
func (g *Graph) Vertex(name string) *Vertex {
	g.mu.Lock()
	defer g.mu.Unlock()
	v, ok := g.verts[name]
	if !ok {
		return nil
	}
	c := &Vertex{Name: v.Name, Weight: v.Weight,
		Out: make(map[string]float64, len(v.Out)),
		In:  make(map[string]float64, len(v.In))}
	// Plain map copies: the resulting maps are identical regardless of
	// iteration order.
	for k, w := range v.Out { //droidvet:nondet order-independent map copy
		c.Out[k] = w
	}
	for k, w := range v.In { //droidvet:nondet order-independent map copy
		c.In[k] = w
	}
	return c
}

// Len reports the number of vertices.
func (g *Graph) Len() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return len(g.verts)
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
	va, ok := g.verts[a]
	if !ok {
		return 0
	}
	return va.Out[b]
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
	va, ok := g.verts[a]
	if !ok {
		return
	}
	vb, ok := g.verts[b]
	if !ok {
		return
	}
	if _, existed := va.Out[b]; !existed {
		g.edges++
	}
	// Halve the other edges into b, summing their halved weights. The
	// iteration is sorted so floating-point accumulation is identical
	// across runs — campaigns must replay bit-exactly from a seed.
	siblings := make([]string, 0, len(vb.In))
	for x := range vb.In {
		if x != a {
			siblings = append(siblings, x)
		}
	}
	sort.Strings(siblings)
	// The changed rows are the successor rows of a and of every in-sibling
	// (each holds an edge into b) and the predecessor row of b.
	track := g.last != nil
	var sum float64
	for _, x := range siblings {
		half := vb.In[x] / 2
		vb.In[x] = half
		vx := g.verts[x]
		vx.Out[b] = half
		sum += half
		if track {
			g.dirty[vx.idx] |= dirtySucc
		}
	}
	w := 1 - sum
	if w < 0 {
		w = 0
	}
	va.Out[b] = w
	vb.In[a] = w
	if track {
		g.dirty[va.idx] |= dirtySucc
		g.dirty[vb.idx] |= dirtyPred
	}
	g.learns++
	g.invalidateLocked()
	g.sanCheck("Learn", 0)
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
	// Each edge is scaled (or pruned) independently — no cross-edge reads —
	// so the post-decay graph is identical in any iteration order. Learn is
	// the order-sensitive path and iterates sorted siblings instead.
	for _, v := range g.verts { //droidvet:nondet order-independent per-edge decay
		for b, w := range v.Out { //droidvet:nondet order-independent per-edge decay
			nw := w * factor
			if nw < floor {
				delete(v.Out, b)
				delete(g.verts[b].In, v.Name)
				g.edges--
				continue
			}
			v.Out[b] = nw
			g.verts[b].In[v.Name] = nw
		}
	}
	g.resetSnapshotLocked()
	g.sanCheck("Decay", floor)
}

// PickBase draws a base invocation: vertices are sampled proportionally to
// their fixed weights (paper: the vertex weight "corresponds to the
// probability at which the system call or interface is chosen during
// generation as the base invocation"). It delegates to the published
// Snapshot, whose arithmetic replays the historical locked implementation
// draw-for-draw.
func (g *Graph) PickBase(rng *rand.Rand) string {
	return g.Snapshot().PickBase(rng)
}

// Successors returns the out-edges of name sorted by descending weight.
// The returned slice is the caller's to keep; hot paths that can honor the
// read-only contract should use Snapshot().Successors instead, which skips
// the copy.
func (g *Graph) Successors(name string) []Edge {
	succ := g.Snapshot().Successors(name)
	if succ == nil {
		return nil
	}
	out := make([]Edge, len(succ))
	copy(out, succ)
	return out
}

// Edge is one directed dependency with its confidence weight.
type Edge struct {
	From, To string
	Weight   float64
}

// Walk performs the generation-time traversal: starting from `from`, it
// repeatedly steps to a successor with probability proportional to edge
// weight, stopping when the stop probability fires or no successor exists.
// The returned slice excludes the starting vertex and has at most maxLen
// elements.
func (g *Graph) Walk(rng *rand.Rand, from string, maxLen int, stopProb float64) []string {
	return g.Snapshot().Walk(rng, from, maxLen, stopProb)
}

// Names returns the vertex names in insertion order.
func (g *Graph) Names() []string {
	g.mu.Lock()
	defer g.mu.Unlock()
	out := make([]string, len(g.names))
	copy(out, g.names)
	return out
}

// String summarizes the graph.
func (g *Graph) String() string {
	g.mu.Lock()
	defer g.mu.Unlock()
	return fmt.Sprintf("relation.Graph(%d vertices, %d edges, %d learned)",
		len(g.verts), g.edges, g.learns)
}

// CheckInvariants verifies the graph's structural invariants — the
// properties every perf shortcut and the §IV-C math rely on:
//
//   - Out/In mirror consistency: w(a,b) recorded in a.Out equals the copy
//     in b.In, and neither side has an edge the other lacks;
//   - weight range: every edge weight is in [0, 1] (Eq. (1) assigns the
//     normalized remainder, never more);
//   - Eq. (1) normalization: the in-weight sum of every vertex is ≤ 1
//     (within float tolerance);
//   - the edge counter matches the number of Out entries.
//
// It returns the first violation found, or nil. The droidfuzz_sanitize
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
	edges := 0
	// Validation scans: each edge is checked independently and the
	// tolerance-compared sum is order-insensitive at eps scale.
	for _, v := range g.verts { //droidvet:nondet order-independent validation scan
		edges += len(v.Out)
		for b, w := range v.Out { //droidvet:nondet order-independent validation scan
			vb, ok := g.verts[b]
			if !ok {
				return fmt.Errorf("edge %s->%s points at a missing vertex", v.Name, b)
			}
			in, ok := vb.In[v.Name]
			if !ok {
				return fmt.Errorf("edge %s->%s has no In mirror", v.Name, b)
			}
			if in != w {
				return fmt.Errorf("edge %s->%s mirror mismatch: Out=%g In=%g", v.Name, b, w, in)
			}
			if w < 0 || w > 1+eps {
				return fmt.Errorf("edge %s->%s weight %g outside [0,1]", v.Name, b, w)
			}
			if minWeight > 0 && w < minWeight {
				return fmt.Errorf("edge %s->%s weight %g survived below the decay floor %g", v.Name, b, w, minWeight)
			}
		}
		for a, w := range v.In { //droidvet:nondet order-independent validation scan
			va, ok := g.verts[a]
			if !ok {
				return fmt.Errorf("in-edge %s->%s names a missing vertex", a, v.Name)
			}
			if out, ok := va.Out[v.Name]; !ok || out != w {
				return fmt.Errorf("in-edge %s->%s has no matching Out entry", a, v.Name)
			}
		}
		var sum float64
		for _, w := range v.In { //droidvet:nondet tolerance-compared sum
			sum += w
		}
		if sum > 1+eps {
			return fmt.Errorf("in-weight sum of %s is %g > 1: Eq. (1) normalization violated", v.Name, sum)
		}
	}
	if edges != g.edges {
		return fmt.Errorf("edge counter %d does not match %d recorded edges", g.edges, edges)
	}
	return nil
}

// InWeightSum returns the total in-edge weight of b (≈1 after learning, by
// Eq. (1) normalization); exposed for tests and invariant checks.
func (g *Graph) InWeightSum(b string) float64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	v, ok := g.verts[b]
	if !ok {
		return 0
	}
	var sum float64
	// Float summation order varies with map order, but this accessor only
	// feeds tolerance-compared invariant checks and tests, never the
	// engine's decision path.
	for _, w := range v.In { //droidvet:nondet tolerance-compared diagnostic sum
		sum += w
	}
	return sum
}
