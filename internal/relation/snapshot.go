package relation

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
)

// Snapshot is an immutable point-in-time view of the Graph. The daemon
// shares one relation table across every fuzzing engine (paper §IV-A), and
// at fleet scale a per-step lock inside PickBase/Walk/Successors is what
// would serialize generation. A Snapshot is published under the master
// lock through an atomic pointer and from then on read without any
// synchronization.
//
// Publishing copies nothing: the snapshot takes the graph's names,
// weights, page table and rows as they are, and the graph starts a new
// copy-on-write epoch, so it copies each of those before it next writes
// it. Consecutive snapshots therefore share every row no mutation touched
// in between. Sharing is safe only because no published storage is ever
// written. Under -tags droidfuzz_sanitize every published snapshot is
// compared with a from-scratch build, and carries a fingerprint that is
// re-verified after every mutation and before the next publish, so a
// write-after-publish panics at the check that detects it.
type Snapshot struct {
	names   []string // by id: insertion order
	weights []float64
	total   float64 // insertion-order sum of weights, PickBase's total
	pages   []*page
	edges   int
	learns  uint64
	san     snapSan
}

// Rows are grouped into pages of pageSize vertices, so a mutation copies
// the page table and the pages it touches, not one header per vertex.
const (
	pageShift = 2
	pageSize  = 1 << pageShift
	pageMask  = pageSize - 1
)

// rows are one vertex's out-row (successors) and in-row (predecessors),
// each sorted by weight desc, then by the other end's name asc.
type rows struct {
	out, in []Arc
}

type page [pageSize]rows

// row returns id's rows; reads only.
func (g *Graph) row(id int32) *rows { return &g.pages[id>>pageShift][id&pageMask] }

func (g *Graph) out(id int32) []Arc { return g.row(id).out }

func (g *Graph) in(id int32) []Arc { return g.row(id).in }

// writable returns id's rows for writing their headers: the page table and
// id's page are copied first unless this epoch already owns them.
func (g *Graph) writable(id int32) *rows {
	if g.tableOwn != g.epoch {
		g.pages = slices.Clone(g.pages)
		g.tableOwn = g.epoch
	}
	p := id >> pageShift
	if g.pageOwn[p] != g.epoch {
		cp := *g.pages[p]
		g.pages[p] = &cp
		g.pageOwn[p] = g.epoch
	}
	return &g.pages[p][id&pageMask]
}

// mutRow returns id's out-row (or in-row) for writing in place: the row
// itself if this epoch owns it, else a private copy with room for one more
// arc. Appends must be stored back through the pointer.
func (g *Graph) mutRow(id int32, in bool) *[]Arc {
	r := g.writable(id)
	row, own := &r.out, &g.outOwn[id]
	if in {
		row, own = &r.in, &g.inOwn[id]
	}
	if *own != g.epoch {
		*row = append(make([]Arc, 0, len(*row)+1), *row...)
		*own = g.epoch
	}
	return row
}

// before reports whether x sorts ahead of y in a row: heavier first, then
// the lower-ranked (alphabetically earlier) name.
func (g *Graph) before(x, y Arc) bool {
	return x.Weight > y.Weight || x.Weight == y.Weight && g.rank[x.ID] < g.rank[y.ID]
}

// find returns the index of id in row, or -1.
func find(row []Arc, id int32) int {
	for i, e := range row {
		if e.ID == id {
			return i
		}
	}
	return -1
}

// sift moves row[i] to its place; the rest of the row must be sorted.
func (g *Graph) sift(row []Arc, i int) {
	x := row[i]
	for ; i+1 < len(row) && g.before(row[i+1], x); i++ {
		row[i] = row[i+1]
	}
	for ; i > 0 && g.before(x, row[i-1]); i-- {
		row[i] = row[i-1]
	}
	row[i] = x
}

// settle sorts a row by insertion, in linear time when the row is already
// sorted but for a few neighbours: after a halving or a decay only arcs
// whose weights rounding tied can be out of order.
func (g *Graph) settle(row []Arc) {
	for i := 1; i < len(row); i++ {
		if g.before(row[i], row[i-1]) {
			g.sift(row[:i+1], i)
		}
	}
}

// insert adds x to the sorted row at its place.
func (g *Graph) insert(row []Arc, x Arc) []Arc {
	i := len(row)
	for i > 0 && g.before(x, row[i-1]) {
		i--
	}
	return slices.Insert(row, i, x)
}

// Snapshot returns the current immutable view, publishing it under the
// master lock only if a mutation invalidated the published one. The
// steady-state cost is a single atomic load.
func (g *Graph) Snapshot() *Snapshot {
	if s := g.snap.Load(); s != nil {
		return s
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	// Another reader may have published while we waited for the lock.
	if s := g.snap.Load(); s != nil {
		return s
	}
	g.sanVerifySnapLocked()
	s := g.publishLocked()
	g.sanCheckBuildLocked(s)
	g.sanSealLocked(s)
	g.snap.Store(s)
	return s
}

// invalidateLocked drops the published snapshot; g.mu must be held. The
// next publish is deferred to the next read, so a burst of mutations
// pays for one.
func (g *Graph) invalidateLocked() {
	g.snap.Store(nil)
}

// publishLocked hands the graph's current storage to a new snapshot and
// starts a new epoch, after which the graph copies anything before it
// writes it; g.mu must be held. The slices are capped at their length, so
// nothing can append through the snapshot either.
func (g *Graph) publishLocked() *Snapshot {
	n := len(g.names)
	s := &Snapshot{
		names:   g.names[:n:n],
		weights: g.weights[:n:n],
		total:   g.total,
		pages:   g.pages[:len(g.pages):len(g.pages)],
		edges:   g.edges,
		learns:  g.learns,
	}
	g.epoch++
	return s
}

// buildSnapshotLocked builds from scratch, into fresh storage, the view
// the published one must equal; g.mu must be held. It sorts every
// out-row by weight desc then successor name, derives every in-row from
// the out-rows and sorts it the same way, and re-sums the weights in
// insertion order. It compares names directly rather than through the
// rank table, so it checks that too. The sanitizer and the property tests
// hold every published snapshot to it.
func (g *Graph) buildSnapshotLocked() *Snapshot {
	n := len(g.names)
	s := &Snapshot{
		names:   slices.Clone(g.names),
		weights: slices.Clone(g.weights),
		pages:   make([]*page, len(g.pages)),
		edges:   g.edges,
		learns:  g.learns,
	}
	for i := range s.pages {
		s.pages[i] = new(page)
	}
	for _, w := range s.weights {
		s.total += w
	}
	byWeightThenName := func(x, y Arc) int {
		return cmp.Or(cmp.Compare(y.Weight, x.Weight), strings.Compare(s.names[x.ID], s.names[y.ID]))
	}
	for a := range int32(n) {
		for _, e := range g.out(a) {
			s.row(a).out = append(s.row(a).out, e)
			s.row(e.ID).in = append(s.row(e.ID).in, Arc{a, e.Weight})
		}
	}
	for id := range int32(n) {
		slices.SortFunc(s.row(id).out, byWeightThenName)
		slices.SortFunc(s.row(id).in, byWeightThenName)
	}
	return s
}

// diffSnapshots describes the first difference between two snapshots'
// contents, naming the vertex row, or returns nil when they are equal. The
// sanitizer and the property tests hold published snapshots to
// from-scratch builds with it. Weights compare bit for bit: the
// incremental path must reproduce the full build's floats exactly, not
// within a tolerance. The sanitizer's fingerprint is not compared.
func diffSnapshots(got, want *Snapshot) error {
	if !slices.Equal(got.names, want.names) {
		return fmt.Errorf("names %v, want %v", got.names, want.names)
	}
	sameRow := func(x, y []Arc) bool {
		return slices.EqualFunc(x, y, func(a, b Arc) bool {
			return a.ID == b.ID && math.Float64bits(a.Weight) == math.Float64bits(b.Weight)
		})
	}
	for i, name := range want.names {
		id := int32(i)
		if math.Float64bits(got.weights[i]) != math.Float64bits(want.weights[i]) {
			return fmt.Errorf("weight of %q is %g, want %g", name, got.weights[i], want.weights[i])
		}
		if g, w := got.Successors(id), want.Successors(id); !sameRow(g, w) {
			return fmt.Errorf("successor row of %q is %v, want %v", name, g, w)
		}
		if g, w := got.Predecessors(id), want.Predecessors(id); !sameRow(g, w) {
			return fmt.Errorf("predecessor row of %q is %v, want %v", name, g, w)
		}
	}
	if math.Float64bits(got.total) != math.Float64bits(want.total) {
		return fmt.Errorf("weight total %g, want %g", got.total, want.total)
	}
	if got.edges != want.edges || got.learns != want.learns {
		return fmt.Errorf("edges/learns %d/%d, want %d/%d", got.edges, got.learns, want.edges, want.learns)
	}
	return nil
}

func (s *Snapshot) row(id int32) *rows { return &s.pages[id>>pageShift][id&pageMask] }

// Len reports the number of vertices in the snapshot; ids run from 0 to
// Len()-1.
func (s *Snapshot) Len() int { return len(s.names) }

// Edges reports the number of directed edges in the snapshot.
func (s *Snapshot) Edges() int { return s.edges }

// Learns reports the graph's learn counter at snapshot time.
func (s *Snapshot) Learns() uint64 { return s.learns }

// Names returns the vertex names indexed by id (insertion order). The
// slice is shared and must not be modified.
func (s *Snapshot) Names() []string { return s.names }

// Weight returns the base weight of vertex id.
func (s *Snapshot) Weight(id int32) float64 { return s.weights[id] }

// PickBase draws a base invocation proportionally to vertex weight and
// returns its id, or -1 on an empty graph. The arithmetic is that of the
// historical locked implementation: the insertion-order sum, one rng
// draw, one insertion-order subtraction scan. The scan stays linear; a
// prefix-sum search would not reproduce the sequential subtraction's
// rounding.
func (s *Snapshot) PickBase(rng *rand.Rand) int32 {
	if s.total == 0 {
		return -1
	}
	x := rng.Float64() * s.total
	for i, w := range s.weights {
		x -= w
		if x <= 0 {
			return int32(i)
		}
	}
	return int32(len(s.weights) - 1)
}

// Successors returns the out-arcs of vertex id sorted by descending weight
// then ascending successor name, or nil for an id outside the snapshot.
// The slice is the snapshot's own storage: it is shared across callers and
// must be treated as read-only.
func (s *Snapshot) Successors(id int32) []Arc {
	if id < 0 || int(id) >= len(s.names) {
		return nil
	}
	return s.row(id).out
}

// Predecessors returns the in-arcs of vertex id sorted by descending weight
// then ascending producer name — the learned dependencies that
// historically ran before it — or nil for an id outside the snapshot. The
// slice is the snapshot's own storage: it is shared across callers and
// must be treated as read-only.
func (s *Snapshot) Predecessors(id int32) []Arc {
	if id < 0 || int(id) >= len(s.names) {
		return nil
	}
	return s.row(id).in
}

// Walk performs the generation-time traversal over the snapshot and
// appends the visited ids to dst: starting from `from`, it repeatedly
// steps to a successor with probability proportional to edge weight,
// stopping when the stop probability fires or no successor exists, after
// at most maxLen steps. The draw sequence is that of the historical
// Graph.Walk: the stop draw is taken first on every step, and the
// selection draw only when successors exist with positive total weight.
func (s *Snapshot) Walk(dst []int32, rng *rand.Rand, from int32, maxLen int, stopProb float64) []int32 {
	cur := from
	for range maxLen {
		if rng.Float64() < stopProb {
			break
		}
		succ := s.Successors(cur)
		if len(succ) == 0 {
			break
		}
		var total float64
		for _, e := range succ {
			total += e.Weight
		}
		if total <= 0 {
			break
		}
		x := rng.Float64() * total
		next := succ[len(succ)-1].ID
		for _, e := range succ {
			x -= e.Weight
			if x <= 0 {
				next = e.ID
				break
			}
		}
		dst = append(dst, next)
		cur = next
	}
	return dst
}
