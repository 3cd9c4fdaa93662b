package relation

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"strings"
)

// Snapshot is an immutable point-in-time view of the Graph. The daemon
// shares one relation table across every fuzzing engine (paper §IV-A), and
// at fleet scale the per-step lock+sort inside PickBase/Walk/Successors is
// what serializes generation. A Snapshot is built under the master lock,
// published through an atomic pointer, and from then on read without any
// synchronization: names, weights and pre-sorted successor lists are plain
// slices that no goroutine may write again.
//
// Consecutive snapshots share storage. A Learn(a, b) changes only the
// successor rows of a and of b's other predecessors and the predecessor
// row of b, so the next build copies the two row-header slices of the
// previous snapshot, re-sorts just those rows, and shares names, weights,
// the index and every other row with it. AddVertex and Decay drop the
// previous snapshot and the next build starts from scratch. Sharing is
// safe only because no snapshot is ever written after publication. Under
// -tags droidfuzz_sanitize every row-incremental build is compared with a
// from-scratch one, and each published snapshot carries a fingerprint that
// is re-verified before the replacement is sealed, so a write-after-publish
// panics at the rebuild that detects it.
type Snapshot struct {
	names   []string // insertion order, mirroring Graph.names
	weights []float64
	total   float64 // insertion-order sum of weights, PickBase's total
	index   map[string]int
	succ    [][]Edge // per vertex, sorted by weight desc then name asc
	pred    [][]Edge // per vertex, in-edges sorted by weight desc then name asc
	edges   int
	learns  uint64
	san     snapSan
}

// Row bits of Graph.dirty: which of a vertex's snapshot rows a Learn
// changed since the last build.
const (
	dirtySucc uint8 = 1 << iota
	dirtyPred
)

// Snapshot returns the current immutable view, rebuilding it under the
// master lock only if a mutation invalidated the published one. The
// steady-state cost is a single atomic load.
func (g *Graph) Snapshot() *Snapshot {
	if s := g.snap.Load(); s != nil {
		return s
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	// Another reader may have rebuilt while we waited for the lock.
	if s := g.snap.Load(); s != nil {
		return s
	}
	g.sanVerifySnapLocked()
	var s *Snapshot
	if g.last == nil {
		s = g.buildSnapshotLocked()
		g.dirty = make([]uint8, len(s.names))
	} else {
		s = g.rebuildRowsLocked(g.last)
		g.sanCheckRebuildLocked(s)
	}
	g.last = s
	g.sanSealLocked(s)
	g.snap.Store(s)
	return s
}

// invalidateLocked drops the published snapshot; g.mu must be held. The
// rebuild is deferred to the next read so a burst of Learns pays for one
// rebuild, not one per mutation, and the rows they marked dirty are the
// only ones it re-sorts.
func (g *Graph) invalidateLocked() {
	g.snap.Store(nil)
}

// resetSnapshotLocked drops the published snapshot and the previous build
// the next one would share rows with; g.mu must be held. AddVertex (the
// vertex set or a weight changed) and Decay (every edge changed) use it.
func (g *Graph) resetSnapshotLocked() {
	g.last = nil
	g.snap.Store(nil)
}

// buildSnapshotLocked materializes the immutable view from scratch; g.mu
// must be held. Construction order is deterministic: vertices in insertion
// order, rows sorted by succRow and predRow, so a snapshot-backed campaign
// replays bit-identically to the lock-based implementation it replaced. It
// reads the graph only, so the sanitizer can call it as a reference.
func (g *Graph) buildSnapshotLocked() *Snapshot {
	s := &Snapshot{
		names:   make([]string, len(g.names)),
		weights: make([]float64, len(g.names)),
		index:   make(map[string]int, len(g.names)),
		succ:    make([][]Edge, len(g.names)),
		pred:    make([][]Edge, len(g.names)),
		edges:   g.edges,
		learns:  g.learns,
	}
	copy(s.names, g.names)
	for i, name := range s.names {
		v := g.verts[name]
		s.weights[i] = v.Weight
		s.total += v.Weight
		s.index[name] = i
		s.succ[i] = succRow(v)
		s.pred[i] = predRow(v)
	}
	return s
}

// rebuildRowsLocked builds the snapshot that follows prev when only Learns
// happened since; g.mu must be held. It shares prev's names, weights,
// total and index, copies the row headers, re-sorts the rows marked in
// g.dirty and clears the marks.
func (g *Graph) rebuildRowsLocked(prev *Snapshot) *Snapshot {
	s := &Snapshot{
		names:   prev.names,
		weights: prev.weights,
		total:   prev.total,
		index:   prev.index,
		succ:    make([][]Edge, len(prev.succ)),
		pred:    make([][]Edge, len(prev.pred)),
		edges:   g.edges,
		learns:  g.learns,
	}
	copy(s.succ, prev.succ)
	copy(s.pred, prev.pred)
	for i, d := range g.dirty {
		if d == 0 {
			continue
		}
		v := g.verts[s.names[i]]
		if d&dirtySucc != 0 {
			s.succ[i] = succRow(v)
		}
		if d&dirtyPred != 0 {
			s.pred[i] = predRow(v)
		}
		g.dirty[i] = 0
	}
	return s
}

// succRow returns v's out-edges sorted by weight desc then successor name
// asc — the order Successors always had; names are unique within a row, so
// the order is total and any sort algorithm yields the same row — or nil
// without any.
func succRow(v *Vertex) []Edge {
	if len(v.Out) == 0 {
		return nil
	}
	out := make([]Edge, 0, len(v.Out))
	for b, w := range v.Out {
		out = append(out, Edge{From: v.Name, To: b, Weight: w})
	}
	slices.SortFunc(out, func(x, y Edge) int {
		return cmp.Or(cmp.Compare(y.Weight, x.Weight), strings.Compare(x.To, y.To))
	})
	return out
}

// predRow returns v's in-edges sorted by weight desc then producer name
// asc, or nil without any.
func predRow(v *Vertex) []Edge {
	if len(v.In) == 0 {
		return nil
	}
	in := make([]Edge, 0, len(v.In))
	for a, w := range v.In {
		in = append(in, Edge{From: a, To: v.Name, Weight: w})
	}
	slices.SortFunc(in, func(x, y Edge) int {
		return cmp.Or(cmp.Compare(y.Weight, x.Weight), strings.Compare(x.From, y.From))
	})
	return in
}

// diffSnapshots describes the first difference between two snapshots'
// contents, naming the vertex row, or returns nil when they are equal. The
// sanitizer and the property tests hold row-incremental builds to
// from-scratch ones with it. Weights compare bit for bit: the incremental
// path must reproduce the full build's floats exactly, not within a
// tolerance. The sanitizer's fingerprint is not compared.
func diffSnapshots(got, want *Snapshot) error {
	if !reflect.DeepEqual(got.names, want.names) {
		return fmt.Errorf("names %v, want %v", got.names, want.names)
	}
	if !reflect.DeepEqual(got.index, want.index) {
		return fmt.Errorf("name index differs")
	}
	for i, name := range want.names {
		if math.Float64bits(got.weights[i]) != math.Float64bits(want.weights[i]) {
			return fmt.Errorf("weight of %q is %g, want %g", name, got.weights[i], want.weights[i])
		}
		if !reflect.DeepEqual(got.succ[i], want.succ[i]) {
			return fmt.Errorf("successor row of %q is %v, want %v", name, got.succ[i], want.succ[i])
		}
		if !reflect.DeepEqual(got.pred[i], want.pred[i]) {
			return fmt.Errorf("predecessor row of %q is %v, want %v", name, got.pred[i], want.pred[i])
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

// Len reports the number of vertices in the snapshot.
func (s *Snapshot) Len() int { return len(s.names) }

// Edges reports the number of directed edges in the snapshot.
func (s *Snapshot) Edges() int { return s.edges }

// Learns reports the graph's learn counter at snapshot time.
func (s *Snapshot) Learns() uint64 { return s.learns }

// Names returns the vertex names in insertion order. The slice is shared
// and must not be modified.
func (s *Snapshot) Names() []string { return s.names }

// PickBase draws a base invocation proportionally to vertex weight, with
// arithmetic identical to the historical locked implementation: the
// insertion-order sum (taken once at build time), one rng draw, one
// insertion-order subtraction scan.
func (s *Snapshot) PickBase(rng *rand.Rand) string {
	if s.total == 0 {
		return ""
	}
	x := rng.Float64() * s.total
	for i, w := range s.weights {
		x -= w
		if x <= 0 {
			return s.names[i]
		}
	}
	return s.names[len(s.names)-1]
}

// Successors returns the out-edges of name sorted by descending weight then
// ascending name. The slice is the snapshot's own pre-sorted storage: it is
// shared across callers and must be treated as read-only.
func (s *Snapshot) Successors(name string) []Edge {
	i, ok := s.index[name]
	if !ok {
		return nil
	}
	return s.succ[i]
}

// Predecessors returns the in-edges of name sorted by descending weight then
// ascending producer name — the learned dependencies that historically ran
// before name. The slice is the snapshot's own pre-sorted storage: it is
// shared across callers and must be treated as read-only.
func (s *Snapshot) Predecessors(name string) []Edge {
	i, ok := s.index[name]
	if !ok {
		return nil
	}
	return s.pred[i]
}

// Walk performs the generation-time traversal over the snapshot with the
// exact draw sequence of the historical Graph.Walk: the stop draw is taken
// first on every step, and the selection draw only when successors exist
// with positive total weight.
func (s *Snapshot) Walk(rng *rand.Rand, from string, maxLen int, stopProb float64) []string {
	var path []string
	cur := from
	for len(path) < maxLen {
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
		next := succ[len(succ)-1].To
		for _, e := range succ {
			x -= e.Weight
			if x <= 0 {
				next = e.To
				break
			}
		}
		path = append(path, next)
		cur = next
	}
	return path
}
