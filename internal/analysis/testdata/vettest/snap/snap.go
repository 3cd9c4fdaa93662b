// Package snap is the fixture snapshot type for droidvet's snapshot pass:
// an immutable published view in the shape of relation.Snapshot, with New
// registered as its builder.
package snap

import "sort"

// View is the published-immutable snapshot fixture. Fields are exported so
// the sibling snapuse package can seed out-of-package violations.
type View struct {
	Names   []string
	Weights []float64
	Index   map[string]int
	Gen     int
	// Rows are per-vertex (id, weight) rows, shared with the graph that
	// published them, as relation.Snapshot's are.
	Rows [][]Arc
}

// Arc is one row entry: the vertex at the other end and the edge weight.
type Arc struct {
	ID     int32
	Weight float64
}

// New is the registered builder: its writes are construction, not
// mutation, and must not be flagged.
func New(names []string, weights []float64) *View {
	v := &View{
		Names:   make([]string, len(names)),
		Weights: make([]float64, len(weights)),
		Index:   make(map[string]int, len(names)),
	}
	copy(v.Names, names)
	copy(v.Weights, weights)
	sort.Strings(v.Names)
	for i, name := range v.Names {
		v.Index[name] = i
	}
	v.Rows = make([][]Arc, len(names))
	for i := range v.Rows {
		v.Rows[i] = append(v.Rows[i], Arc{ID: int32(i), Weight: 1})
	}
	v.Gen = 1
	return v
}

// Weight is a read-only accessor: never flagged.
func (v *View) Weight(i int) float64 {
	return v.Weights[i]
}

// Rebind assigns a whole new value to a local snapshot variable — a
// rebinding, not a write through the shared structure, so not flagged.
func Rebind(a, b *View) *View {
	v := a
	v = b
	return v
}

// Refresh is a registered *method* builder ("vettest/snap.View.Refresh"):
// its bookkeeping write is sanctioned, mirroring Device.Restore's
// generation maintenance, and must not be flagged.
func (v *View) Refresh() {
	v.Gen = v.Gen + 1
}
