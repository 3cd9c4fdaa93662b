package relation

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"
)

// learnChain seeds a small graph with a deterministic edge structure.
func learnChain(g *Graph) {
	for _, n := range []string{"a", "b", "c", "d", "e"} {
		g.AddVertex(n, 0.2)
	}
	g.Learn("a", "b")
	g.Learn("b", "c")
	g.Learn("c", "d")
	g.Learn("a", "c")
	g.Learn("d", "e")
}

// TestSnapshotIsStableUntilMutation: repeated reads return the identical
// published pointer; any mutation invalidates and the next read rebuilds.
func TestSnapshotIsStableUntilMutation(t *testing.T) {
	g := New()
	learnChain(g)
	s1 := g.Snapshot()
	if s2 := g.Snapshot(); s1 != s2 {
		t.Fatal("unmutated graph republished its snapshot")
	}
	g.Learn("e", "a")
	s3 := g.Snapshot()
	if s3 == s1 {
		t.Fatal("Learn did not invalidate the published snapshot")
	}
	if s3.Learns() != s1.Learns()+1 || s3.Edges() != s1.Edges()+1 {
		t.Fatalf("rebuilt snapshot stale: learns %d->%d edges %d->%d",
			s1.Learns(), s3.Learns(), s1.Edges(), s3.Edges())
	}
	g.Decay(0.5, 0.01)
	if s4 := g.Snapshot(); s4 == s3 {
		t.Fatal("Decay did not invalidate the published snapshot")
	}
	g.AddVertex("f", 0.3)
	if s5 := g.Snapshot(); s5.Len() != 6 {
		t.Fatalf("AddVertex not reflected: len = %d", s5.Len())
	}
}

// TestSnapshotMatchesGraphReads: every delegated read agrees with the
// snapshot view, and Successors copies while Snapshot.Successors shares.
func TestSnapshotMatchesGraphReads(t *testing.T) {
	g := New()
	learnChain(g)
	s := g.Snapshot()

	if s.Len() != g.Len() || s.Edges() != g.Edges() || s.Learns() != g.Learns() {
		t.Fatalf("snapshot counters diverge: %d/%d/%d vs %d/%d/%d",
			s.Len(), s.Edges(), s.Learns(), g.Len(), g.Edges(), g.Learns())
	}
	if !reflect.DeepEqual(s.Names(), g.Names()) {
		t.Fatalf("names diverge: %v vs %v", s.Names(), g.Names())
	}
	names := s.Names()
	for id, n := range names {
		gs := g.Successors(n)
		ss := s.Successors(int32(id))
		if len(gs) != len(ss) {
			t.Fatalf("successor count of %s diverges: %v vs %v", n, gs, ss)
		}
		for i := range gs {
			if want := (Edge{From: n, To: names[ss[i].ID], Weight: ss[i].Weight}); gs[i] != want {
				t.Fatalf("successor %d of %s diverges: %+v vs %+v", i, n, gs[i], want)
			}
		}
		if len(gs) > 0 {
			// Graph.Successors must hand back a private copy.
			gs[0].Weight = -1
			if s.Successors(int32(id))[0].Weight == -1 {
				t.Fatal("Graph.Successors aliases snapshot storage")
			}
		}
	}

	// PickBase and Walk draw identically through either entry point.
	r1 := rand.New(rand.NewSource(42))
	r2 := rand.New(rand.NewSource(42))
	for i := 0; i < 200; i++ {
		if got, want := g.PickBase(r1), names[s.PickBase(r2)]; got != want {
			t.Fatalf("PickBase diverged at %d: %q vs %q", i, got, want)
		}
	}
	r1 = rand.New(rand.NewSource(7))
	r2 = rand.New(rand.NewSource(7))
	for i := 0; i < 200; i++ {
		gw := g.Walk(r1, "a", 4, 0.2)
		var sw []string
		for _, id := range s.Walk(nil, r2, 0, 4, 0.2) {
			sw = append(sw, names[id])
		}
		if !reflect.DeepEqual(gw, sw) {
			t.Fatalf("Walk diverged at %d: %v vs %v", i, gw, sw)
		}
	}
}

// TestApplyOpsOrdering: learn records apply in (device, sequence) order
// regardless of the order they arrive in, matching a graph that ran the
// same learns synchronously in that order.
func TestApplyOpsOrdering(t *testing.T) {
	seed := func() *Graph {
		g := New()
		for _, n := range []string{"a", "b", "c", "d"} {
			g.AddVertex(n, 0.25)
		}
		return g
	}

	// Interleave the records so arrival order ≠ (device, seq) order.
	ops := []LearnOp{
		{A: "c", B: "d", Device: "B", Seq: 0},
		{A: "a", B: "b", Device: "A1", Seq: 0},
		{A: "a", B: "d", Device: "B", Seq: 1},
		{A: "b", B: "d", Device: "A1", Seq: 1},
	}
	applied := seed()
	if n := applied.ApplyOps(ops); n != 4 {
		t.Fatalf("applied %d ops, want 4", n)
	}
	for i, want := range []string{"A1#0", "A1#1", "B#0", "B#1"} {
		if got := fmt.Sprintf("%s#%d", ops[i].Device, ops[i].Seq); got != want {
			t.Fatalf("ops[%d] = %s after ApplyOps, want %s (sorted in place)", i, got, want)
		}
	}

	reference := seed()
	// Sorted (device, seq) order: A1/0, A1/1, B/0, B/1.
	reference.Learn("a", "b")
	reference.Learn("b", "d")
	reference.Learn("c", "d")
	reference.Learn("a", "d")

	for _, a := range reference.Names() {
		for _, b := range reference.Names() {
			if got, want := applied.EdgeWeight(a, b), reference.EdgeWeight(a, b); got != want {
				t.Fatalf("edge %s->%s: applied %g, reference %g", a, b, got, want)
			}
		}
	}
	if applied.Learns() != reference.Learns() {
		t.Fatalf("learn counters diverge: %d vs %d", applied.Learns(), reference.Learns())
	}
}

// TestSnapshotConcurrentReadsAndMutations hammers the snapshot path from
// reader goroutines while a writer keeps learning and decaying; run under
// -race this is the lock-free publication proof.
func TestSnapshotConcurrentReadsAndMutations(t *testing.T) {
	g := New()
	learnChain(g)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				s := g.Snapshot()
				_ = s.PickBase(rng)
				_ = s.Walk(nil, rng, 0, 3, 0.1)
				_ = s.Successors(1)
			}
		}(int64(r + 1))
	}
	var ops []LearnOp
	for i := 0; i < 500; i++ {
		g.Learn("a", "b")
		ops = append(ops, LearnOp{A: "b", B: "c", Device: "A1", Seq: uint64(i)})
		if i%50 == 0 {
			g.Decay(0.9, 0.01)
			g.ApplyOps(ops)
			ops = ops[:0]
		}
	}
	close(stop)
	wg.Wait()
	if err := g.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
