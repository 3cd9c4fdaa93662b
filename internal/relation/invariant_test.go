package relation

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// TestCheckInvariantsCleanGraph: a freshly learned graph passes.
func TestCheckInvariantsCleanGraph(t *testing.T) {
	g := New()
	for _, n := range []string{"a", "b", "c"} {
		g.AddVertex(n, 1)
	}
	g.Learn("a", "b")
	g.Learn("c", "b")
	g.Learn("b", "c")
	if err := g.CheckInvariants(); err != nil {
		t.Fatalf("clean graph flagged: %v", err)
	}
}

// edgeArc returns the arc of from→to in from's out-row, or with in set the
// mirror arc in to's in-row, ready to be overwritten. The row is made
// writable the copy-on-write way, so the corruption it enables is the one
// a buggy mutation would leave behind, not a write after publication.
func edgeArc(g *Graph, from, to string, in bool) *Arc {
	a, b := g.ids[from], g.ids[to]
	if in {
		row := *g.mutRow(b, true)
		return &row[find(row, a)]
	}
	row := *g.mutRow(a, false)
	return &row[find(row, b)]
}

// TestCheckInvariantsDetectsCorruption: each hand-broken invariant is
// reported. The graph's rows are reached directly (same package) the way
// a buggy mutation would reach them.
func TestCheckInvariantsDetectsCorruption(t *testing.T) {
	build := func() *Graph {
		g := New()
		for _, n := range []string{"a", "b", "c"} {
			g.AddVertex(n, 1)
		}
		g.Learn("a", "b")
		g.Learn("c", "b")
		return g
	}

	t.Run("mirror-mismatch", func(t *testing.T) {
		g := build()
		edgeArc(g, "a", "b", false).Weight = 0.9 // in-row still holds the old weight
		if err := g.CheckInvariants(); err == nil {
			t.Fatal("mirror mismatch not detected")
		}
	})
	t.Run("missing-in-mirror", func(t *testing.T) {
		g := build()
		row := g.mutRow(g.ids["b"], true)
		i := find(*row, g.ids["a"])
		*row = slices.Delete(*row, i, i+1)
		if err := g.CheckInvariants(); err == nil {
			t.Fatal("missing in-row mirror not detected")
		}
	})
	t.Run("weight-above-one", func(t *testing.T) {
		g := build()
		edgeArc(g, "a", "b", false).Weight = 1.5
		edgeArc(g, "a", "b", true).Weight = 1.5
		if err := g.CheckInvariants(); err == nil {
			t.Fatal("weight > 1 not detected")
		}
	})
	t.Run("negative-weight", func(t *testing.T) {
		g := build()
		edgeArc(g, "a", "b", false).Weight = -0.25
		edgeArc(g, "a", "b", true).Weight = -0.25
		if err := g.CheckInvariants(); err == nil {
			t.Fatal("negative weight not detected")
		}
	})
	t.Run("in-sum-above-one", func(t *testing.T) {
		g := build()
		// Both mirrored consistently, but the in-weights of b sum past 1:
		// the Eq. (1) normalization violation.
		edgeArc(g, "a", "b", false).Weight = 0.8
		edgeArc(g, "a", "b", true).Weight = 0.8
		edgeArc(g, "c", "b", false).Weight = 0.8
		edgeArc(g, "c", "b", true).Weight = 0.8
		if err := g.CheckInvariants(); err == nil {
			t.Fatal("in-weight sum > 1 not detected")
		}
	})
	t.Run("edge-counter-drift", func(t *testing.T) {
		g := build()
		g.edges++
		if err := g.CheckInvariants(); err == nil {
			t.Fatal("edge counter drift not detected")
		}
	})
}

// TestGraphInvariantsWithMixedParamLearns interleaves param-write and ioctl
// vertices through random Learn/Decay/AddVertex sequences, the shape a
// param-enabled campaign produces: Eq. (1) normalization, the out/in
// mirror, and the published snapshot's Successors/Predecessors views must
// all stay consistent with both call classes in the graph. After every op
// the published snapshot — the graph's copy-on-write rows as Learn,
// Decay and AddVertex left them — must equal a from-scratch build.
func TestGraphInvariantsWithMixedParamLearns(t *testing.T) {
	base := []string{
		"param$tcpc.max_contract_mv", "param$tcpc.pd_compliance",
		"param$wlan.ps_mode", "param$gpu.max_freq_mhz",
		"ioctl$TCPC_SET_VOLTAGE", "ioctl$TCPC_SET_MODE",
		"ioctl$WLAN_SCAN", "ioctl$GPU_SUBMIT",
		"open$tcpc", "hal$graphics.createLayer",
	}
	for _, seed := range []int64{3, 1337} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			g := New()
			names := append([]string(nil), base...)
			for _, n := range names {
				g.AddVertex(n, 0.1+rng.Float64())
			}
			for op := 0; op < 5000; op++ {
				switch r := rng.Intn(40); {
				case r < 2:
					g.Decay(0.5+rng.Float64()*0.45, rng.Float64()*0.05)
				case r == 2:
					// A new vertex or a re-weighted existing one.
					n := names[rng.Intn(len(names))]
					if rng.Intn(2) == 0 {
						n = fmt.Sprintf("ioctl$EXTRA_%d", op)
						names = append(names, n)
					}
					g.AddVertex(n, 0.1+rng.Float64())
				default:
					g.Learn(names[rng.Intn(len(names))], names[rng.Intn(len(names))])
				}
				if err := g.CheckInvariants(); err != nil {
					t.Fatalf("op %d: invariants broken: %v", op, err)
				}
				s := g.Snapshot()
				g.mu.Lock()
				full := g.buildSnapshotLocked()
				g.mu.Unlock()
				if err := diffSnapshots(s, full); err != nil {
					t.Fatalf("op %d: published snapshot differs from a full rebuild: %v", op, err)
				}
				if op%500 != 0 {
					continue
				}
				// The published views mirror each other exactly: every
				// successor edge a→b appears among b's predecessors with
				// the same weight, and vice versa — param and ioctl
				// vertices alike.
				sn := s.Names()
				for i := range sn {
					a := int32(i)
					for _, e := range s.Successors(a) {
						found := false
						for _, p := range s.Predecessors(e.ID) {
							if p.ID == a && p.Weight == e.Weight {
								found = true
							}
						}
						if !found {
							t.Fatalf("op %d: edge %s→%s (w=%g) missing from Predecessors(%s)",
								op, sn[a], sn[e.ID], e.Weight, sn[e.ID])
						}
					}
					for _, e := range s.Predecessors(a) {
						found := false
						for _, sc := range s.Successors(e.ID) {
							if sc.ID == a && sc.Weight == e.Weight {
								found = true
							}
						}
						if !found {
							t.Fatalf("op %d: edge %s→%s (w=%g) missing from Successors(%s)",
								op, sn[e.ID], sn[a], e.Weight, sn[e.ID])
						}
					}
				}
			}
		})
	}
}

// TestGraphInvariantsUnderRandomOps drives long random Learn/Decay
// sequences through the invariant checker: 10k operations per seed, the
// invariants verified after every operation. This is the property test for
// the §IV-C math — no sequence of halvings and decays may push an
// in-weight sum past 1, desynchronize the Out/In mirrors, or leave an edge
// below the decay floor.
func TestGraphInvariantsUnderRandomOps(t *testing.T) {
	const (
		vertices = 12
		ops      = 10000
	)
	for _, seed := range []int64{1, 42, 20260806} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			g := New()
			names := make([]string, vertices)
			for i := range names {
				names[i] = fmt.Sprintf("call%02d", i)
				g.AddVertex(names[i], 0.1+rng.Float64())
			}
			for op := 0; op < ops; op++ {
				if rng.Intn(10) == 0 {
					factor := 0.5 + rng.Float64()*0.45
					floor := rng.Float64() * 0.05
					g.Decay(factor, floor)
					if err := g.CheckInvariants(); err != nil {
						t.Fatalf("op %d: Decay(%g, %g) broke invariants: %v", op, factor, floor, err)
					}
					// The floor holds immediately after a decay.
					if err := g.checkInvariantsLocked(floor); err != nil {
						t.Fatalf("op %d: decay floor violated: %v", op, err)
					}
				} else {
					a := names[rng.Intn(vertices)]
					b := names[rng.Intn(vertices)]
					g.Learn(a, b)
					if err := g.CheckInvariants(); err != nil {
						t.Fatalf("op %d: Learn(%s, %s) broke invariants: %v", op, a, b, err)
					}
				}
			}
			if g.Len() != vertices {
				t.Fatalf("vertex count changed: %d", g.Len())
			}
		})
	}
}
