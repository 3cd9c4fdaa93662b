package relation_test

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"math/rand"
	"slices"
	"testing"

	"droidfuzz/internal/relation"
)

// goldenDrawHash pins the record TestGoldenDrawSequence writes. A change
// to it is a change to what every relation-guided campaign draws.
const goldenDrawHash = 0xf46424bbc1a2e861

// goldenRecord hashes everything a generator can observe of a graph.
type goldenRecord struct {
	h hash.Hash64
	n int
}

func (r *goldenRecord) str(s string) {
	r.h.Write([]byte(s))
	r.h.Write([]byte{0xff})
	r.n++
}

func (r *goldenRecord) f64(x float64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], math.Float64bits(x))
	r.h.Write(b[:])
	r.n++
}

// rows records every vertex's successor row in the graph's own order and
// its predecessor row in the documented order (weight desc, then producer
// name asc), every weight bit for bit.
func (r *goldenRecord) rows(g *relation.Graph) {
	for _, name := range g.Names() {
		r.str(name)
		r.f64(g.Vertex(name).Weight)
		for _, e := range g.Successors(name) {
			r.str(e.To)
			r.f64(e.Weight)
		}
		r.str("|")
		type in struct {
			from string
			w    float64
		}
		var pred []in
		for from, w := range g.Vertex(name).In {
			pred = append(pred, in{from, w})
		}
		slices.SortFunc(pred, func(x, y in) int {
			return cmp.Or(cmp.Compare(y.w, x.w), cmp.Compare(x.from, y.from))
		})
		for _, p := range pred {
			r.str(p.from)
			r.f64(p.w)
		}
	}
	r.str(fmt.Sprintf("edges=%d learns=%d", g.Edges(), g.Learns()))
}

// TestGoldenDrawSequence is the relation layer's bit-exact spec: a seeded
// run of AddVertex, Learn, ApplyOps and Decay over a Table I-sized graph
// (316 vertices, the union of the seven models' calls and interfaces),
// recording PickBase and Walk draws between operations and every row of
// the graph at intervals. Decays with a zero floor drive weights into the
// subnormal range and to 0, so rounding creates ties that only the name
// order breaks; the rest of the decays use the engine's floor.
func TestGoldenDrawSequence(t *testing.T) {
	rng := rand.New(rand.NewSource(20250625))
	g := relation.New()
	prefixes := []string{"ioctl$", "hal$", "param$", "openat$", "write$", "mmap$"}
	var names []string
	seen := map[string]bool{}
	addVertex := func() {
		for {
			b := make([]byte, 3+rng.Intn(8))
			for i := range b {
				b[i] = byte('a' + rng.Intn(26))
			}
			n := prefixes[rng.Intn(len(prefixes))] + string(b)
			if seen[n] {
				continue
			}
			seen[n] = true
			names = append(names, n)
			// Some weights repeat exactly; some are clamped.
			w := []float64{0.5, 0.25, 0.1, -1, 2, rng.Float64()}[rng.Intn(6)]
			g.AddVertex(n, w)
			return
		}
	}
	for len(names) < 250 {
		addVertex()
	}
	// A hot set of consumers gives some vertices the high in-degree a
	// long campaign builds.
	pick := func() string {
		if rng.Intn(3) == 0 {
			return names[rng.Intn(16)]
		}
		return names[rng.Intn(len(names))]
	}
	rec := &goldenRecord{h: fnv.New64a()}
	seq := map[string]uint64{}
	devices := []string{"h1/s0.0/A1", "h0/s1.0/B", "C2", "h0/s3.0/D"}
	for op := 0; op < 8000; op++ {
		if op == 6000 {
			// Scale every weight down into the subnormal range, where
			// distinct weights round together into ties and then to 0;
			// learns continue on top and the engine's floor later prunes.
			for _, f := range []float64{1e-100, 1e-100, 1e-100, 1e-8, 1e-4, 1e-4, 1e-4} {
				g.Decay(f, 0)
				rec.rows(g)
			}
		}
		switch r := rng.Intn(1000); {
		case r < 600:
			g.Learn(pick(), pick())
		case r < 620:
			g.Learn(pick(), "ghost$call") // unknown: ignored
			n := pick()
			g.Learn(n, n) // self: ignored
		case r < 750:
			ops := make([]relation.LearnOp, 1+rng.Intn(8))
			for i := range ops {
				d := devices[rng.Intn(len(devices))]
				ops[i] = relation.LearnOp{A: pick(), B: pick(), Device: d, Seq: seq[d]}
				seq[d]++
			}
			rng.Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
			g.ApplyOps(ops)
		case r < 752:
			if rng.Intn(4) == 0 {
				g.Decay(0.5+rng.Float64()*0.45, rng.Float64()*0.05)
			} else {
				g.Decay(0.9, 0.01)
			}
		case r < 770:
			if len(names) < 316 {
				addVertex()
			} else {
				g.AddVertex(pick(), rng.Float64())
			}
		default:
			for i := 0; i < 3; i++ {
				rec.str(g.PickBase(rng))
			}
			for _, n := range g.Walk(rng, pick(), 6, 0.25) {
				rec.str(n)
			}
			rec.str("/")
		}
		if op%500 == 499 {
			rec.rows(g)
		}
	}
	if err := g.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if got := rec.h.Sum64(); got != goldenDrawHash {
		t.Fatalf("draw record hash %#x (%d entries, %d vertices, %d edges), want %#x",
			got, rec.n, g.Len(), g.Edges(), uint64(goldenDrawHash))
	}
}
