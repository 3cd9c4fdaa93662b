package gen

import (
	"bytes"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"

	"droidfuzz/internal/device"
	"droidfuzz/internal/drivers"
	"droidfuzz/internal/dsl"
	"droidfuzz/internal/probe"
	"droidfuzz/internal/relation"
)

func newGen(t *testing.T, seed int64, opts Options) *Generator {
	t.Helper()
	target, err := dsl.NewTarget(drivers.AllDescs()...)
	if err != nil {
		t.Fatal(err)
	}
	g := relation.New()
	for _, d := range target.Calls() {
		g.AddVertex(d.Name, d.Weight)
	}
	return New(target, g, rand.New(rand.NewSource(seed)), opts)
}

func TestGenerateProducesValidPrograms(t *testing.T) {
	f := func(seed int64) bool {
		g := newGen(t, seed, Options{})
		for i := 0; i < 30; i++ {
			p := g.Generate()
			if p.Len() == 0 || p.Len() > HardCap {
				return false
			}
			if err := p.Validate(); err != nil {
				t.Logf("invalid: %v\n%s", err, p.String())
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestGenerateNoRelationsValid(t *testing.T) {
	g := newGen(t, 3, Options{NoRelations: true})
	for i := 0; i < 100; i++ {
		if err := g.Generate().Validate(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestResolveInsertsProducers(t *testing.T) {
	g := newGen(t, 4, Options{InvalidResourceProb: 1e-12})
	target := g.Target()
	ioctl := target.Lookup("ioctl$GPU_SUBMIT")
	// A bare GPU_SUBMIT needs fd_gpu and gpu_handle producers.
	p := &dsl.Prog{Calls: []*dsl.Call{g.instantiate(ioctl)}}
	p = g.Resolve(p)
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if p.Len() < 3 {
		t.Fatalf("producers not inserted:\n%s", p.String())
	}
	// The submit call must be last, with both resources linked.
	last := p.Calls[p.Len()-1]
	if last.Desc.Name != "ioctl$GPU_SUBMIT" {
		t.Fatalf("submit not last:\n%s", p.String())
	}
	if last.Args[0].Ref < 0 || last.Args[2].Ref < 0 {
		t.Fatalf("resources unresolved:\n%s", p.String())
	}
	// And the producer chain grounds out at an open.
	if p.Calls[0].Desc.Syscall != "open" {
		t.Fatalf("chain not grounded:\n%s", p.String())
	}
}

func TestResolveReusesEarlierProducers(t *testing.T) {
	g := newGen(t, 5, Options{InvalidResourceProb: 1e-12})
	target := g.Target()
	open := target.Lookup("open$gpu")
	ioctl := target.Lookup("ioctl$GPU_ALLOC")
	p := &dsl.Prog{Calls: []*dsl.Call{
		g.instantiate(open),
		g.instantiate(ioctl),
	}}
	p = g.Resolve(p)
	if p.Len() != 2 {
		t.Fatalf("unnecessary producer inserted:\n%s", p.String())
	}
	if p.Calls[1].Args[0].Ref != 0 {
		t.Fatal("existing producer not reused")
	}
}

func TestMutateKeepsValidity(t *testing.T) {
	f := func(seed int64) bool {
		g := newGen(t, seed, Options{})
		p := g.Generate()
		donor := g.Generate()
		for i := 0; i < 40; i++ {
			q, _ := g.Mutate(p, donor)
			if err := q.Validate(); err != nil {
				t.Logf("op produced invalid prog: %v\n%s", err, q.String())
				return false
			}
			if q.Len() == 0 || q.Len() > HardCap {
				return false
			}
			p = q
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

func TestMutateDoesNotAliasSeed(t *testing.T) {
	g := newGen(t, 6, Options{})
	p := g.Generate()
	before := p.String()
	for i := 0; i < 50; i++ {
		g.Mutate(p, nil)
	}
	if p.String() != before {
		t.Fatal("mutation modified the seed program")
	}
}

func TestSpliceRemapsReferences(t *testing.T) {
	g := newGen(t, 7, Options{})
	target := g.Target()
	mk := func() *dsl.Prog {
		p := &dsl.Prog{Calls: []*dsl.Call{g.instantiate(target.Lookup("ioctl$GPU_MAP"))}}
		return g.Resolve(p)
	}
	a, b := mk(), mk()
	out := g.splice(a.Clone(), b)
	if err := out.Validate(); err != nil {
		t.Fatalf("%v\n%s", err, out.String())
	}
}

func TestAppendWalkGrowsProgram(t *testing.T) {
	g := newGen(t, 8, Options{})
	// Teach the graph one strong chain.
	g.graph.Learn("open$gpu", "ioctl$GPU_ALLOC")
	g.graph.Learn("ioctl$GPU_ALLOC", "ioctl$GPU_SUBMIT")
	p := &dsl.Prog{Calls: []*dsl.Call{g.instantiate(g.Target().Lookup("open$gpu"))}}
	grew := false
	for i := 0; i < 50 && !grew; i++ {
		q := g.appendWalk(p.Clone())
		if q.Len() > p.Len() {
			grew = true
		}
	}
	if !grew {
		t.Fatal("appendWalk never grew the program")
	}
}

func TestGenerateUsesLearnedRelations(t *testing.T) {
	g := newGen(t, 9, Options{StopProb: 0.01})
	// Strongly connect a rarely-taken pair and verify it shows up in
	// generated programs more often than chance.
	g.graph.Learn("ioctl$NFC_POWER", "ioctl$NFC_RAW_XFER")
	pairs := 0
	for i := 0; i < 600; i++ {
		p := g.Generate()
		for j := 1; j < p.Len(); j++ {
			if p.Calls[j-1].Desc.Name == "ioctl$NFC_POWER" &&
				p.Calls[j].Desc.Name == "ioctl$NFC_RAW_XFER" {
				pairs++
			}
		}
	}
	if pairs == 0 {
		t.Fatal("learned relation never exercised")
	}
}

func TestHardCapRespected(t *testing.T) {
	g := newGen(t, 10, Options{MaxLen: 100})
	for i := 0; i < 50; i++ {
		if p := g.Generate(); p.Len() > HardCap {
			t.Fatalf("len = %d", p.Len())
		}
	}
}

// deepCopy copies p exactly, keeping nil and empty slices apart, so a
// comparison against it catches any write Mutate makes into its inputs.
func deepCopy(p *dsl.Prog) *dsl.Prog {
	out := &dsl.Prog{Calls: slices.Clone(p.Calls)}
	for i, c := range p.Calls {
		nc := &dsl.Call{Desc: c.Desc, Args: slices.Clone(c.Args)}
		for j := range nc.Args {
			nc.Args[j].Data = bytes.Clone(nc.Args[j].Data)
		}
		out.Calls[i] = nc
	}
	return out
}

// TestMutateLeavesInputsUntouched pins the shared-storage contract the
// engine relies on: corpus.PickN hands Mutate the corpus's own programs,
// so Mutate must never write into its seed or donor. Every Table I model's
// parameter-extended target is driven through 2 000 mutations with a
// learned graph, so every operator — splice and param-prefix included —
// fires many times.
func TestMutateLeavesInputsUntouched(t *testing.T) {
	for _, m := range device.Models() {
		t.Run(m.ID, func(t *testing.T) {
			target, _, err := probe.Target(device.New(m), probe.Options{Params: true})
			if err != nil {
				t.Fatal(err)
			}
			graph := relation.New()
			for _, d := range target.Calls() {
				graph.AddVertex(d.Name, d.Weight)
			}
			g := New(target, graph, rand.New(rand.NewSource(int64(len(m.ID)))), Options{})
			if !g.hasParams {
				t.Fatal("target has no param calls: param-prefix would never fire")
			}
			pool := make([]*dsl.Prog, 16)
			for i := range pool {
				pool[i] = g.Generate()
				for j := 1; j < pool[i].Len(); j++ {
					graph.Learn(pool[i].Calls[j-1].Desc.Name, pool[i].Calls[j].Desc.Name)
				}
			}
			fired := make(map[MutateOp]int)
			for i := 0; i < 2000; i++ {
				seed := pool[g.rng.Intn(len(pool))]
				var donor *dsl.Prog
				if g.rng.Intn(4) != 0 {
					donor = pool[g.rng.Intn(len(pool))]
				}
				seedBefore := deepCopy(seed)
				var donorBefore *dsl.Prog
				if donor != nil {
					donorBefore = deepCopy(donor)
				}
				q, op := g.Mutate(seed, donor)
				fired[op]++
				if !reflect.DeepEqual(seed, seedBefore) {
					t.Fatalf("mutation %d (op %d) wrote into its seed:\nbefore:\n%s\nafter:\n%s", i, op, seedBefore, seed)
				}
				if donor != nil && !reflect.DeepEqual(donor, donorBefore) {
					t.Fatalf("mutation %d (op %d) wrote into its donor:\nbefore:\n%s\nafter:\n%s", i, op, donorBefore, donor)
				}
				// Mutants re-enter the pool, as admitted programs re-enter
				// the corpus, so later mutations read them as shared inputs.
				pool[g.rng.Intn(len(pool))] = q
			}
			for op := OpMutateArgs; op <= OpParamPrefix; op++ {
				if fired[op] == 0 {
					t.Errorf("operator %d never fired in 2000 mutations", op)
				}
			}
		})
	}
}

// TestForkMatchesNew: a fork shares its parent's vertex-id table but
// otherwise generates and mutates exactly what a fresh generator with the
// same RNG does, also after the shared graph gains vertices of another
// model that the table must grow to cover.
func TestForkMatchesNew(t *testing.T) {
	base := newGen(t, 1, Options{})
	for i := 0; i < 400; i++ {
		prev := base.Generate()
		p := base.Generate()
		for j := 1; j < p.Len(); j++ {
			base.graph.Learn(p.Calls[j-1].Desc.Name, p.Calls[j].Desc.Name)
		}
		if i%100 == 0 {
			// A vertex the target lacks, tied into learned chains.
			other := "hal$foreign.m" + string(rune('a'+i/100))
			base.graph.AddVertex(other, 0.5)
			base.graph.Learn(prev.Calls[0].Desc.Name, other)
			base.graph.Learn(other, p.Calls[0].Desc.Name)
		}
	}
	for seed := int64(0); seed < 4; seed++ {
		fresh := New(base.target, base.graph, rand.New(rand.NewSource(seed)), Options{})
		fork := base.Fork(rand.New(rand.NewSource(seed)))
		// The fork grows the shared table over this one.
		other := "hal$foreign.s" + string(rune('a'+seed))
		base.graph.AddVertex(other, 0.9)
		base.graph.Learn("ioctl$NFC_POWER", other)
		base.graph.Learn(other, "ioctl$NFC_RAW_XFER")
		for i := 0; i < 100; i++ {
			a, b := fresh.Generate(), fork.Generate()
			if a.String() != b.String() {
				t.Fatalf("seed %d, program %d: fork generated\n%s\nnew generated\n%s", seed, i, b, a)
			}
			ma, _ := fresh.Mutate(a, b)
			mb, _ := fork.Mutate(b, a)
			if ma.String() != mb.String() {
				t.Fatalf("seed %d, mutant %d differs", seed, i)
			}
		}
	}
}
