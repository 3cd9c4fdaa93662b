package corpus

import (
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"droidfuzz/internal/drivers"
	"droidfuzz/internal/dsl"
)

func target(t testing.TB) *dsl.Target {
	t.Helper()
	tg, err := dsl.NewTarget(drivers.TCPCDescs()...)
	if err != nil {
		t.Fatal(err)
	}
	return tg
}

func prog(t testing.TB, tg *dsl.Target, text string) *dsl.Prog {
	t.Helper()
	p, err := dsl.ParseProg(tg, text)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestAddDeduplicates(t *testing.T) {
	tg := target(t)
	c := New()
	p := prog(t, tg, `r0 = open$tcpc(path="/dev/tcpc0")`+"\n")
	if !c.Add(p, 5) {
		t.Fatal("first add rejected")
	}
	if c.Add(p.Clone(), 5) {
		t.Fatal("duplicate accepted")
	}
	if c.Len() != 1 || c.Adds() != 1 {
		t.Fatalf("len/adds = %d/%d", c.Len(), c.Adds())
	}
}

func TestPickBiasAndUniform(t *testing.T) {
	tg := target(t)
	c := New()
	if c.Pick(rand.New(rand.NewSource(1))) != nil {
		t.Fatal("empty corpus picked")
	}
	big := prog(t, tg, `r0 = open$tcpc(path="/dev/tcpc0")`+"\n")
	small := prog(t, tg, `r0 = open$tcpc(path="/dev/tcpc0")`+"\nioctl$TCPC_RESET(fd=r0, req=0xa101)\n")
	c.Add(big, 100)
	c.Add(small, 0)
	rng := rand.New(rand.NewSource(7))
	bigPicks := 0
	for i := 0; i < 2000; i++ {
		if c.Pick(rng).Len() == 1 {
			bigPicks++
		}
	}
	// 50% uniform (→ ~50/50) + 50% weighted (→ ~100/101 big):
	// expected big share ≈ 0.25 + 0.5 ≈ 75%.
	if bigPicks < 1200 || bigPicks > 1800 {
		t.Fatalf("big picked %d/2000", bigPicks)
	}
	// Picks return clones: mutating one must not corrupt the corpus.
	p := c.Pick(rng)
	p.Calls[0].Args[0].Str = "corrupted"
	for _, e := range c.Entries() {
		if e.Prog.Calls[0].Args[0].Str == "corrupted" {
			t.Fatal("pick returned shared memory")
		}
	}
}

func TestEntriesSortedBySignal(t *testing.T) {
	tg := target(t)
	c := New()
	c.Add(prog(t, tg, `r0 = open$tcpc(path="/dev/tcpc0")`+"\n"), 1)
	c.Add(prog(t, tg, `r0 = open$tcpc(path="/dev/tcpc0")`+"\nioctl$TCPC_RESET(fd=r0, req=0xa101)\n"), 9)
	es := c.Entries()
	if es[0].Signal != 9 {
		t.Fatal("entries not sorted")
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	tg := target(t)
	c := New()
	texts := []string{
		`r0 = open$tcpc(path="/dev/tcpc0")` + "\n",
		`r0 = open$tcpc(path="/dev/tcpc0")` + "\nioctl$TCPC_SET_MODE(fd=r0, req=0xa102, mode=0x3)\n",
	}
	for _, txt := range texts {
		c.Add(prog(t, tg, txt), 1)
	}
	dir := t.TempDir()
	if err := c.Save(dir); err != nil {
		t.Fatal(err)
	}
	// A garbage file must be skipped, not fail the load.
	os.WriteFile(filepath.Join(dir, "zzzzzz.prog"), []byte("garbage(\n"), 0o644)

	fresh := New()
	n, err := fresh.Load(dir, tg)
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 || fresh.Len() != 2 {
		t.Fatalf("loaded %d, corpus %d", n, fresh.Len())
	}
	// Round trip preserves canonical text.
	want := map[string]bool{}
	for _, txt := range texts {
		want[txt] = true
	}
	for _, e := range fresh.Entries() {
		if !want[e.Prog.String()] {
			t.Fatalf("unexpected program %q", e.Prog.String())
		}
	}
}

func TestConcurrentAddAndPick(t *testing.T) {
	// The daemon's engines may share corpora through future extensions;
	// the type promises concurrency safety (run with -race).
	tg := target(t)
	c := New()
	base := prog(t, tg, `r0 = open$tcpc(path="/dev/tcpc0")`+"\n")
	c.Add(base, 1)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < 200; i++ {
				p := base.Clone()
				p.Calls[0].Args[0].Str = "/dev/tcpc0"
				c.Add(p, g*1000+i)
				if got := c.Pick(rng); got == nil {
					t.Error("pick returned nil on non-empty corpus")
					return
				}
				// A shared PickN result is read while other goroutines
				// admit programs, as the look-ahead producer does.
				if got := c.PickN(rng, -1); got == nil || got.String() == "" {
					t.Error("PickN returned nil or an empty program on non-empty corpus")
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestHashDedupMatchesTextDedup: dedup moved from retained full program
// text to 64-bit FNV-1a hashes of it; admission behaviour must be
// unchanged — same text (however arrived at) rejected, distinct texts all
// admitted.
func TestHashDedupMatchesTextDedup(t *testing.T) {
	tg := target(t)
	c := New()
	base := prog(t, tg, `r0 = open$tcpc(path="/dev/tcpc0")`+"\nioctl$TCPC_RESET(fd=r0, req=0xa101)\n")
	if !c.Add(base, 3) {
		t.Fatal("first add rejected")
	}
	// A clone and an independently parsed copy serialize identically and
	// must both be rejected as duplicates.
	if c.Add(base.Clone(), 3) {
		t.Fatal("clone admitted twice")
	}
	if c.Add(prog(t, tg, base.String()), 3) {
		t.Fatal("reparsed copy admitted twice")
	}
	// Programs differing only in one argument are distinct.
	variant := base.Clone()
	variant.Calls[1].Args[1].Val = 0xa102
	if !c.Add(variant, 3) {
		t.Fatal("distinct variant rejected")
	}
	if c.Len() != 2 || c.Adds() != 2 {
		t.Fatalf("len/adds = %d/%d, want 2/2", c.Len(), c.Adds())
	}
	// A long run of distinct programs is admitted without false-positive
	// collisions.
	for i := 0; i < 2000; i++ {
		p := base.Clone()
		p.Calls[1].Args[1].Val = uint64(0xb000 + i)
		if !c.Add(p, 1) {
			t.Fatalf("distinct program %d rejected (hash collision?)", i)
		}
	}
	if c.Len() != 2002 {
		t.Fatalf("len = %d, want 2002", c.Len())
	}
}

// refPickN is PickN's historical linear scan, kept as the reference the
// prefix-sum pick must match draw for draw: the same rng calls in the same
// order, and the same entry for every draw.
func refPickN(ents []*Entry, rng *rand.Rand, n int) *Entry {
	if n >= 0 && n < len(ents) {
		ents = ents[:n]
	}
	if len(ents) == 0 {
		return nil
	}
	if rng.Intn(2) == 0 {
		return ents[rng.Intn(len(ents))]
	}
	total := 0
	for _, e := range ents {
		total += e.Signal + 1
	}
	x := rng.Intn(total)
	for _, e := range ents {
		x -= e.Signal + 1
		if x < 0 {
			return e
		}
	}
	return ents[len(ents)-1]
}

// TestPickNMatchesLinearScan: over random corpora of up to 2 000 entries
// with random signals, and prefixes before, at and beyond both ends, PickN
// returns the reference scan's entry and leaves the rng in the same state.
func TestPickNMatchesLinearScan(t *testing.T) {
	tg := target(t)
	base := prog(t, tg, `r0 = open$tcpc(path="/dev/tcpc0")`+"\nioctl$TCPC_RESET(fd=r0, req=0xa101)\n")
	gen := rand.New(rand.NewSource(17))
	for trial := 0; trial < 12; trial++ {
		size := gen.Intn(2001)
		if trial == 0 {
			size = 0
		}
		c := New()
		for i := 0; i < size; i++ {
			p := base.Clone()
			p.Calls[1].Args[1].Val = uint64(i)
			signal := gen.Intn(20)
			switch gen.Intn(4) {
			case 0:
				signal = 0
			case 1:
				signal = gen.Intn(5000)
			}
			if !c.Add(p, signal) {
				t.Fatalf("distinct program %d rejected", i)
			}
		}
		seed := gen.Int63()
		got, want := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
		for _, n := range []int{-1, 0, 1, size / 2, size, size + 3} {
			for d := 0; d < 300; d++ {
				p := c.PickN(got, n)
				ref := refPickN(c.entries, want, n)
				if (p == nil) != (ref == nil) || (ref != nil && p != ref.Prog) {
					t.Fatalf("trial %d (size %d) n=%d draw %d: PickN chose a different entry than the linear scan", trial, size, n, d)
				}
				if g, w := got.Int63(), want.Int63(); g != w {
					t.Fatalf("trial %d (size %d) n=%d draw %d: rng diverged (%d vs %d)", trial, size, n, d, g, w)
				}
			}
		}
	}
}

// TestPickNSharesEntryStorage: PickN hands out the entry's own program
// (read-only, uncopied) and Pick a private clone.
func TestPickNSharesEntryStorage(t *testing.T) {
	tg := target(t)
	c := New()
	c.Add(prog(t, tg, `r0 = open$tcpc(path="/dev/tcpc0")`+"\n"), 3)
	rng := rand.New(rand.NewSource(2))
	e := c.Entries()[0]
	if c.PickN(rng, -1) != e.Prog {
		t.Fatal("PickN copied the entry's program")
	}
	if c.Pick(rng) == e.Prog {
		t.Fatal("Pick returned the entry's own program")
	}
	if e.Hits != 2 {
		t.Fatalf("hits = %d, want 2", e.Hits)
	}
}
