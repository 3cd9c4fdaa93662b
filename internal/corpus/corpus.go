// Package corpus maintains the seed corpus of interesting programs: test
// cases that contributed new cross-boundary signal, kept for mutation and
// persisted as DSL text (paper §IV-A: the Daemon "maintains persistent
// data, such as the seed corpus").
package corpus

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"droidfuzz/internal/dsl"
)

// Entry is one corpus program with its bookkeeping.
type Entry struct {
	Prog *dsl.Prog
	// Signal is the number of signal elements the program contributed
	// when admitted (its selection priority).
	Signal int
	// Hits counts how often it was picked for mutation.
	Hits uint64
}

// Corpus is a prioritized seed set. Safe for concurrent use.
type Corpus struct {
	mu      sync.Mutex
	entries []*Entry
	// cum holds the prefix sums of the entries' pick weights Signal+1:
	// cum[i] is the total weight of entries[:i+1]. Entries are append-only
	// and Signal never changes, so Add extends it in O(1) and a weighted
	// pick over any prefix is a binary search.
	cum []int
	// seen dedups admissions by the 64-bit FNV-1a hash of the canonical
	// program text. Keeping the full text of every program ever offered —
	// admitted or not — grew without bound over a long campaign; 8 bytes
	// per distinct program is the retained cost now, and a collision
	// (astronomically unlikely at corpus scale) merely drops one admission.
	seen map[uint64]struct{}
	adds uint64
}

// New returns an empty corpus.
func New() *Corpus {
	return &Corpus{seen: make(map[uint64]struct{})}
}

// fnv1a64 hashes s without allocating (hash/fnv would escape the string
// through its io.Writer interface).
func fnv1a64(s string) uint64 {
	const offset, prime = 14695981039346656037, 1099511628211
	h := uint64(offset)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime
	}
	return h
}

// Add admits a program with its contributed-signal score, deduplicating by
// (the hash of) canonical text. It reports whether the program was new.
func (c *Corpus) Add(p *dsl.Prog, signal int) bool {
	key := fnv1a64(p.String())
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, dup := c.seen[key]; dup {
		return false
	}
	c.seen[key] = struct{}{}
	c.entries = append(c.entries, &Entry{Prog: p.Clone(), Signal: signal})
	total := signal + 1
	if n := len(c.cum); n > 0 {
		total += c.cum[n-1]
	}
	c.cum = append(c.cum, total)
	c.adds++
	return true
}

// Len reports the number of programs.
func (c *Corpus) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// Adds reports lifetime admissions.
func (c *Corpus) Adds() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.adds
}

// Pick draws a seed for mutation. Half the draws are uniform — keeping
// rare, low-signal seeds alive — and half are biased toward entries with
// higher contributed signal (prio ∝ signal+1). The result is a private
// clone the caller may edit. Returns nil on an empty corpus.
func (c *Corpus) Pick(rng *rand.Rand) *dsl.Prog {
	p := c.PickN(rng, -1)
	if p == nil {
		return nil
	}
	return p.Clone()
}

// PickN is Pick restricted to the first n entries, without the clone. The
// result is the entry's own program, shared with the corpus and every
// other caller, and must be treated as read-only — the same contract as
// relation.Snapshot.Successors; gen.Mutate makes the one copy a mutation
// needs. Because the corpus is append-only and an entry's Signal never
// changes after admission, the first n entries are a pinned view of the
// corpus as it stood when it had length n — the pipelined producer draws
// from views captured at deterministic sync points so identical campaigns
// make identical draws regardless of goroutine scheduling. n < 0 (or n
// beyond the current length) means the whole corpus; the draw sequence on
// the same prefix is identical to Pick's. The weighted draw x selects the
// first entry whose prefix sum exceeds x: the entry a linear scan
// subtracting each Signal+1 from x would stop at.
func (c *Corpus) PickN(rng *rand.Rand, n int) *dsl.Prog {
	c.mu.Lock()
	defer c.mu.Unlock()
	if n < 0 || n > len(c.entries) {
		n = len(c.entries)
	}
	if n == 0 {
		return nil
	}
	var e *Entry
	if rng.Intn(2) == 0 {
		e = c.entries[rng.Intn(n)]
	} else {
		x := rng.Intn(c.cum[n-1])
		e = c.entries[sort.SearchInts(c.cum[:n], x+1)]
	}
	e.Hits++
	return e.Prog
}

// Entries returns a snapshot of the corpus ordered by descending signal.
func (c *Corpus) Entries() []*Entry {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]*Entry, len(c.entries))
	copy(out, c.entries)
	sort.SliceStable(out, func(i, j int) bool { return out[i].Signal > out[j].Signal })
	return out
}

// Save writes every program as a numbered .prog file under dir.
func (c *Corpus) Save(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("corpus: %w", err)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for i, e := range c.entries {
		path := filepath.Join(dir, fmt.Sprintf("%06d.prog", i))
		if err := os.WriteFile(path, []byte(e.Prog.String()), 0o644); err != nil {
			return fmt.Errorf("corpus: %w", err)
		}
	}
	return nil
}

// Load reads every .prog file under dir, parsing against the target;
// unparseable files are skipped (descriptions may have changed), and the
// number of loaded programs is returned.
func (c *Corpus) Load(dir string, target *dsl.Target) (int, error) {
	matches, err := filepath.Glob(filepath.Join(dir, "*.prog"))
	if err != nil {
		return 0, fmt.Errorf("corpus: %w", err)
	}
	sort.Strings(matches)
	n := 0
	for _, path := range matches {
		data, err := os.ReadFile(path)
		if err != nil {
			return n, fmt.Errorf("corpus: %w", err)
		}
		p, err := dsl.ParseProg(target, string(data))
		if err != nil {
			continue
		}
		if c.Add(p, 1) {
			n++
		}
	}
	return n, nil
}
