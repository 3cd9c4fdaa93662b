//go:build droidfuzz_sanitize

package relation

import (
	"fmt"
	"math"
)

// SanitizeEnabled reports whether the droidfuzz_sanitize build tag is on.
const SanitizeEnabled = true

// graphSan tracks the most recently published snapshot so the sanitizer can
// re-verify its fingerprint: a published Snapshot is an immutability
// contract, and any write after publication must stop the campaign.
type graphSan struct {
	last *Snapshot
}

// snapSan carries the fingerprint sealed at publication time.
type snapSan struct {
	sum uint64
}

// sanSealLocked fingerprints and remembers a newly built snapshot; g.mu
// must be held.
func (g *Graph) sanSealLocked(s *Snapshot) {
	s.san.sum = s.fingerprint()
	g.san.last = s
}

// sanVerifySnapLocked panics if the last published snapshot was mutated
// after publication; g.mu must be held. Called before every rebuild (a
// row-incremental build shares the previous snapshot's rows, so a write
// into one must be reported as what it is, not as a diverging rebuild) and
// from CheckInvariants, so the engine's per-step sanitize sweep covers it too.
func (g *Graph) sanVerifySnapLocked() {
	p := g.san.last
	if p == nil {
		return
	}
	if got := p.fingerprint(); got != p.san.sum {
		panic(fmt.Sprintf("droidfuzz_sanitize: published relation.Snapshot was mutated after publication (fingerprint %#x, sealed %#x) — snapshots are immutable by contract; copy before editing", got, p.san.sum))
	}
}

// sanCheckRebuildLocked panics if a row-incremental snapshot differs in
// anything from a from-scratch build of the same graph; g.mu must be held.
// A Learn that forgets to mark a row it changed would otherwise publish a
// stale sorted row and skew every later walk without failing anything.
func (g *Graph) sanCheckRebuildLocked(s *Snapshot) {
	if err := diffSnapshots(s, g.buildSnapshotLocked()); err != nil {
		panic(fmt.Sprintf("droidfuzz_sanitize: row-incremental relation.Snapshot diverges from a full rebuild: %v", err))
	}
}

// fingerprint hashes every name, weight and edge of the snapshot with
// FNV-1a; any single-bit mutation of the published view changes it.
func (s *Snapshot) fingerprint() uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	mix := func(x uint64) {
		for i := 0; i < 8; i++ {
			h ^= x & 0xff
			h *= prime64
			x >>= 8
		}
	}
	str := func(v string) {
		for i := 0; i < len(v); i++ {
			h ^= uint64(v[i])
			h *= prime64
		}
		h ^= 0xff
		h *= prime64
	}
	for i, name := range s.names {
		str(name)
		mix(math.Float64bits(s.weights[i]))
		for _, e := range s.succ[i] {
			str(e.From)
			str(e.To)
			mix(math.Float64bits(e.Weight))
		}
		for _, e := range s.pred[i] {
			str(e.From)
			str(e.To)
			mix(math.Float64bits(e.Weight))
		}
	}
	mix(uint64(s.edges))
	mix(s.learns)
	return h
}

// sanCheck runs the full invariant sweep after a mutation (Learn, Decay)
// while g.mu is still held, and panics on the first violation — in a
// sanitize build a broken graph must stop the campaign at the mutation
// that broke it, not surface later as skewed generation probabilities.
func (g *Graph) sanCheck(op string, minWeight float64) {
	if err := g.checkInvariantsLocked(minWeight); err != nil {
		panic(fmt.Sprintf("droidfuzz_sanitize: relation.Graph invariant violated after %s: %v", op, err))
	}
}
