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
// after publication; g.mu must be held. The graph shares its storage with
// that snapshot, so a write into a published row would change both; it is
// checked after every mutation (sanCheck), before every publish, and from
// CheckInvariants, so the engine's per-step sanitize sweep covers it too,
// and it is reported as what it is rather than as a broken invariant.
func (g *Graph) sanVerifySnapLocked() {
	p := g.san.last
	if p == nil {
		return
	}
	if got := p.fingerprint(); got != p.san.sum {
		panic(fmt.Sprintf("droidfuzz_sanitize: published relation.Snapshot was mutated after publication (fingerprint %#x, sealed %#x) — snapshots are immutable by contract; copy before editing", got, p.san.sum))
	}
}

// sanCheckBuildLocked panics if a snapshot about to be published differs
// in anything from a from-scratch build of the same graph; g.mu must be
// held. A mutation that leaves a row out of order, or one row's mirror
// stale, would otherwise publish it and skew every later walk without
// failing anything.
func (g *Graph) sanCheckBuildLocked(s *Snapshot) {
	if err := diffSnapshots(s, g.buildSnapshotLocked()); err != nil {
		panic(fmt.Sprintf("droidfuzz_sanitize: published relation.Snapshot diverges from a full rebuild: %v", err))
	}
}

// fingerprint hashes every name, weight and arc of the snapshot with
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
	row := func(r []Arc) {
		mix(uint64(len(r)))
		for _, e := range r {
			mix(uint64(uint32(e.ID)))
			mix(math.Float64bits(e.Weight))
		}
	}
	for i, name := range s.names {
		str(name)
		mix(math.Float64bits(s.weights[i]))
		row(s.Successors(int32(i)))
		row(s.Predecessors(int32(i)))
	}
	mix(math.Float64bits(s.total))
	mix(uint64(s.edges))
	mix(s.learns)
	return h
}

// sanCheck runs the full invariant sweep after a mutation (Learn, Decay)
// while g.mu is still held, and panics on the first violation — in a
// sanitize build a broken graph must stop the campaign at the mutation
// that broke it, not surface later as skewed generation probabilities.
// The published snapshot's seal is verified first.
func (g *Graph) sanCheck(op string, minWeight float64) {
	g.sanVerifySnapLocked()
	if err := g.checkInvariantsLocked(minWeight); err != nil {
		panic(fmt.Sprintf("droidfuzz_sanitize: relation.Graph invariant violated after %s: %v", op, err))
	}
}
