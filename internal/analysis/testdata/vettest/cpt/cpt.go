// Package cpt fixes the checkpoint-completeness pass: a miniature
// Subsystem contract, one subsystem that round-trips every field (Good),
// one that drops fields and leaks one from the portable form (Bad), and a
// deliberately stateless one (Idle).
package cpt

import "sync"

// Subsystem mirrors the production snap.Subsystem contract.
type Subsystem interface {
	Checkpoint() any
	Restore(any)
	Gen() uint64
}

// goodState is Good's checkpoint payload and portable form: exported
// fields, entries reached through a slice, and one device-local field
// annotated as such (the binder registry shape).
type goodState struct {
	Mode  uint64
	Links []goodLink
	owner *Good //droidvet:checkpoint device-local identity, never leaves its device
}

// goodLink is one entry of a goodState, reached through its Links slice.
type goodLink struct {
	Name string
	Up   bool
}

// Good round-trips completely: every stateful field is captured and
// restored; scratch is annotated ephemeral; mu is sync machinery; sub is
// its own subsystem.
type Good struct {
	mu      sync.Mutex
	gen     uint64
	mode    uint64
	links   []goodLink
	scratch []byte //droidvet:checkpoint ephemeral decode scratch, rebuilt on demand
	sub     *Idle
}

// Checkpoint implements Subsystem.
func (g *Good) Checkpoint() any {
	g.mu.Lock()
	defer g.mu.Unlock()
	return &goodState{Mode: g.mode, Links: append([]goodLink(nil), g.links...), owner: g}
}

// Restore implements Subsystem.
func (g *Good) Restore(s any) {
	st := s.(*goodState)
	g.mu.Lock()
	defer g.mu.Unlock()
	g.mode = st.Mode
	g.links = append([]goodLink(nil), st.Links...)
	g.gen++
}

// Gen implements Subsystem.
func (g *Good) Gen() uint64 { return g.gen }

// Idle is a stateless subsystem, the ebpf.Hub shape: the one field is
// harness wiring, annotated ephemeral.
type Idle struct {
	hooks []func() //droidvet:checkpoint ephemeral harness wiring, not device state
}

// Checkpoint implements Subsystem.
func (i *Idle) Checkpoint() any { return nil }

// Restore implements Subsystem.
func (i *Idle) Restore(any) {}

// Gen implements Subsystem.
func (i *Idle) Gen() uint64 { return 0 }

// Hooked keeps the hooks field referenced so the fixture compiles with
// vet-clean unused checks.
func (i *Idle) Hooked() int { return len(i.hooks) }
