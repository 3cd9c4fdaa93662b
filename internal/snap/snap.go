// Package snap holds the tiny primitives shared by every subsystem that
// participates in device snapshot/restore: a lock-free generation counter
// for dirty tracking and the per-subsystem checkpoint interface.
//
// It is a leaf package on purpose — vkernel, kasan, binder, hal, ebpf,
// drivers and device all import it, so it must not import any of them.
package snap

import "sync/atomic"

// Dirty is a generation counter embedded by snapshot-capable subsystems.
// Every mutating operation calls Touch; Device.Restore compares the
// generation recorded at checkpoint time against Gen() and skips the
// subsystem entirely when they match. Over-marking (bumping on an op that
// turned out not to mutate) costs a wasted restore; under-marking is a
// correctness bug, so mutation paths bump unconditionally.
type Dirty struct {
	gen atomic.Uint64
}

// Touch marks the subsystem dirty relative to any previously captured
// snapshot. Safe for concurrent use.
func (d *Dirty) Touch() { d.gen.Add(1) }

// Gen returns the current generation. Two equal readings with no Touch in
// between mean the subsystem state is unchanged.
func (d *Dirty) Gen() uint64 { return d.gen.Load() }

// Subsystem is the per-subsystem checkpoint/restore contract. Checkpoint
// deep-copies the live state into an opaque immutable payload; Restore
// copies it back, leaving the receiver exactly as it was at checkpoint
// time. The payload is reused across many restores and must never be
// aliased mutably by either side.
//
// The payload is also the subsystem's portable form: the device gob-encodes
// it into checkpoints that cross devices and hosts, and restores decoded
// payloads onto same-model twins. So a payload holds exported fields only
// (gob silently drops the rest), no maps (slices sorted by key keep the
// encoding deterministic; empty collections are nil, the shape a decode
// produces), and no pointers into its device — or nil for stateless
// subsystems. A field that is device-local on purpose stays unexported
// and carries a //droidvet:checkpoint annotation; Restore must then accept
// a payload in which it is zero.
type Subsystem interface {
	Checkpoint() any
	Restore(any)
	Gen() uint64
}

// Validator is implemented by subsystems whose payloads must fit the
// receiver beyond their type: a decoded payload is checked against it
// before any subsystem of the device is restored, so a mismatched
// checkpoint is rejected whole instead of applied in part.
type Validator interface {
	Validate(payload any) error
}
