package vkernel

import "encoding/gob"

// Kernel checkpoint/restore. The device tree (devs), installed tracer, and
// syscall gate survive a restore unchanged — they are boot-time wiring, not
// runtime state — so restoring a kernel leaves the same *Kernel usable by
// everything that captured a pointer to it (and a gated broker stays gated
// after importing a checkpoint). Everything a campaign mutates
// (fd table, trace sequence, crash/dmesg buffers, lockdep counts, coverage)
// is wound back to its post-boot value.

// kernelState is the Kernel's checkpoint payload. Boot issues no syscalls,
// so pristine state is almost entirely implied by zero values; only the
// (test-tunable) step budget needs capturing.
type kernelState struct {
	StepBudget int
}

func init() { gob.Register(&kernelState{}) }

// Checkpoint implements snap.Subsystem.
func (k *Kernel) Checkpoint() any {
	k.mu.Lock()
	defer k.mu.Unlock()
	return &kernelState{StepBudget: k.StepBudget}
}

// Restore implements snap.Subsystem. It drops every open fd without running
// driver Close paths — driver state is restored separately by its own
// subsystem, so running Close against about-to-be-overwritten state would
// only corrupt the restore.
func (k *Kernel) Restore(s any) {
	st := s.(*kernelState)
	k.mu.Lock()
	clear(k.files)
	k.nextFD = 3
	k.seq = 0
	k.sysCnt = 0
	k.crashes = nil
	k.wedged = false
	k.dmesg = nil
	clear(k.lockSeq)
	k.StepBudget = st.StepBudget
	k.mu.Unlock()
	// A fresh boot builds a disabled, empty collector; Reset+Disable is
	// observationally identical and keeps the 256 KiB trace buffer.
	k.Cov.Reset()
	k.Cov.Disable()
}
