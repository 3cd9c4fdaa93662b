package hal

import (
	"encoding/gob"

	"droidfuzz/internal/binder"
)

// Process checkpoint/restore. A HAL service's internals are opaque
// ("closed-source"), so restore does not copy fields back — it rebuilds the
// service from scratch via the reconstructor the device installed at boot,
// exactly what init does when it respawns a crashed HAL process. Boot
// issues no transactions, so a freshly constructed service IS the pristine
// post-boot state.
//
// A respawn constructs only per-instance state: the service struct and the
// maps it owns. The transaction table — descriptor, signatures, codes and
// handlers — belongs to the service type, is built once at package init
// and is shared by every process of that type on every device, the way a
// real HAL's compiled stub is. A respawned instance therefore reflects the
// identical method list with the identical codes.

// procState is the Process's checkpoint payload. The service internals are
// opaque, so the only state — and the only thing a checkpoint carries to
// another device — is liveness; a twin restoring it keeps its own rebuild
// closure and death recipient.
type procState struct {
	Dead bool
}

func init() { gob.Register(&procState{}) }

// Checkpoint implements snap.Subsystem.
func (p *Process) Checkpoint() any {
	p.mu.Lock()
	defer p.mu.Unlock()
	return &procState{Dead: p.dead}
}

// Restore implements snap.Subsystem. Undrained crash records are dropped
// along with the dead service instance. The death recipient is re-armed:
// a restore respawns the process the same way init does after a crash, so
// a HAL that died mid-batch and was wound back to alive must deliver a
// fresh notification if it dies again on the next exec — previously only
// the reboot fallback (which constructs new armed processes) did this.
func (p *Process) Restore(s any) {
	st := s.(*procState)
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.rebuild != nil {
		p.inner = p.rebuild()
	}
	p.dead = st.Dead
	p.crashes = nil
	p.deathArmed = p.deathFn != nil && !st.Dead
}

// Framework is a stateless dispatcher over the ServiceManager; it has
// nothing to capture, so its generation never advances and Device.Restore
// always skips it.

// Checkpoint implements snap.Subsystem.
func (f *Framework) Checkpoint() any { return nil }

// Restore implements snap.Subsystem.
func (f *Framework) Restore(any) {}

// Gen implements snap.Subsystem.
func (f *Framework) Gen() uint64 { return 0 }

var _ binder.Service = (*Process)(nil)
