package ebpf

// Hub checkpoint/restore. Attached probes are harness-side observers that
// deliberately survive both reboot and restore (the broker re-reads its
// probe across resets, and ExecProg drains it per execution), so the hub
// carries no device state: its generation never advances and Device.Restore
// always skips it. Each twin's broker installs its own probes.

// Checkpoint implements snap.Subsystem.
func (h *Hub) Checkpoint() any { return nil }

// Restore implements snap.Subsystem.
func (h *Hub) Restore(any) {}

// Gen implements snap.Subsystem.
func (h *Hub) Gen() uint64 { return 0 }
