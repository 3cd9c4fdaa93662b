package adb

import (
	"bytes"
	"strings"
	"testing"

	"droidfuzz/internal/dsl"
)

// dialCheckpointRig serves x over an in-memory pipe and returns the
// attached host client.
func dialCheckpointRig(t *testing.T, x Executor) *Resilient {
	t.Helper()
	return dialPipe(t, &Server{X: x}, ResilientOptions{})
}

// TestTransportCheckpointRoundTrip drives the Export/ImportCheckpoint
// RPCs end to end: a checkpoint exported over the wire, imported back over
// the wire, and re-exported must be byte-identical, for both pristine and
// dirtied device state.
func TestTransportCheckpointRoundTrip(t *testing.T) {
	b, _ := newBrokerRig(t, "A1")
	conn := dialCheckpointRig(t, b)

	pristine, err := conn.ExportCheckpoint()
	if err != nil {
		t.Fatalf("export pristine: %v", err)
	}

	// Dirty the device through the same wire, then capture that state too.
	prog := `r0 = open$tcpc(path="/dev/tcpc0")
ioctl$TCPC_SET_MODE(fd=r0, req=0xa102, mode=0x3)
`
	if _, err := conn.Exec(ExecRequest{ProgText: prog}); err != nil {
		t.Fatalf("dirtying exec: %v", err)
	}
	dirty, err := conn.ExportCheckpoint()
	if err != nil {
		t.Fatalf("export dirty: %v", err)
	}
	if bytes.Equal(pristine, dirty) {
		t.Fatal("dirtying the device did not change its checkpoint")
	}

	// Rewind to pristine over the wire and cross-check by re-export.
	if err := conn.ImportCheckpoint(pristine); err != nil {
		t.Fatalf("import pristine: %v", err)
	}
	back, err := conn.ExportCheckpoint()
	if err != nil {
		t.Fatalf("re-export: %v", err)
	}
	if !bytes.Equal(pristine, back) {
		t.Fatalf("remote round trip distorted the checkpoint: %d vs %d bytes",
			len(pristine), len(back))
	}
}

// TestTransportImportRejectsGarbageBlob: a corrupt blob must come back as
// a typed remote error, not a hang or a silent ack.
func TestTransportImportRejectsGarbageBlob(t *testing.T) {
	b, _ := newBrokerRig(t, "A1")
	conn := dialCheckpointRig(t, b)
	if err := conn.ImportCheckpoint([]byte("not a checkpoint")); err == nil {
		t.Fatal("garbage blob imported without error")
	}
}

// flatExecutor wraps a Broker but deliberately does not implement Cloner,
// modeling a device-side executor without checkpoint support.
type flatExecutor struct{ b *Broker }

func (f *flatExecutor) Exec(req ExecRequest) (*ExecResult, error) { return f.b.Exec(req) }
func (f *flatExecutor) ExecProg(p *dsl.Prog) (*ExecResult, error) { return f.b.ExecProg(p) }
func (f *flatExecutor) Reboot() error                             { return f.b.Reboot() }
func (f *flatExecutor) Ping() error                               { return f.b.Ping() }
func (f *flatExecutor) Reset() (bool, error)                      { return f.b.Reset() }
func (f *flatExecutor) Info() (Info, error)                       { return f.b.Info() }
func (f *flatExecutor) Target() *dsl.Target                       { return f.b.Target() }

// TestTransportCheckpointUnsupportedExecutor: a server fronting a
// non-Cloner executor must reject both RPCs with a descriptive error so
// host engines fall back to flat scheduling.
func TestTransportCheckpointUnsupportedExecutor(t *testing.T) {
	b, _ := newBrokerRig(t, "A1")
	conn := dialCheckpointRig(t, &flatExecutor{b: b})
	if _, err := conn.ExportCheckpoint(); err == nil ||
		!strings.Contains(err.Error(), "does not support checkpoints") {
		t.Fatalf("export on non-Cloner executor: %v", err)
	}
	if err := conn.ImportCheckpoint([]byte{1}); err == nil ||
		!strings.Contains(err.Error(), "does not support checkpoints") {
		t.Fatalf("import on non-Cloner executor: %v", err)
	}
}
