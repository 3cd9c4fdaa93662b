package adb

import (
	"errors"
	"io"
	"net"
	"testing"
	"time"

	"droidfuzz/internal/dsl"
)

// TestServeSurvivesGarbageFrames: the device-side loop must reject hostile
// or truncated byte streams with an error — never a panic, never a hang.
func TestServeSurvivesGarbageFrames(t *testing.T) {
	cases := []struct {
		name    string
		payload []byte
		wantErr bool
	}{
		{"empty stream", nil, false}, // immediate EOF is a clean shutdown
		{"garbage bytes", []byte{0xde, 0xad, 0xbe, 0xef, 0xff, 0x00, 0x13, 0x37}, true},
		{"huge length prefix", []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff}, true},
		{"ascii junk", []byte("GET / HTTP/1.1\r\n\r\n"), true},
		{"truncated frame", truncatedFrame(t), true},
		// gob skips a zero-length message, then hits clean EOF.
		{"single zero byte", []byte{0x00}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b, _ := newBrokerRig(t, "B")
			host, devSide := net.Pipe()
			done := make(chan error, 1)
			go func() { done <- (&Server{X: b}).Serve(devSide) }()
			if len(tc.payload) > 0 {
				host.SetWriteDeadline(time.Now().Add(time.Second))
				host.Write(tc.payload)
			}
			host.Close()
			select {
			case err := <-done:
				if tc.wantErr && err == nil {
					t.Fatal("corrupt stream reported as clean shutdown")
				}
				if tc.wantErr && !errors.Is(err, ErrTransport) {
					t.Fatalf("error not ErrTransport-typed: %v", err)
				}
				if !tc.wantErr && err != nil {
					t.Fatalf("clean shutdown errored: %v", err)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("Serve hung on corrupt stream")
			}
		})
	}
}

// truncatedFrame returns the first half of a valid request frame: a
// syntactically plausible prefix that ends mid-message.
func truncatedFrame(t *testing.T) []byte {
	t.Helper()
	srv, cli := net.Pipe()
	buf := make(chan []byte, 1)
	go func() {
		data, _ := io.ReadAll(srv)
		buf <- data
	}()
	c := newConn(cli, ResilientOptions{CallTimeout: 100 * time.Millisecond})
	c.roundTrip(rpcRequest{Ping: true}) // fails on the recv side; the frame still went out
	cli.Close()
	frame := <-buf
	if len(frame) < 4 {
		t.Fatalf("captured frame too short: %d bytes", len(frame))
	}
	return frame[:len(frame)/2]
}

// TestConnTypedErrorAfterStreamBreak: the first stream failure poisons the
// conn and every subsequent call fails fast with an ErrTransport-wrapped
// error instead of deadlocking on a desynchronized gob stream.
func TestConnTypedErrorAfterStreamBreak(t *testing.T) {
	b, _ := newBrokerRig(t, "B")
	host, devSide := net.Pipe()
	go (&Server{X: b}).Serve(devSide)

	c := newConn(host, ResilientOptions{})
	if _, err := c.roundTrip(rpcRequest{Ping: true}); err != nil {
		t.Fatal(err)
	}
	devSide.Close() // broker side drops mid-session
	host.Close()
	_, err := c.roundTrip(rpcRequest{Ping: true})
	if err == nil {
		t.Fatal("ping succeeded over a dead stream")
	}
	if !errors.Is(err, ErrTransport) {
		t.Fatalf("stream break not ErrTransport-typed: %v", err)
	}
	// Later calls fail fast with the same classification, no I/O.
	start := time.Now()
	for i := 0; i < 3; i++ {
		if _, err := c.roundTrip(rpcRequest{Reboot: true}); !errors.Is(err, ErrTransport) {
			t.Fatalf("poisoned conn returned %v", err)
		}
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("fail-fast path took %v", elapsed)
	}
}

// TestRemoteErrorLeavesStreamHealthy: an application-level rejection (bad
// program) is a *RemoteError, not a transport failure, and the connection
// keeps working.
func TestRemoteErrorLeavesStreamHealthy(t *testing.T) {
	b, _ := newBrokerRig(t, "B")
	r := dialPipe(t, &Server{X: b}, ResilientOptions{})

	_, err := r.Exec(ExecRequest{ProgText: "garbage(\n"})
	var rerr *RemoteError
	if !errors.As(err, &rerr) {
		t.Fatalf("bad program error = %v, want *RemoteError", err)
	}
	if errors.Is(err, ErrTransport) {
		t.Fatal("application error misclassified as transport failure")
	}
	if err := r.Ping(); err != nil {
		t.Fatalf("stream unusable after application error: %v", err)
	}
}

// TestTransportRebootAndInfo: the widened protocol carries reboot and the
// identity handshake across the wire.
func TestTransportRebootAndInfo(t *testing.T) {
	b, target := newBrokerRig(t, "A1")
	r := dialPipe(t, &Server{X: b}, ResilientOptions{})

	info, err := r.Info()
	if err != nil {
		t.Fatal(err)
	}
	if info.ModelID != "A1" {
		t.Fatalf("model = %q", info.ModelID)
	}
	if info.TargetHash != target.Hash() {
		t.Fatalf("target hash mismatch: %#x vs %#x", info.TargetHash, target.Hash())
	}
	if info.Reboots != 0 {
		t.Fatalf("fresh device reboots = %d", info.Reboots)
	}
	if err := r.Reboot(); err != nil {
		t.Fatal(err)
	}
	if info, _ = r.Info(); info.Reboots != 1 {
		t.Fatalf("reboot not reflected: %+v", info)
	}
}

// TestHandshakeBindsVerifiedTarget: the attach handshake rebuilds the
// device's target host-side, verifies the fingerprint, and makes the client
// a full Executor (ExecProg over the wire against the bound target).
func TestHandshakeBindsVerifiedTarget(t *testing.T) {
	b, target := newBrokerRig(t, "B")
	srv := &Server{X: b, Seeds: []string{"r0 = open$hci(path=\"/dev/hci0\")\n"}}
	r := dialPipe(t, srv, ResilientOptions{})

	if got := r.Target(); got == nil || got.Hash() != target.Hash() {
		t.Fatalf("rebuilt target hash mismatch")
	}
	seeds := r.Seeds()
	if len(seeds) != 1 {
		t.Fatalf("seeds = %v", seeds)
	}
	if got, want := len(r.Target().Calls()), len(target.Calls()); got != want {
		t.Fatalf("calls = %d, want %d", got, want)
	}
	// The rebuilt target parses and executes programs end to end.
	p, err := dsl.ParseProg(r.Target(), seeds[0])
	if err != nil {
		t.Fatal(err)
	}
	res, err := r.ExecProg(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Calls) != 1 || res.Calls[0].Errno != "OK" {
		t.Fatalf("remote ExecProg = %+v", res.Calls)
	}
}
