package adb

import (
	"errors"
	"io"
	"net"
	"strings"
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
		{"single zero byte", []byte{0x00}, true}, // a header cut short
		{"zero-length frame", []byte{0, 0, 0, 0}, true},
		{"unknown kind", []byte{0, 0, 0, 2, 0x7f, 1}, true},
		{"reply sent to the broker", []byte{0, 0, 0, 2, repPong, 1}, true},
		{"coordinator frame", []byte{0, 0, 0, 3, coordLease, 1, 0}, true},
		{"resets over the cap", []byte{0, 0, 0, 7, reqExec, 1, 0x81, 0x80, 0x04, 1, 0}, true},
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

// truncatedFrame returns the first half of a valid import request frame:
// a syntactically plausible prefix that ends mid-message.
func truncatedFrame(t *testing.T) []byte {
	t.Helper()
	srv, cli := net.Pipe()
	buf := make(chan []byte, 1)
	go func() {
		data, _ := io.ReadAll(srv)
		buf <- data
	}()
	s := NewStream(cli, 100*time.Millisecond)
	s.roundTrip(rpcRequest{Kind: reqImport, Blob: make([]byte, 64)}) // fails on the recv side; the frame still went out
	cli.Close()
	frame := <-buf
	if len(frame) < 64 {
		t.Fatalf("captured frame too short: %d bytes", len(frame))
	}
	return frame[:len(frame)/2]
}

// TestConnTypedErrorAfterStreamBreak: the first stream failure poisons the
// stream and every subsequent call fails fast with an ErrTransport-wrapped
// error instead of deadlocking on a desynchronized frame stream.
func TestConnTypedErrorAfterStreamBreak(t *testing.T) {
	b, _ := newBrokerRig(t, "B")
	host, devSide := net.Pipe()
	go (&Server{X: b}).Serve(devSide)

	c := NewStream(host, 0)
	if _, err := c.roundTrip(rpcRequest{Kind: reqPing}); err != nil {
		t.Fatal(err)
	}
	devSide.Close() // broker side drops mid-session
	host.Close()
	_, err := c.roundTrip(rpcRequest{Kind: reqPing})
	if err == nil {
		t.Fatal("ping succeeded over a dead stream")
	}
	if !errors.Is(err, ErrTransport) {
		t.Fatalf("stream break not ErrTransport-typed: %v", err)
	}
	// Later calls fail fast with the same classification, no I/O.
	start := time.Now()
	for i := 0; i < 3; i++ {
		if _, err := c.roundTrip(rpcRequest{Kind: reqReboot}); !errors.Is(err, ErrTransport) {
			t.Fatalf("poisoned stream returned %v", err)
		}
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("fail-fast path took %v", elapsed)
	}
}

// TestStreamLockStepAgainstWedgedPeer: against a peer that reads every
// request and never answers, the call on the wire fails with ErrTransport
// once the call timeout closes the stream, and a second call queued on the
// call lock meanwhile fails fast with the same error instead of waiting
// out a timeout of its own.
func TestStreamLockStepAgainstWedgedPeer(t *testing.T) {
	host, dev := net.Pipe()
	seen := make(chan struct{}, 1)
	go wedge(nil, dev, 0, seen)
	const timeout = 300 * time.Millisecond
	s := NewStream(host, timeout)
	defer s.Close()

	start := time.Now()
	errs := make(chan error, 2)
	call := func() {
		_, err := s.roundTrip(rpcRequest{Kind: reqPing})
		errs <- err
	}
	go call()
	<-seen // the first call is on the wire, holding the call lock
	go call()
	var first error
	for i := 0; i < 2; i++ {
		select {
		case err := <-errs:
			if !errors.Is(err, ErrTransport) {
				t.Fatalf("call %d against a wedged peer: %v, want ErrTransport", i, err)
			}
			if i == 0 {
				first = err
			} else if err.Error() != first.Error() {
				t.Fatalf("queued call failed with %q, want the sticky %q", err, first)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("call still blocked after the call timeout")
		}
	}
	if !strings.Contains(first.Error(), "timed out") {
		t.Fatalf("first failure = %v, want the call timeout", first)
	}
	elapsed := time.Since(start)
	if elapsed < timeout {
		t.Fatalf("calls failed after %v, before the %v timeout", elapsed, timeout)
	}
	if elapsed > 2*timeout {
		t.Fatalf("calls took %v: the queued call waited out a second timeout", elapsed)
	}
}

// TestStreamRejectsMismatchedTag: a reply carrying a tag other than its
// request's cannot be attributed, so it poisons the stream.
func TestStreamRejectsMismatchedTag(t *testing.T) {
	b, _ := newBrokerRig(t, "B")
	host, dev := net.Pipe()
	go serveHooked(&Server{X: b}, dev, func(_ *rpcRequest, rep *rpcReply) bool {
		rep.Tag++
		return true
	})
	s := NewStream(host, 5*time.Second)
	defer s.Close()
	_, err := s.roundTrip(rpcRequest{Kind: reqPing})
	if !errors.Is(err, ErrTransport) || !strings.Contains(err.Error(), "tag") {
		t.Fatalf("mismatched tag: err = %v, want an ErrTransport tag error", err)
	}
	if _, err2 := s.roundTrip(rpcRequest{Kind: reqPing}); err2 == nil || err2.Error() != err.Error() {
		t.Fatalf("stream not poisoned by a mismatched tag: %v", err2)
	}
}

// TestRemoteErrorLeavesStreamHealthy: an application-level rejection (a
// broker-side execution failure) is a *RemoteError, not a transport
// failure, and the connection keeps working.
func TestRemoteErrorLeavesStreamHealthy(t *testing.T) {
	b, _ := newBrokerRig(t, "B")
	r := dialPipe(t, &Server{X: b}, ResilientOptions{})

	b.FailNext(1)
	_, err := r.Exec(ExecRequest{ProgText: "r0 = open$hci(path=\"/dev/hci0\")\n"})
	var rerr *RemoteError
	if !errors.As(err, &rerr) {
		t.Fatalf("rejected execution error = %v, want *RemoteError", err)
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
