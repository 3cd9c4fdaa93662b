package coord

import (
	"errors"
	"io"
	"net"
	"testing"
	"time"

	"droidfuzz/internal/adb"
)

// TestClientReconnectsThroughTransportFailures: the first dials fail, the
// client backs off (full jitter, observed through the sleep seam) and
// eventually completes the call on a healthy stream.
func TestClientReconnectsThroughTransportFailures(t *testing.T) {
	coord, _ := newTestCoordinator(t, Campaign{Models: []string{"A1"}, Shards: 1, Iters: 1}, Options{})
	srv := &Server{C: coord}
	fails := 2
	cl := &Client{addr: "flaky", opts: ClientOptions{
		MaxAttempts: 5, BackoffBase: 10 * time.Millisecond, BackoffMax: 100 * time.Millisecond,
		Dialer: func() (io.ReadWriteCloser, error) {
			if fails > 0 {
				fails--
				return nil, errors.New("link down")
			}
			hostEnd, coordEnd := net.Pipe()
			go srv.Serve(coordEnd)
			return hostEnd, nil
		},
	}}
	cl.opts.defaults()
	var slept []time.Duration
	cl.sleep = func(d time.Duration) { slept = append(slept, d) }

	reg, err := cl.Register("flaky-host")
	if err != nil {
		t.Fatalf("register through flaky link: %v", err)
	}
	if reg.HostID == "" {
		t.Fatal("empty host ID")
	}
	if len(slept) != 2 {
		t.Fatalf("client slept %d times, want 2 (one per failed dial)", len(slept))
	}
	for i, d := range slept {
		if d < 0 || d > 100*time.Millisecond {
			t.Fatalf("sleep %d = %v outside the jitter envelope", i, d)
		}
	}
}

// TestClientSurfacesRemoteErrorWithoutRetry: a coordinator-side rejection
// is not a transport failure — the stream stays up and the client must not
// burn retry attempts on it.
func TestClientSurfacesRemoteErrorWithoutRetry(t *testing.T) {
	coord, _ := newTestCoordinator(t, Campaign{Models: []string{"A1"}, Shards: 1, Iters: 1}, Options{})
	srv := &Server{C: coord}
	dials := 0
	cl, err := DialClient("pipe", ClientOptions{Dialer: func() (io.ReadWriteCloser, error) {
		dials++
		hostEnd, coordEnd := net.Pipe()
		go srv.Serve(coordEnd)
		return hostEnd, nil
	}})
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	_, err = cl.Heartbeat("h999", 0)
	var re *adb.RemoteError
	if !errors.As(err, &re) {
		t.Fatalf("want *adb.RemoteError for unknown host, got %v", err)
	}
	if errors.Is(err, adb.ErrTransport) {
		t.Fatal("coordinator rejection misclassified as transport failure")
	}
	if dials != 1 {
		t.Fatalf("client redialed %d times on an app-level error", dials)
	}
	// The stream is still healthy: a valid call on the same client works.
	reg, err := cl.Register("still-alive")
	if err != nil || reg.HostID == "" {
		t.Fatalf("call after RemoteError: %+v, %v", reg, err)
	}
	if dials != 1 {
		t.Fatalf("healthy stream was dropped (dials=%d)", dials)
	}
}

// plainStream hides every method of its stream but Read, Write and Close,
// so the client cannot reach a deadline setter through it.
type plainStream struct{ io.ReadWriteCloser }

// TestClientCallTimeoutOnAnyStream: the call timeout bounds a call on any
// io.ReadWriteCloser, not only on a net.Conn. Against a coordinator that
// reads every request and never answers, Register fails with ErrTransport
// after one timeout per attempt.
func TestClientCallTimeoutOnAnyStream(t *testing.T) {
	const timeout = 200 * time.Millisecond
	opts := ClientOptions{
		CallTimeout: timeout,
		MaxAttempts: 1,
		Dialer: func() (io.ReadWriteCloser, error) {
			hostEnd, coordEnd := net.Pipe()
			go io.Copy(io.Discard, coordEnd)
			return plainStream{hostEnd}, nil
		},
	}
	cl, err := DialClient("silent", opts)
	if err != nil {
		t.Fatal(err)
	}
	cl.sleep = func(time.Duration) {}

	start := time.Now()
	done := make(chan error, 1)
	go func() {
		_, err := cl.Register("silent-host")
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, adb.ErrTransport) {
			t.Fatalf("register against a silent coordinator: %v, want ErrTransport", err)
		}
		cl.Close()
	case <-time.After(time.Duration(opts.MaxAttempts+1)*timeout + time.Second):
		t.Fatalf("register still blocked after %v", time.Since(start))
	}
}

// TestServerRejectsEmptyAndPanicFrames: protocol garbage gets an error
// reply, not a dead coordinator.
func TestServerRejectsGarbage(t *testing.T) {
	coord, _ := newTestCoordinator(t, Campaign{Models: []string{"A1"}, Shards: 1, Iters: 1}, Options{})
	srv := &Server{C: coord}
	rep := srv.handle(adb.CoordRequest{})
	if rep.Err == "" {
		t.Fatal("empty request accepted")
	}
	// A second request on the same coordinator still works.
	rep = srv.handle(adb.CoordRequest{Register: &adb.CoordRegister{Name: "ok"}})
	if rep.Err != "" || rep.Registered == nil {
		t.Fatalf("register after garbage: %+v", rep)
	}
}
