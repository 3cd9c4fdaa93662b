package adb

import (
	"errors"
	"io"
	"math/rand"
	"net"
	"sync/atomic"
	"testing"
	"time"
)

// startBrokerTCP serves the broker on a loopback listener and returns the
// address plus a restart/stop harness.
type brokerHarness struct {
	t    *testing.T
	srv  *Server
	addr string
	ln   net.Listener
}

func startBrokerTCP(t *testing.T, modelID string) *brokerHarness {
	t.Helper()
	b, _ := newBrokerRig(t, modelID)
	h := &brokerHarness{t: t, srv: &Server{X: b}}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	h.ln = ln
	h.addr = ln.Addr().String()
	go h.srv.ServeTCP(ln)
	t.Cleanup(func() { ln.Close() })
	return h
}

// stop closes the listener, severing current and future connections.
func (h *brokerHarness) stop() { h.ln.Close() }

// restart re-listens on the same address with the same broker.
func (h *brokerHarness) restart() {
	h.t.Helper()
	var err error
	for i := 0; i < 50; i++ { // the old socket can linger briefly
		h.ln, err = net.Listen("tcp", h.addr)
		if err == nil {
			go h.srv.ServeTCP(h.ln)
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	h.t.Fatalf("restart on %s: %v", h.addr, err)
}

func fastOpts() ResilientOptions {
	return ResilientOptions{
		DialTimeout: time.Second,
		CallTimeout: 2 * time.Second,
		MaxAttempts: 2,
		BackoffBase: 5 * time.Millisecond,
		BackoffMax:  50 * time.Millisecond,
	}
}

// TestResilientReconnectsAcrossBrokerRestart: a dropped connection is
// redialed, the handshake re-verified, and the in-flight operation retried
// — the fleet wiring survives a broker bounce.
func TestResilientReconnectsAcrossBrokerRestart(t *testing.T) {
	h := startBrokerTCP(t, "B")
	r, err := DialResilient(h.addr, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	if r.Target() == nil {
		t.Fatal("attach did not bind a target")
	}
	if _, err := r.Exec(ExecRequest{ProgText: "r0 = open$hci(path=\"/dev/hci0\")\n"}); err != nil {
		t.Fatal(err)
	}

	h.stop()
	r.Close() // sever the established stream too (the listener close alone
	// does not tear down accepted conns)
	h.restart()

	res, err := r.Exec(ExecRequest{ProgText: "r0 = open$hci(path=\"/dev/hci0\")\n"})
	if err != nil {
		t.Fatalf("exec after restart: %v", err)
	}
	if res.Calls[0].Errno != "OK" {
		t.Fatalf("exec after restart = %+v", res.Calls[0])
	}
	if err := r.Ping(); err != nil {
		t.Fatalf("ping after restart: %v", err)
	}
}

// TestResilientDegradesFastWhenBrokerDies: once the broker is gone and the
// reconnect budget is exhausted, every operation fails quickly with a
// typed transport error — a dead device costs its engine ExecErrors, not
// wall-clock stalls.
func TestResilientDegradesFastWhenBrokerDies(t *testing.T) {
	h := startBrokerTCP(t, "B")
	r, err := DialResilient(h.addr, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	h.stop()
	r.Close()

	// First op pays for the reconnect attempts; the cooldown then makes
	// later ops near-free.
	if err := r.Ping(); err == nil {
		t.Fatal("ping succeeded against a dead broker")
	}
	start := time.Now()
	for i := 0; i < 50; i++ {
		err := r.Ping()
		if err == nil {
			t.Fatal("ping succeeded against a dead broker")
		}
		if !errors.Is(err, ErrTransport) {
			t.Fatalf("dead-broker error not ErrTransport-typed: %v", err)
		}
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("50 dead-broker pings took %v; cooldown not engaging", elapsed)
	}
}

// TestResilientHandshakeDeliversSeeds: seeds ride the attach handshake.
func TestResilientHandshakeDeliversSeeds(t *testing.T) {
	b, _ := newBrokerRig(t, "B")
	srv := &Server{X: b, Seeds: []string{"r0 = open$hci(path=\"/dev/hci0\")\n"}}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go srv.ServeTCP(ln)

	r, err := DialResilient(ln.Addr().String(), fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	if got := r.Seeds(); len(got) != 1 {
		t.Fatalf("seeds = %v", got)
	}
	info, err := r.Info()
	if err != nil {
		t.Fatal(err)
	}
	if info.ModelID != "B" {
		t.Fatalf("model = %q", info.ModelID)
	}
}

// TestResilientRejectsChangedBroker: a reconnect that lands on a broker
// with a different target surface is fatal, not silently accepted — the
// engine's generated programs would be garbage against it.
func TestResilientRejectsChangedBroker(t *testing.T) {
	h := startBrokerTCP(t, "B")
	r, err := DialResilient(h.addr, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	h.stop()
	r.Close()
	// A different device model takes over the address.
	b2, _ := newBrokerRig(t, "A1")
	h.srv = &Server{X: b2}
	h.restart()

	// Early pings may still hit reconnect cooldowns (ErrTransport); the
	// reattach must eventually land on the impostor and reject it for
	// good with a non-transport, fatal error.
	deadline := time.Now().Add(5 * time.Second)
	for {
		err := r.Ping()
		if err == nil {
			t.Fatal("reattach to a different target accepted")
		}
		if !errors.Is(err, ErrTransport) {
			if err2 := r.Ping(); err2 == nil || errors.Is(err2, ErrTransport) {
				t.Fatalf("changed-broker rejection not sticky: %v", err2)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("fatal rejection never surfaced: %v", err)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestResilientCloseUnblocksWedgedCall: while a call is blocked on a
// broker that stopped answering, WireStats returns at once, and Close
// fails the blocked call instead of leaving it to the call timeout.
func TestResilientCloseUnblocksWedgedCall(t *testing.T) {
	b, _ := newBrokerRig(t, "B")
	srv := &Server{X: b}
	var dials atomic.Int64
	seen := make(chan struct{}, 1)
	r, err := NewResilient(func() (io.ReadWriteCloser, error) {
		if dials.Add(1) > 1 {
			return nil, errors.New("broker gone")
		}
		host, dev := net.Pipe()
		go wedge(srv, dev, 1, seen) // answers the handshake, then nothing
		return host, nil
	}, ResilientOptions{
		CallTimeout: 10 * time.Second,
		MaxAttempts: 1,
		BackoffBase: time.Millisecond,
		BackoffMax:  5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	errs := make(chan error, 1)
	go func() { errs <- r.Ping() }()
	<-seen // the ping is on the wire

	start := time.Now()
	r.WireStats()
	if d := time.Since(start); d > 50*time.Millisecond {
		t.Fatalf("WireStats blocked %v behind a wedged call", d)
	}
	r.Close()
	select {
	case err := <-errs:
		if !errors.Is(err, ErrTransport) {
			t.Fatalf("closed call: %v, want ErrTransport", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Close did not unblock the wedged call")
	}
}

// TestResilientRedialDoesNotBlockAccessors: a redial whose broker reads
// the handshake but never answers blocks only the operation that needs
// the stream; WireStats, Target, Seeds and Close return at once.
func TestResilientRedialDoesNotBlockAccessors(t *testing.T) {
	b, _ := newBrokerRig(t, "B")
	srv := &Server{X: b, Seeds: []string{"r0 = open$hci(path=\"/dev/hci0\")\n"}}
	var dials atomic.Int64
	seen := make(chan struct{}, 1)
	r, err := NewResilient(func() (io.ReadWriteCloser, error) {
		host, dev := net.Pipe()
		if dials.Add(1) == 1 {
			go srv.Serve(dev)
		} else {
			go wedge(srv, dev, 0, seen)
		}
		return host, nil
	}, ResilientOptions{CallTimeout: time.Second, MaxAttempts: 1})
	if err != nil {
		t.Fatal(err)
	}
	r.Close() // the next operation redials into the wedged broker
	errs := make(chan error, 1)
	go func() { errs <- r.Ping() }()
	<-seen // the redial's handshake is on the wire

	for _, acc := range []struct {
		name string
		f    func()
	}{
		{"WireStats", func() { r.WireStats() }},
		{"Target", func() { r.Target() }},
		{"Seeds", func() { r.Seeds() }},
		{"Close", func() { r.Close() }},
	} {
		start := time.Now()
		acc.f()
		if d := time.Since(start); d > 50*time.Millisecond {
			t.Errorf("%s blocked %v behind the redial", acc.name, d)
		}
	}
	select {
	case err := <-errs:
		if !errors.Is(err, ErrTransport) {
			t.Fatalf("ping through a wedged redial: %v, want ErrTransport", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("ping still blocked after the call timeout")
	}
}

// newJitterClient builds an unconnected Resilient with a pinned fake clock
// and a seeded jitter source, for driving the backoff bookkeeping directly.
func newJitterClient(seed int64, now func() time.Time) *Resilient {
	opts := ResilientOptions{BackoffBase: 100 * time.Millisecond, BackoffMax: 2 * time.Second}
	opts.defaults()
	r := &Resilient{opts: opts}
	r.now = now
	r.rng = rand.New(rand.NewSource(seed))
	return r
}

// TestResilientBackoffFullJitter pins the full-jitter cooldown against a
// fake clock: every delay stays inside the exponential envelope
// [0, min(base<<streak, max)], the envelope itself is reachable and capped,
// and the schedule is deterministic per seed.
func TestResilientBackoffFullJitter(t *testing.T) {
	epoch := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	clock := func() time.Time { return epoch }

	r := newJitterClient(7, clock)
	for k := 0; k < 12; k++ {
		env := r.opts.BackoffBase << k
		if env > r.opts.BackoffMax || env <= 0 {
			env = r.opts.BackoffMax
		}
		r.mu.Lock()
		r.noteFailureLocked()
		d := r.downUntil.Sub(epoch)
		r.mu.Unlock()
		if d < 0 || d > env {
			t.Fatalf("streak %d: cooldown %v outside [0, %v]", k, d, env)
		}
	}

	// Same seed, same failure history => same schedule (the test seam the
	// golden campaigns rely on).
	a, b := newJitterClient(11, clock), newJitterClient(11, clock)
	for k := 0; k < 8; k++ {
		a.mu.Lock()
		a.noteFailureLocked()
		da := a.downUntil
		a.mu.Unlock()
		b.mu.Lock()
		b.noteFailureLocked()
		db := b.downUntil
		b.mu.Unlock()
		if !da.Equal(db) {
			t.Fatalf("streak %d: same seed diverged: %v vs %v", k, da, db)
		}
	}
}

// TestResilientBackoffDesynchronizesHerd is the thundering-herd property:
// N clients that lose the same coordinator at the same instant, with
// identical failure streaks, must not share a wake-up schedule. With full
// jitter over a 100ms..2s envelope, 16 clients colliding on every one of 6
// rounds is astronomically unlikely; any spread proves desynchronization.
func TestResilientBackoffDesynchronizesHerd(t *testing.T) {
	epoch := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	clock := func() time.Time { return epoch }
	const herd = 16

	clients := make([]*Resilient, herd)
	for i := range clients {
		clients[i] = newJitterClient(int64(1000+i), clock)
	}
	for round := 0; round < 6; round++ {
		wake := make(map[time.Time]int)
		for _, r := range clients {
			r.mu.Lock()
			r.noteFailureLocked()
			wake[r.downUntil]++
			r.mu.Unlock()
		}
		if len(wake) > 1 {
			return // schedules diverged: the herd is broken up
		}
	}
	t.Fatal("16 clients kept identical backoff schedules across 6 rounds")
}

// TestBackoffJitterEnvelope pins the helper itself: nil rng returns the
// deterministic envelope, the cap holds for huge streaks (including the
// shift overflowing), and draws never exceed the envelope.
func TestBackoffJitterEnvelope(t *testing.T) {
	base, max := 50*time.Millisecond, 2*time.Second
	if d := BackoffJitter(nil, base, max, 0); d != base {
		t.Fatalf("nil rng streak 0: got %v, want %v", d, base)
	}
	if d := BackoffJitter(nil, base, max, 20); d != max {
		t.Fatalf("nil rng streak 20: got %v, want capped %v", d, max)
	}
	if d := BackoffJitter(nil, base, max, 62); d != max {
		t.Fatalf("nil rng overflowing shift: got %v, want capped %v", d, max)
	}
	rng := rand.New(rand.NewSource(3))
	for k := 0; k < 40; k++ {
		env := base << (k % 8)
		if env > max {
			env = max
		}
		if d := BackoffJitter(rng, base, max, k%8); d < 0 || d > env {
			t.Fatalf("streak %d: draw %v outside [0, %v]", k%8, d, env)
		}
	}
}
