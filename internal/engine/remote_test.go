package engine

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"droidfuzz/internal/adb"
	"droidfuzz/internal/crash"
	"droidfuzz/internal/device"
	"droidfuzz/internal/dsl"
	"droidfuzz/internal/feedback"
	"droidfuzz/internal/probe"
	"droidfuzz/internal/relation"
)

// Broker-link request kinds, as the frame layout in internal/adb pins them
// (its golden frames): the tap below reads them off the host's writes.
const (
	kindReset = 0x03
	kindExec  = 0x08
	kindBatch = 0x09
)

// frameTap is the host end of one broker link. Every frame goes out in one
// Write, so the tap counts request frames by kind as they are written. With
// drops armed, it also loses the replies to some requests that carry
// resets: the broker has run the request, and the host sees the stream cut.
type frameTap struct {
	io.ReadWriteCloser
	l *tapLog
	// cut marks that the reply to the last request is to be lost.
	cut bool
}

// tapLog is shared by every connection a client dials.
type tapLog struct {
	mu     sync.Mutex
	frames map[byte]int
	resets int // resets carried by exec and batch frames
	// dropEvery, when positive, loses the reply to every dropEvery-th
	// request that carries resets; dropped counts the lost replies.
	dropEvery, carrying, dropped int
}

func (t *frameTap) Write(b []byte) (int, error) {
	if len(b) > 4 {
		kind, body := b[4], b[5:]
		l := t.l
		l.mu.Lock()
		l.frames[kind]++
		if kind == kindExec || kind == kindBatch {
			_, n := binary.Uvarint(body) // the tag
			resets, _ := binary.Uvarint(body[n:])
			l.resets += int(resets)
			if resets > 0 {
				l.carrying++
				t.cut = l.dropEvery > 0 && l.carrying%l.dropEvery == 0
			}
		}
		l.mu.Unlock()
	}
	return t.ReadWriteCloser.Write(b)
}

// Read loses a cut reply only once it has arrived whole: the broker has
// finished the request, so the resubmission cannot overlap it on the
// device.
func (t *frameTap) Read(b []byte) (int, error) {
	if t.cut {
		var hdr [4]byte
		if _, err := io.ReadFull(t.ReadWriteCloser, hdr[:]); err == nil {
			io.CopyN(io.Discard, t.ReadWriteCloser, int64(binary.BigEndian.Uint32(hdr[:])))
		}
		t.l.mu.Lock()
		t.l.dropped++
		t.l.mu.Unlock()
		t.ReadWriteCloser.Close()
		return 0, io.ErrClosedPipe
	}
	return t.ReadWriteCloser.Read(b)
}

func (l *tapLog) count(kind byte) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.frames[kind]
}

// tappedRemote boots a model behind a broker served over net.Pipe and
// returns a resilient client whose every connection runs through one tap.
func tappedRemote(t *testing.T, model string, dropEvery int) (*adb.Resilient, *tapLog) {
	t.Helper()
	m, err := device.ModelByID(model)
	if err != nil {
		t.Fatal(err)
	}
	dev := device.New(m)
	target, _, err := probe.Target(dev, probe.Options{})
	if err != nil {
		t.Fatal(err)
	}
	srv := &adb.Server{X: adb.NewBroker(dev, target)}
	l := &tapLog{frames: make(map[byte]int), dropEvery: dropEvery}
	x, err := adb.NewResilient(func() (io.ReadWriteCloser, error) {
		host, broker := net.Pipe()
		go func() {
			defer broker.Close()
			_ = srv.Serve(broker)
		}()
		return &frameTap{ReadWriteCloser: host, l: l}, nil
	}, adb.ResilientOptions{CallTimeout: 10 * time.Second, MaxAttempts: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { x.Close() })
	return x, l
}

// TestMinimizeCarriesResetsInExecFrames: minimizing a k-call program runs
// every check on a freshly reset device, and each of those resets rides
// the check's own exec frame. Over a real broker link that is k+1 exec
// frames (the self-containment check, then one per removal candidate) and
// not a single reset frame; the closing reset stays pending until the next
// device operation.
func TestMinimizeCarriesResetsInExecFrames(t *testing.T) {
	x, l := tappedRemote(t, "A1", 0)
	e := New(x, relation.New(), crash.NewDedup(), Config{Seed: 1})
	st0 := e.Stats() // the device's reset counters from the handshake
	// Each open reaches its own driver, so every call holds signal the
	// others lack and no removal keeps the wanted signal.
	const k = 5
	p, err := dsl.ParseProg(e.target, `open$tcpc(path="/dev/tcpc0")
open$hci(path="/dev/hci0")
open$video(path="/dev/video0")
open$gpu(path="/dev/gpu0")
open$touch(path="/dev/touch0")
`)
	if err != nil {
		t.Fatal(err)
	}
	e.reset()
	res := e.execOne(p)
	if res == nil {
		t.Fatal("reference execution failed")
	}
	want := feedback.FromExec(res, e.spec)
	res.Release()
	before := l.count(kindExec)
	beforeResets := l.resets

	got := e.minimize(p, want)
	if got.Len() != k {
		t.Fatalf("minimized to %d calls, want all %d kept", got.Len(), k)
	}
	if n := l.count(kindExec) - before; n != k+1 {
		t.Fatalf("minimization crossed %d exec frames, want %d", n, k+1)
	}
	if n := l.count(kindReset); n != 0 {
		t.Fatalf("minimization sent %d reset frames, want 0", n)
	}
	if n := l.count(kindBatch); n != 0 {
		t.Fatalf("minimization sent %d batch frames, want 0", n)
	}
	if n := l.resets - beforeResets; n != k+1 {
		t.Fatalf("exec frames carried %d resets, want %d", n, k+1)
	}
	if e.resets != 1 {
		t.Fatalf("%d resets pending after minimization, want the closing one", e.resets)
	}
	e.flushResets()
	if n := l.count(kindReset); n != 1 {
		t.Fatalf("flush sent %d reset frames, want 1", n)
	}
	// The reference run's reset, minimization's k+1 and its closing one.
	st := e.Stats()
	if got := st.Restores + st.Reboots - st0.Restores - st0.Reboots; got != k+3 || st.ExecErrors != 0 {
		t.Fatalf("booked %d resets and %d exec errors, want %d and 0", got, st.ExecErrors, k+3)
	}
}

// TestDroppedResetFrameResubmitsWhole: when the link drops after the broker
// ran a frame that carries resets, the client resubmits the whole frame,
// resets included, on a fresh stream. A reset is idempotent, so the
// campaign equals the fault-free run: same stats, reset counters included,
// and the same corpus.
func TestDroppedResetFrameResubmitsWhole(t *testing.T) {
	run := func(dropEvery int) (*Engine, *tapLog) {
		x, l := tappedRemote(t, "A1", dropEvery)
		e := New(x, relation.New(), crash.NewDedup(), Config{Seed: 5, Reset: ResetExec})
		e.Run(300)
		return e, l
	}
	clean, cl := run(0)
	faulty, fl := run(37)
	if cl.dropped != 0 || fl.dropped < 5 {
		t.Fatalf("dropped %d replies fault-free and %d with faults; want 0 and at least 5", cl.dropped, fl.dropped)
	}
	if n := fl.count(kindReset); n != cl.count(kindReset) {
		t.Fatalf("faulty run sent %d reset frames, fault-free %d", n, cl.count(kindReset))
	}
	sa, sb := clean.Stats(), faulty.Stats()
	if sa != sb {
		t.Fatalf("stats diverged under dropped frames:\n  clean  %+v\n  faulty %+v", sa, sb)
	}
	if sa.Restores+sa.Reboots < 300 || sa.ExecErrors != 0 {
		t.Fatalf("fault-free run: %+v, want a reset before every exec and no errors", sa)
	}
	ha, hb := hashCorpus(clean), hashCorpus(faulty)
	if ha != hb {
		t.Fatalf("corpora diverged under dropped frames: %s vs %s", ha, hb)
	}
	// Every dropped frame crossed twice.
	if got, want := fl.count(kindExec)+fl.count(kindBatch), cl.count(kindExec)+cl.count(kindBatch)+fl.dropped; got != want {
		t.Fatalf("faulty run sent %d exec frames, want %d (fault-free plus one per drop)", got, want)
	}
}

// hashCorpus fingerprints the corpus: every entry's program and signal.
func hashCorpus(e *Engine) string {
	h := sha256.New()
	for _, en := range e.Corpus().Entries() {
		fmt.Fprintf(h, "%d\n%s\n", en.Signal, en.Prog.String())
	}
	return hex.EncodeToString(h.Sum(nil))
}

// raceBuild is set in -race builds (race_test.go).
var raceBuild bool

// TestInProcessCallAddsNoAllocation: routing a single execution through
// the engine's executor call, a carried reset included, allocates no more
// than calling the in-process broker's Reset and ExecProg directly.
func TestInProcessCallAddsNoAllocation(t *testing.T) {
	if raceBuild {
		t.Skip("allocation counts of pooled paths are noise under -race")
	}
	m, err := device.ModelByID("A1")
	if err != nil {
		t.Fatal(err)
	}
	dev := device.New(m)
	target, pr, err := probe.Target(dev, probe.Options{})
	if err != nil {
		t.Fatal(err)
	}
	b := adb.NewBroker(dev, target)
	e := New(b, relation.New(), crash.NewDedup(), Config{Seed: 1})
	p := pr.Seeds[0]
	direct := testing.AllocsPerRun(200, func() {
		b.Reset()
		res, _ := b.ExecProg(p)
		res.Release()
	})
	viaCall := testing.AllocsPerRun(200, func() {
		e.reset()
		e.execOne(p).Release()
	})
	if viaCall > direct {
		t.Fatalf("engine call: %.1f allocations per exec, direct broker calls %.1f", viaCall, direct)
	}
}
