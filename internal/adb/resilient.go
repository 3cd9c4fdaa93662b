package adb

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"sync"
	"time"

	"droidfuzz/internal/dsl"
)

// ResilientOptions tune the reconnecting remote executor.
type ResilientOptions struct {
	// DialTimeout bounds one TCP connection attempt of DialResilient
	// (default 2s).
	DialTimeout time.Duration
	// CallTimeout bounds one RPC round trip (default 10s).
	CallTimeout time.Duration
	// MaxAttempts is how many reconnect-and-retry cycles one operation
	// performs before giving up (default 2).
	MaxAttempts int
	// BackoffBase is the first reconnect delay; it doubles per consecutive
	// failure up to BackoffMax (defaults 50ms and 2s).
	BackoffBase time.Duration
	BackoffMax  time.Duration
}

func (o *ResilientOptions) defaults() {
	if o.DialTimeout <= 0 {
		o.DialTimeout = 2 * time.Second
	}
	if o.CallTimeout <= 0 {
		o.CallTimeout = 10 * time.Second
	}
	if o.MaxAttempts <= 0 {
		o.MaxAttempts = 2
	}
	if o.BackoffBase <= 0 {
		o.BackoffBase = 50 * time.Millisecond
	}
	if o.BackoffMax <= 0 {
		o.BackoffMax = 2 * time.Second
	}
}

// Resilient is the host-side remote Executor: it drives a device-side
// broker over the ADB-stand-in transport. Transport failures trigger a
// bounded redial-with-backoff and one retry of the failed operation; when
// the broker stays unreachable the client enters a cooldown during which
// every operation fails immediately, so a dead broker degrades its engine
// (surfacing as ExecErrors) at near-zero per-iteration cost instead of
// stalling or killing the fleet. Reconnections re-run the identity
// handshake and refuse a broker whose target fingerprint changed.
//
// Resilient paces retries with the wall clock, so remote campaigns are not
// bit-replayable under injected faults; see DESIGN.md.
type Resilient struct {
	dial func() (io.ReadWriteCloser, error)
	opts ResilientOptions
	// dialing is a one-slot semaphore serializing redials. A redial runs
	// the dial and the handshake holding it, not mu, so the accessors and
	// Close never wait behind a reconnect to a wedged broker.
	dialing chan struct{}

	mu         sync.Mutex
	stream     *Stream
	target     *dsl.Target
	info       Info
	seeds      []string
	fatal      error
	downUntil  time.Time
	failStreak int
	// wire accumulates the uplink accounting of connections already
	// retired; the live connection's share is added on read.
	wire WireStats
	// now and rng are the backoff clock and jitter source; nil means wall
	// clock and a wall-clock-seeded generator. Tests inject deterministic
	// ones to exercise the cooldown envelope without sleeping.
	now func() time.Time
	rng *rand.Rand
}

var (
	_ Executor      = (*Resilient)(nil)
	_ BatchExecutor = (*Resilient)(nil)
	_ Cloner        = (*Resilient)(nil)
)

// NewResilient opens a stream with dial and performs the attach
// handshake, returning a reconnecting Executor bound to the device's
// call-description target. Every reconnect calls dial again for a fresh
// stream; a dial error counts as a transport failure. Reconnects are
// serialized, one dial at a time.
func NewResilient(dial func() (io.ReadWriteCloser, error), opts ResilientOptions) (*Resilient, error) {
	opts.defaults()
	r := &Resilient{dial: dial, opts: opts, dialing: make(chan struct{}, 1)}
	s, err := r.connect()
	if err != nil {
		return nil, err
	}
	rep, target, err := s.handshake()
	if err != nil {
		s.Close()
		return nil, fmt.Errorf("adb: attach: %w", err)
	}
	r.stream = s
	r.target = target
	r.info = rep.Info
	r.seeds = rep.Seeds
	return r, nil
}

// DialResilient is NewResilient over TCP: every (re)connection dials the
// broker daemon at addr, bounded by opts.DialTimeout.
func DialResilient(addr string, opts ResilientOptions) (*Resilient, error) {
	opts.defaults()
	return NewResilient(func() (io.ReadWriteCloser, error) {
		return net.DialTimeout("tcp", addr, opts.DialTimeout)
	}, opts)
}

// connect opens one stream (no handshake).
func (r *Resilient) connect() (*Stream, error) {
	rwc, err := r.dial()
	if err != nil {
		return nil, fmt.Errorf("%w: dial: %v", ErrTransport, err)
	}
	return NewStream(rwc, r.opts.CallTimeout), nil
}

// Seeds returns the probing-pass seed programs (DSL text) delivered by the
// attach handshake.
func (r *Resilient) Seeds() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.seeds
}

// Target implements Executor with the target bound at attach time.
func (r *Resilient) Target() *dsl.Target {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.target
}

// Close drops the current connection; a later operation redials.
func (r *Resilient) Close() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.stream != nil {
		r.wire.Add(r.stream.wireStats())
		r.stream.Close()
		r.stream = nil
	}
	return nil
}

// WireStats returns the uplink accounting accumulated across every
// connection this client has used (batched executions only).
func (r *Resilient) WireStats() WireStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	w := r.wire
	if r.stream != nil {
		w.Add(r.stream.wireStats())
	}
	return w
}

// get returns a live stream, redialing if needed. During cooldown it
// fails immediately so operations against a dead broker stay cheap.
func (r *Resilient) get() (*Stream, error) {
	if s, err := r.live(); s != nil || err != nil {
		return s, err
	}
	r.dialing <- struct{}{}
	defer func() { <-r.dialing }()
	// Another caller may have redialed, or failed to, while this one
	// waited for the slot.
	if s, err := r.live(); s != nil || err != nil {
		return s, err
	}
	s, err := r.connect()
	var rep *DescribeReply
	if err == nil {
		if rep, _, err = s.handshake(); err != nil {
			s.Close()
			err = fmt.Errorf("adb: reattach: %w", err)
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if err != nil {
		r.noteFailureLocked()
		return nil, err
	}
	if rep.Info.TargetHash != r.info.TargetHash {
		s.Close()
		r.fatal = fmt.Errorf("adb: reattach: broker target changed (%#x -> %#x)",
			r.info.TargetHash, rep.Info.TargetHash)
		return nil, r.fatal
	}
	r.stream = s
	r.info = rep.Info
	r.failStreak = 0
	r.downUntil = time.Time{}
	return s, nil
}

// live returns the current stream, or the error that rules out a redial
// now (a fatal rejection or the cooldown); neither means redial.
func (r *Resilient) live() (*Stream, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.fatal != nil {
		return nil, r.fatal
	}
	if r.stream != nil {
		return r.stream, nil
	}
	// Reconnect backoff is wall-clock by nature: it gates transport
	// redials, never a fuzzing decision, and replay runs in-process
	// without a Resilient client at all.
	if now := r.clockLocked()(); now.Before(r.downUntil) {
		return nil, fmt.Errorf("%w: broker down, retry in %v",
			ErrTransport, r.downUntil.Sub(now).Round(time.Millisecond))
	}
	return nil, nil
}

// noteFailureLocked arms the reconnect cooldown: an exponential envelope
// with full jitter. The envelope bounds how hard a dead broker is hammered;
// the jitter spreads N clients that lost the same broker at the same moment
// (a coordinator or broker restart) across the whole window instead of
// letting them thunder back in lockstep on identical schedules.
func (r *Resilient) noteFailureLocked() {
	d := BackoffJitter(r.jitterLocked(), r.opts.BackoffBase, r.opts.BackoffMax, r.failStreak)
	if r.failStreak < 30 {
		r.failStreak++
	}
	r.downUntil = r.clockLocked()().Add(d)
}

// clockLocked returns the backoff clock, defaulting to the wall clock on
// first use (the backoff gates transport redials, never a fuzzing
// decision; see the live() comment).
func (r *Resilient) clockLocked() func() time.Time {
	if r.now == nil {
		r.now = time.Now //droidvet:nondet wall-clock backoff clock
	}
	return r.now
}

// jitterLocked returns the jitter source, seeding one from the wall clock
// on first use so every client draws an independent schedule.
func (r *Resilient) jitterLocked() *rand.Rand {
	if r.rng == nil {
		r.rng = rand.New(rand.NewSource(time.Now().UnixNano())) //droidvet:nondet per-client jitter seed
	}
	return r.rng
}

// BackoffJitter computes one full-jitter reconnect delay: uniform in
// [0, min(base<<streak, max)]. Full jitter (over the equal-jitter
// base/2+rand variant) gives the fastest desynchronization of a herd while
// keeping the same exponential cap, and a zero draw is harmless — the next
// failure re-arms with a doubled envelope. Shared by Resilient and the
// coordinator client, which follows the same reconnect discipline.
func BackoffJitter(rng *rand.Rand, base, max time.Duration, streak int) time.Duration {
	d := base << streak
	if d > max || d <= 0 {
		d = max
	}
	if rng == nil || d <= 0 {
		return d
	}
	return time.Duration(rng.Int63n(int64(d) + 1))
}

// drop discards a stream after a transport failure (unless a newer stream
// already replaced it), folding its uplink accounting into the client's
// running totals.
func (r *Resilient) drop(s *Stream) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.stream == s {
		r.wire.Add(s.wireStats())
		s.Close()
		r.stream = nil
	}
}

// do runs op against a live stream, redialing and retrying on transport
// failures up to MaxAttempts times. Application-level errors
// (*RemoteError) return immediately: the stream is healthy and the remote
// broker rejected the request itself.
func (r *Resilient) do(op func(s *Stream) error) error {
	var err error
	for attempt := 0; attempt <= r.opts.MaxAttempts; attempt++ {
		var s *Stream
		if s, err = r.get(); err != nil {
			if !errors.Is(err, ErrTransport) {
				return err // fatal (target changed) or handshake rejection
			}
			continue
		}
		if err = op(s); err == nil || !errors.Is(err, ErrTransport) {
			return err
		}
		r.drop(s)
	}
	return err
}

// call runs one request with reconnect-and-retry. The same request crosses
// the wire on every attempt.
func (r *Resilient) call(req rpcRequest) (rep rpcReply, err error) {
	err = r.do(func(s *Stream) error {
		rep, err = s.roundTrip(req)
		return err
	})
	return rep, err
}

// Exec implements Executor for callers that hold DSL text: it parses the
// text against the target bound at attach time and takes ExecProg's path,
// so a program that does not parse is rejected on the host. The result is
// pooled and owned by the caller, who should Release it.
func (r *Resilient) Exec(req ExecRequest) (*ExecResult, error) {
	p, err := dsl.ParseProg(r.Target(), req.ProgText)
	if err != nil {
		return nil, fmt.Errorf("adb: bad program: %w", err)
	}
	return r.ExecProg(p)
}

// ExecProg implements Executor with reconnect-and-retry: the program
// crosses the wire in the exec encoding, encoded once before the retry
// loop. Singleton executions always carry the exact result, never
// elided — minimization and crash triage depend on it; ExecBatch is where
// the summary uplink lives. The result is pooled and owned by the caller,
// who should Release it.
func (r *Resilient) ExecProg(p *dsl.Prog) (*ExecResult, error) {
	res, _, err := r.exec(p, 0)
	if err == nil && res == nil {
		err = &RemoteError{Msg: "adb: result trace does not decode"}
	}
	return res, err
}

// exec sends one program, and the resets to run before it, as the
// singleton exec frame, and returns its pooled result (nil when the trace
// did not decode), which the caller Releases, and how many of the resets
// rebooted.
func (r *Resilient) exec(p *dsl.Prog, resets int) (*ExecResult, int, error) {
	prog, err := dsl.AppendExec(nil, r.Target(), p)
	if err != nil {
		return nil, 0, err
	}
	rep, err := r.call(rpcRequest{Kind: reqExec, Progs: [][]byte{prog}, Resets: resets})
	if err != nil {
		return nil, 0, err
	}
	return rep.Result, rep.Rebooted, nil
}

// ExecBatch implements BatchExecutor: the resets and the batch, encoded
// once, travel as one frame and are retried as one call. After a
// transport failure the whole frame is resubmitted on the fresh stream,
// resets included: no part of an unanswered frame was ever acknowledged,
// and a reset is idempotent. One program without the summary uplink
// travels as the singleton exec frame, so WireStats keeps counting
// summary batches only. The returned slice aligns index-for-index with
// req.Progs (nil on an error); nil entries mark broker-rejected programs.
// Non-nil results are pooled and owned by the caller (Release each when
// done).
func (r *Resilient) ExecBatch(req ExecBatchRequest) ([]*ExecResult, error) {
	var results []*ExecResult
	var rebooted int
	if len(req.Progs) == 1 && !req.Summary {
		res, n, err := r.exec(req.Progs[0], req.Resets)
		if err != nil {
			return nil, err
		}
		results, rebooted = req.results(), n
		results[0] = res
	} else {
		t := r.Target()
		progs := make([][]byte, len(req.Progs))
		var buf []byte
		for i, p := range req.Progs {
			start := len(buf)
			var err error
			if buf, err = dsl.AppendExec(buf, t, p); err != nil {
				return nil, err
			}
			progs[i] = buf[start:len(buf):len(buf)]
		}
		err := r.do(func(s *Stream) (err error) {
			results, rebooted, err = s.execBatch(progs, req.Summary, req.Resets)
			return err
		})
		if err != nil {
			return nil, err
		}
		if len(req.Results) == len(results) {
			copy(req.Results, results)
			results = req.Results
		}
	}
	if req.Rebooted != nil {
		*req.Rebooted = rebooted
	}
	return results, nil
}

// Ping implements Executor with a liveness round trip.
func (r *Resilient) Ping() error {
	_, err := r.call(rpcRequest{Kind: reqPing})
	return err
}

// Reboot implements Executor: the device-side broker reboots its device.
func (r *Resilient) Reboot() error {
	_, err := r.call(rpcRequest{Kind: reqReboot})
	return err
}

// Reset implements Executor: the device-side broker restores its device
// from the boot snapshot, rebooting only when restore cannot reach
// pristine state; the reply reports which path ran. A reconnect mid-Reset
// is harmless: the worst case is the device resetting twice, which is
// idempotent. A reset followed by an execution is cheaper as that
// execution's ExecBatchRequest.Resets: one frame instead of two.
func (r *Resilient) Reset() (bool, error) {
	rep, err := r.call(rpcRequest{Kind: reqReset})
	return rep.Restored, err
}

// ExportCheckpoint implements Cloner: the device-side broker serializes
// its device state and ships the opaque blob back. The export is read-only
// on the device, so retrying after a dropped link is safe.
func (r *Resilient) ExportCheckpoint() ([]byte, error) {
	rep, err := r.call(rpcRequest{Kind: reqExport})
	if err != nil {
		return nil, err
	}
	if len(rep.Blob) == 0 {
		return nil, &RemoteError{Msg: "adb: empty checkpoint reply"}
	}
	return rep.Blob, nil
}

// ImportCheckpoint implements Cloner: the device-side broker
// re-materializes the blob onto its (same-model) device. Importing the
// same blob twice is idempotent, so a retry after an ambiguous transport
// failure cannot corrupt device state.
func (r *Resilient) ImportCheckpoint(blob []byte) error {
	_, err := r.call(rpcRequest{Kind: reqImport, Blob: blob})
	return err
}

// Info implements Executor with a live round trip; on failure it returns
// the last-known identity (ModelID and TargetHash stay valid — they are
// pinned by the handshake) along with the error.
func (r *Resilient) Info() (Info, error) {
	rep, err := r.call(rpcRequest{Kind: reqInfo})
	r.mu.Lock()
	defer r.mu.Unlock()
	if err != nil {
		return r.info, err
	}
	r.info = rep.Info
	return r.info, nil
}
