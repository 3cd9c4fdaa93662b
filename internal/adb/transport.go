package adb

import (
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"droidfuzz/internal/dsl"
)

// The transport stands in for ADB: a message-framed, gob-encoded
// request/reply channel between the host-side fuzzing engine and the
// device-side broker. It runs over any io.ReadWriter — net.Pipe in-process,
// or a TCP loopback socket for the CLI tools — and carries the full
// Executor contract: program execution, reboot, liveness, and the identity
// handshake that binds a host engine to a remote target.
//
// Wire protocol v2 is multiplexed: every request carries a sequence tag the
// reply echoes, a dedicated writer goroutine owns the encoder and a reader
// goroutine owns the decoder, and a window bounds how many requests may be
// in flight at once. Resilient, the host-side Executor, runs every call as
// a submit-and-wait round trip over that core, so serial callers behave
// exactly as they did under the v1 lock-step protocol, while windowed
// callers (batched engines, several workers sharing one client) overlap
// request framing with device execution. See wire.go for the
// batched-execution RPC and the delta-coded coverage uplink.

// ErrTransport marks stream-level failures: a broken pipe, a garbled or
// truncated frame, a deadline hit. Errors wrapping it mean the connection
// is unusable and the caller should reconnect; application-level failures
// from the device side arrive as *RemoteError instead and leave the stream
// healthy. Test with errors.Is(err, ErrTransport).
var ErrTransport = errors.New("adb: transport failure")

// RemoteError is an application-level error reported by the device side of
// a transport connection (a bad program, a failed reboot). The stream
// stays in sync; only this request failed.
type RemoteError struct{ Msg string }

func (e *RemoteError) Error() string { return e.Msg }

type rpcRequest struct {
	// Tag is the request sequence ID; the reply echoes it so a windowed
	// client matches completions to callers without relying on reply order.
	Tag      uint64
	Exec     *ExecRequest
	Batch    *ExecBatchRequest
	Ping     bool
	Reboot   bool
	Reset    bool
	Info     bool
	Describe bool
	Export   bool
	Import   *ImportRequest
}

// ImportRequest carries a portable checkpoint to re-materialize on the
// device-side broker. The blob is an opaque pre-encoded device.Checkpoint:
// the rpc layer never decodes it, so checkpoint evolution does not touch
// the wire format.
type ImportRequest struct {
	Blob []byte
}

type rpcReply struct {
	Tag        uint64
	Result     *ExecResult
	Batch      *ExecBatchReply
	Pong       bool
	Restored   bool
	Info       *Info
	Describe   *DescribeReply
	Checkpoint []byte
	Imported   bool
	Err        string
}

// DescribeReply is the attach-time handshake payload: the device identity
// plus everything a host engine needs to generate programs for it — the
// full call-description surface and the distilled seed workloads from the
// device-side probing pass, in canonical DSL text form.
type DescribeReply struct {
	Info Info
	// Calls is the broker target's call-description surface in
	// registration order; the host rebuilds an identical dsl.Target from
	// it (gob round-trips every syntax field losslessly, so the rebuilt
	// target hashes identically).
	Calls []*dsl.CallDesc
	// Seeds are probing-pass seed programs in DSL text, parseable against
	// the rebuilt target.
	Seeds []string
}

// DefaultWindow is the in-flight request bound used when
// ResilientOptions.Window is not set.
const DefaultWindow = 8

// pendingCall is one in-flight request: the reader goroutine (or the
// poisoning path) completes it by filling rep/err and closing done.
type pendingCall struct {
	req  rpcRequest
	rep  rpcReply
	err  error
	done chan struct{}
}

// conn is one host-side transport stream, the core Resilient runs every
// RPC over. A conn is not resilient: the first stream-level failure
// poisons it (the gob streams cannot resync) and every later call fails
// fast with the same ErrTransport-wrapped error. Poisoning closes the
// stream to unblock the reader and writer goroutines.
type conn struct {
	mu      sync.Mutex
	rwc     io.ReadWriteCloser
	enc     *gob.Encoder // owned by writeLoop
	dec     *gob.Decoder // owned by readLoop
	timeout time.Duration
	frame   int
	broken  error
	stats   WireStats

	nextTag uint64
	pending map[uint64]*pendingCall
	sendq   chan *pendingCall
	slots   chan struct{}
	quit    chan struct{}
}

// newConn wraps an established stream and starts its writer and reader
// goroutines. The call timeout, in-flight window and batch frame size
// come from opts and are fixed for the stream's life.
func newConn(rwc io.ReadWriteCloser, opts ResilientOptions) *conn {
	window, frame := opts.Window, opts.BatchFrame
	if window <= 0 {
		window = DefaultWindow
	}
	if frame <= 0 {
		frame = DefaultBatchFrame
	}
	c := &conn{
		rwc:     rwc,
		enc:     gob.NewEncoder(rwc),
		dec:     gob.NewDecoder(rwc),
		timeout: opts.CallTimeout,
		frame:   frame,
		pending: make(map[uint64]*pendingCall, window),
		sendq:   make(chan *pendingCall, window),
		slots:   make(chan struct{}, window),
		quit:    make(chan struct{}),
	}
	go c.writeLoop()
	go c.readLoop()
	return c
}

// wireStats returns the uplink byte accounting reported by the broker for
// this stream's batched executions (zero until the first batch reply).
func (c *conn) wireStats() WireStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// close closes the underlying stream.
func (c *conn) close() error { return c.rwc.Close() }

// submit registers a request in the in-flight window and hands it to the
// writer goroutine. It blocks while the window is full and fails fast once
// the connection is poisoned.
func (c *conn) submit(req rpcRequest) (*pendingCall, error) {
	c.mu.Lock()
	err := c.broken
	c.mu.Unlock()
	if err != nil {
		return nil, err
	}

	select {
	case c.slots <- struct{}{}: // acquire a window slot
	case <-c.quit:
		c.mu.Lock()
		err := c.broken
		c.mu.Unlock()
		return nil, err
	}
	c.mu.Lock()
	if c.broken != nil {
		err := c.broken
		c.mu.Unlock()
		<-c.slots
		return nil, err
	}
	c.nextTag++
	req.Tag = c.nextTag
	pc := &pendingCall{req: req, done: make(chan struct{})}
	c.pending[req.Tag] = pc
	c.mu.Unlock()
	// sendq is buffered to the window size and each registered call holds a
	// slot, so this never blocks even if the writer has exited.
	c.sendq <- pc
	return pc, nil
}

// wait blocks until the call completes or the call timeout fires (which
// poisons the connection — an abandoned reply would desync the stream).
func (c *conn) wait(pc *pendingCall) (rpcReply, error) {
	if d := c.timeout; d > 0 {
		timer := time.NewTimer(d) //droidvet:nondet a call timeout only fails a wedged link; it never picks what the engine runs
		defer timer.Stop()
		select {
		case <-pc.done:
		case <-timer.C:
			c.fail(fmt.Errorf("%w: call timed out after %v", ErrTransport, d))
			<-pc.done
		}
	} else {
		<-pc.done
	}
	if pc.err != nil {
		return rpcReply{}, pc.err
	}
	if pc.rep.Err != "" {
		return pc.rep, &RemoteError{Msg: pc.rep.Err}
	}
	return pc.rep, nil
}

// writeLoop is the sole user of the encoder: it serializes queued requests
// onto the wire in submission order.
func (c *conn) writeLoop() {
	for {
		select {
		case pc := <-c.sendq:
			c.mu.Lock()
			broken := c.broken
			c.mu.Unlock()
			if broken != nil {
				continue // fail already completed the call
			}
			if err := c.enc.Encode(&pc.req); err != nil {
				c.fail(fmt.Errorf("%w: send: %v", ErrTransport, err))
				return
			}
		case <-c.quit:
			return
		}
	}
}

// readLoop is the sole user of the decoder: it matches each reply to its
// in-flight call by tag and completes it, releasing the window slot.
func (c *conn) readLoop() {
	for {
		var rep rpcReply
		if err := c.dec.Decode(&rep); err != nil {
			c.fail(fmt.Errorf("%w: recv: %v", ErrTransport, err))
			return
		}
		c.mu.Lock()
		pc := c.pending[rep.Tag]
		delete(c.pending, rep.Tag)
		c.mu.Unlock()
		if pc == nil {
			c.fail(fmt.Errorf("%w: recv: unmatched reply tag %d", ErrTransport, rep.Tag))
			return
		}
		pc.rep = rep
		close(pc.done)
		<-c.slots
	}
}

// fail poisons the connection: the first failure sticks, the stream is
// closed to unblock the writer and reader goroutines, and every in-flight
// call completes with the poisoning error.
func (c *conn) fail(err error) {
	c.mu.Lock()
	if c.broken == nil {
		c.broken = err
		close(c.quit)
		c.rwc.Close()
	}
	err = c.broken
	stale := c.pending
	c.pending = make(map[uint64]*pendingCall, 1)
	c.mu.Unlock()
	// Every stale call gets the same terminal error; delivery order among
	// already-failed RPCs is unobservable to callers.
	for _, pc := range stale { //droidvet:nondet order-independent failure fan-out
		pc.err = err
		close(pc.done)
		<-c.slots
	}
}

// roundTrip performs one synchronous request over the async core.
func (c *conn) roundTrip(req rpcRequest) (rpcReply, error) {
	pc, err := c.submit(req)
	if err != nil {
		return rpcReply{}, err
	}
	return c.wait(pc)
}

// handshake performs the Describe round trip, rebuilds the device's
// call-description target host-side, and verifies that the rebuilt target
// hashes to the device-reported fingerprint.
func (c *conn) handshake() (*DescribeReply, *dsl.Target, error) {
	rep, err := c.roundTrip(rpcRequest{Describe: true})
	if err != nil {
		return nil, nil, err
	}
	if rep.Describe == nil {
		return nil, nil, &RemoteError{Msg: "adb: empty describe reply"}
	}
	target, err := dsl.NewTarget(rep.Describe.Calls...)
	if err != nil {
		return nil, nil, fmt.Errorf("adb: handshake: rebuild target: %w", err)
	}
	if h := target.Hash(); h != rep.Describe.Info.TargetHash {
		return nil, nil, fmt.Errorf("adb: handshake: target hash mismatch: host %#x, device %#x",
			h, rep.Describe.Info.TargetHash)
	}
	return rep.Describe, target, nil
}

// Server is the device side of the transport: it dispatches protocol
// requests to an Executor (usually the in-process *Broker) and answers the
// Describe handshake with the executor's identity plus optional seed
// programs from the probing pass.
type Server struct {
	X Executor
	// Seeds are probing-pass seed programs in DSL text form, handed to
	// hosts at handshake so a remote engine bootstraps the same corpus an
	// in-process one would.
	Seeds []string
	// NewFilter, when set, builds one UplinkFilter per served connection:
	// the broker-side mirror of the host engine's feedback pipeline that
	// lets summary-mode batches elide traces carrying no new signal. Nil
	// disables elision (batches still delta-code their traces).
	NewFilter func() UplinkFilter
}

// Serve runs the device side of the protocol over rw until the stream
// ends. It returns nil on a clean EOF and an ErrTransport-wrapped error on
// garbage, truncated frames, or a mid-stream hangup; it never panics —
// protocol-handler panics are converted to per-request error replies.
// Requests are handled serially in arrival order; windowed clients get
// pipelining (the next request is already framed while this one executes),
// not reordering.
func (s *Server) Serve(rw io.ReadWriter) error {
	enc := gob.NewEncoder(rw)
	dec := gob.NewDecoder(rw)
	st := &connState{}
	if s.NewFilter != nil {
		st.filter = s.NewFilter()
	}
	for {
		req, err := decodeRequest(dec)
		if err != nil {
			if errors.Is(err, io.EOF) || errors.Is(err, io.ErrClosedPipe) {
				return nil
			}
			return fmt.Errorf("%w: serve decode: %v", ErrTransport, err)
		}
		rep := s.handle(req, st)
		rep.Tag = req.Tag
		err = enc.Encode(&rep)
		rep.Result.Release()
		if err != nil {
			return fmt.Errorf("%w: serve encode: %v", ErrTransport, err)
		}
	}
}

// decodeRequest reads one frame, converting decoder panics on hostile
// input into errors (gob is supposed to error on corrupt streams, but a
// device-facing listener must not trust that for every byte sequence).
func decodeRequest(dec *gob.Decoder) (req rpcRequest, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("decode panic: %v", r)
		}
	}()
	err = dec.Decode(&req)
	return req, err
}

// handle dispatches one request, converting handler panics into error
// replies so one hostile frame cannot take the broker down.
func (s *Server) handle(req rpcRequest, st *connState) (rep rpcReply) {
	defer func() {
		if r := recover(); r != nil {
			rep = rpcReply{Err: fmt.Sprintf("adb: request panic: %v", r)}
		}
	}()
	switch {
	case req.Ping:
		rep.Pong = true
	case req.Reboot:
		if err := s.X.Reboot(); err != nil {
			rep.Err = err.Error()
		} else {
			rep.Pong = true
		}
	case req.Reset:
		restored, err := s.X.Reset()
		if err != nil {
			rep.Err = err.Error()
		} else {
			rep.Pong = true
			rep.Restored = restored
		}
	case req.Info:
		info, err := s.X.Info()
		if err != nil {
			rep.Err = err.Error()
		} else {
			rep.Info = &info
		}
	case req.Describe:
		info, err := s.X.Info()
		if err != nil {
			rep.Err = err.Error()
			return rep
		}
		rep.Describe = &DescribeReply{
			Info:  info,
			Calls: s.X.Target().Calls(),
			Seeds: s.Seeds,
		}
	case req.Export:
		cl, ok := s.X.(Cloner)
		if !ok {
			rep.Err = "adb: executor does not support checkpoints"
			break
		}
		blob, err := cl.ExportCheckpoint()
		if err != nil {
			rep.Err = err.Error()
		} else {
			rep.Checkpoint = blob
		}
	case req.Import != nil:
		cl, ok := s.X.(Cloner)
		if !ok {
			rep.Err = "adb: executor does not support checkpoints"
			break
		}
		if err := cl.ImportCheckpoint(req.Import.Blob); err != nil {
			rep.Err = err.Error()
		} else {
			rep.Imported = true
		}
	case req.Exec != nil:
		res, err := s.X.Exec(*req.Exec)
		if err != nil {
			rep.Err = err.Error()
		} else {
			// Keep the per-conn filter synced with every execution it
			// serves, so later summary batches elide against the full
			// stream this host has already seen. Singletons are never
			// elided themselves.
			st.observe(res)
			rep.Result = res
		}
	case req.Batch != nil:
		rep.Batch = s.execBatch(st, req.Batch)
	default:
		rep.Err = "adb: empty request"
	}
	return rep
}

// ServeTCP listens on ln and serves each accepted connection until the
// listener is closed. Per-connection failures (a client feeding garbage, a
// dropped link) end that connection only; the listener keeps accepting.
func (s *Server) ServeTCP(ln net.Listener) error {
	for {
		c, err := ln.Accept()
		if err != nil {
			return err
		}
		go func() {
			defer c.Close()
			_ = s.Serve(c)
		}()
	}
}
