package adb

import (
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
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
// Wire protocol v2 is lock-step: the host sends one request, reads its
// reply, and only then sends the next. Every request carries a sequence
// tag the reply must echo, so a reply that answers some other request
// poisons the stream instead of landing on the wrong caller. Stream is the
// client side, shared by both remote links: Resilient, the host-side
// Executor, runs every broker call over one, and coord.Client its
// coordinator calls. See wire.go for the batched-execution RPC, one frame
// per batch, and the delta-coded coverage uplink.

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
	// Tag is the request sequence ID; the reply echoes it, and a client
	// receiving any other tag poisons the stream.
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

// Stream is the client side of a remote link: one gob request/reply
// stream, run lock-step. Resilient drives the broker protocol over it and
// coord.Client the coordinator protocol. A call holds the call lock while
// its request goes out and its reply comes back, so one request is on the
// wire at a time and no goroutine is needed. A Stream is not resilient:
// the first stream-level failure (a send or receive error, a call timeout,
// a reply the caller cannot attribute) poisons it, since the gob streams
// cannot resync; the underlying stream is closed and every later call
// fails fast with the same ErrTransport-wrapped error. Close, the call
// timeout and the wire accounting never take the call lock, so a call
// blocked on a wedged peer blocks none of them.
type Stream struct {
	mu      sync.Mutex // the call lock
	rwc     io.ReadWriteCloser
	enc     *gob.Encoder
	dec     *gob.Decoder
	timeout time.Duration
	timer   *time.Timer   // poisons the stream when a call overruns timeout
	tag     atomic.Uint64 // last request tag
	broken  atomic.Pointer[error]
	stats   atomic.Pointer[WireStats]
}

// errClosed poisons a stream its owner closed.
var errClosed = fmt.Errorf("%w: stream closed", ErrTransport)

// NewStream wraps an established stream. A positive timeout bounds each
// call: when it fires, the stream is poisoned and closed, which fails the
// blocked call on any io.ReadWriteCloser.
func NewStream(rwc io.ReadWriteCloser, timeout time.Duration) *Stream {
	return &Stream{
		rwc:     rwc,
		enc:     gob.NewEncoder(rwc),
		dec:     gob.NewDecoder(rwc),
		timeout: timeout,
	}
}

// Call sends req and decodes the peer's reply into rep (both pointers to
// wire frames). It fails fast once the stream is poisoned; a send or
// receive failure, or the call timeout, poisons it.
func (s *Stream) Call(req, rep any) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.err(); err != nil {
		return err
	}
	if s.timeout > 0 {
		if s.timer == nil {
			s.timer = time.AfterFunc(s.timeout, s.expire) //droidvet:nondet a call timeout only fails a wedged link; it never picks what the engine runs
		} else {
			s.timer.Reset(s.timeout)
		}
		defer s.timer.Stop()
	}
	if err := s.enc.Encode(req); err != nil {
		return s.fail(fmt.Errorf("%w: send: %v", ErrTransport, err))
	}
	if err := s.dec.Decode(rep); err != nil {
		return s.fail(fmt.Errorf("%w: recv: %v", ErrTransport, err))
	}
	return nil
}

// Close poisons the stream and closes it; a call blocked on the peer fails
// at once.
func (s *Stream) Close() error {
	s.fail(errClosed)
	return nil
}

// expire is the call timeout.
func (s *Stream) expire() {
	s.fail(fmt.Errorf("%w: call timed out after %v", ErrTransport, s.timeout))
}

// fail poisons the stream: the first failure sticks and closes the
// underlying stream, unblocking a call in flight. It returns the sticky
// error.
func (s *Stream) fail(err error) error {
	if s.broken.CompareAndSwap(nil, &err) {
		s.rwc.Close()
	}
	return *s.broken.Load()
}

// err returns the poisoning error, nil while the stream is healthy.
func (s *Stream) err() error {
	if p := s.broken.Load(); p != nil {
		return *p
	}
	return nil
}

// wireStats returns the uplink byte accounting reported by the broker for
// this stream's batched executions (zero until the first batch reply).
func (s *Stream) wireStats() WireStats {
	if w := s.stats.Load(); w != nil {
		return *w
	}
	return WireStats{}
}

// roundTrip performs one broker request. The reply must echo the request's
// tag; one that does not cannot be attributed and poisons the stream.
func (s *Stream) roundTrip(req rpcRequest) (rpcReply, error) {
	req.Tag = s.tag.Add(1)
	var rep rpcReply
	if err := s.Call(&req, &rep); err != nil {
		return rpcReply{}, err
	}
	if rep.Tag != req.Tag {
		return rpcReply{}, s.fail(fmt.Errorf("%w: recv: reply tag %d for request %d",
			ErrTransport, rep.Tag, req.Tag))
	}
	if rep.Err != "" {
		return rep, &RemoteError{Msg: rep.Err}
	}
	return rep, nil
}

// handshake performs the Describe round trip, rebuilds the device's
// call-description target host-side, and verifies that the rebuilt target
// hashes to the device-reported fingerprint.
func (s *Stream) handshake() (*DescribeReply, *dsl.Target, error) {
	rep, err := s.roundTrip(rpcRequest{Describe: true})
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
// Requests are handled serially in arrival order.
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
