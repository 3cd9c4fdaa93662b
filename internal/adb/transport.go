package adb

import (
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"droidfuzz/internal/dsl"
)

// The transport stands in for ADB: a message-framed request/reply channel
// between the host-side fuzzing engine and the device-side broker. It runs
// over any io.ReadWriter — net.Pipe in-process, or a TCP loopback socket
// for the CLI tools — and carries the full Executor contract: program
// execution, reboot, liveness, checkpoints, and the identity handshake
// that binds a host engine to a remote target.
//
// Messages travel as hand-written binary frames (frame.go; the broker
// link's kinds and layouts are in codec.go). Programs cross in the exec
// encoding (dsl.AppendExec): call-table indexes into the target the
// handshake fixed, not DSL text. The protocol is lock-step: the host sends
// one request, reads its reply, and only then sends the next. Every
// request carries a sequence tag the reply must echo, so a reply that
// answers some other request poisons the stream instead of landing on the
// wrong caller. Stream is the client side, shared by both remote links:
// Resilient, the host-side Executor, runs every broker call over one, and
// coord.Client its coordinator calls. See wire.go for the batched-execution
// RPC, one frame per batch, and the delta-coded coverage uplink.

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

// DescribeReply is the attach-time handshake payload: the device identity
// plus everything a host engine needs to generate programs for it — the
// full call-description surface and the distilled seed workloads from the
// device-side probing pass, in canonical DSL text form.
type DescribeReply struct {
	Info Info
	// Calls is the broker target's call-description surface in
	// registration order; the host rebuilds an identical dsl.Target from
	// it (the frame carries every syntax field, so the rebuilt target
	// hashes identically), and programs cross as indexes into it.
	Calls []*dsl.CallDesc
	// Seeds are probing-pass seed programs in DSL text, parseable against
	// the rebuilt target.
	Seeds []string
}

// Stream is the client side of a remote link: one frame stream, run
// lock-step. Resilient drives the broker protocol over it and
// coord.Client the coordinator protocol. A call holds the call lock while
// its request goes out and its reply comes back, so one request is on the
// wire at a time and no goroutine is needed. A Stream is not resilient:
// the first stream-level failure (a send or receive error, a call timeout,
// a reply that does not decode or that the caller cannot attribute)
// poisons it, since the stream cannot resync; the underlying stream is
// closed and every later call fails fast with the same ErrTransport-wrapped
// error. Close, the call timeout and the wire accounting never take the
// call lock, so a call blocked on a wedged peer blocks none of them.
type Stream struct {
	mu      sync.Mutex // the call lock
	rwc     io.ReadWriteCloser
	conn    *FrameConn // under the call lock
	timeout time.Duration
	timer   *time.Timer   // poisons the stream when a call overruns timeout
	tag     atomic.Uint64 // last request tag
	broken  atomic.Pointer[error]
	stats   atomic.Pointer[WireStats]
	// req and rep hold roundTrip's frames under the call lock, so a
	// broker call allocates neither.
	req rpcRequest
	rep rpcReply
}

// errClosed poisons a stream its owner closed.
var errClosed = fmt.Errorf("%w: stream closed", ErrTransport)

// NewStream wraps an established stream. A positive timeout bounds each
// call: when it fires, the stream is poisoned and closed, which fails the
// blocked call on any io.ReadWriteCloser.
func NewStream(rwc io.ReadWriteCloser, timeout time.Duration) *Stream {
	return &Stream{rwc: rwc, conn: NewFrameConn(rwc), timeout: timeout}
}

// Call sends req and decodes the peer's reply into rep. It fails fast once
// the stream is poisoned; a send or receive failure, a reply that does not
// decode, or the call timeout poisons it. A request that does not encode
// fails alone and leaves the stream healthy.
func (s *Stream) Call(req, rep Frame) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.callLocked(req, rep)
}

func (s *Stream) callLocked(req, rep Frame) error {
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
	if err := s.conn.Write(req); err != nil {
		if errors.Is(err, errUnencodable) {
			return err // nothing went out
		}
		return s.fail(fmt.Errorf("%w: send: %v", ErrTransport, err))
	}
	if err := s.conn.Read(rep); err != nil {
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
// tag; one that does not cannot be attributed and poisons the stream. An
// error reply, or one of the wrong kind, is a *RemoteError.
func (s *Stream) roundTrip(req rpcRequest) (rpcReply, error) {
	s.mu.Lock()
	req.Tag = s.tag.Add(1)
	s.req = req
	err := s.callLocked(&s.req, &s.rep)
	rep := s.rep
	s.req, s.rep = rpcRequest{}, rpcReply{}
	s.mu.Unlock()
	if err != nil {
		return rpcReply{}, err
	}
	if rep.Tag != req.Tag {
		rep.release()
		return rpcReply{}, s.fail(fmt.Errorf("%w: recv: reply tag %d for request %d",
			ErrTransport, rep.Tag, req.Tag))
	}
	switch want := replyTo[req.Kind]; rep.Kind {
	case want:
		return rep, nil
	case repErr:
		return rpcReply{}, &RemoteError{Msg: rep.Err}
	default:
		rep.release()
		return rpcReply{}, &RemoteError{Msg: fmt.Sprintf("adb: reply kind %#x to request kind %#x", rep.Kind, req.Kind)}
	}
}

// handshake performs the Describe round trip, rebuilds the device's
// call-description target host-side, and verifies that the rebuilt target
// hashes to the device-reported fingerprint.
func (s *Stream) handshake() (*DescribeReply, *dsl.Target, error) {
	rep, err := s.roundTrip(rpcRequest{Kind: reqDescribe})
	if err != nil {
		return nil, nil, err
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
	// X runs the requests. The server decodes every program of a
	// connection into the same storage, so X must not keep a program, or
	// its argument buffers, past the ExecProg call that ran it.
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

	// mu serializes every request that touches X across the server's
	// connections. A host that redials while its old connection is still
	// being served would otherwise run a resubmitted frame at the same
	// time as the original on the one device, which has one kcov
	// collector and one device state. Execution is serial per device;
	// it is not exactly-once.
	mu sync.Mutex
}

// Serve runs the device side of the protocol over rw until the stream
// ends. It returns nil on a clean EOF and an ErrTransport-wrapped error on
// garbage, truncated frames, or a mid-stream hangup; it never panics —
// protocol-handler panics are converted to per-request error replies.
// Requests are handled serially in arrival order.
func (s *Server) Serve(rw io.ReadWriter) error {
	c := NewFrameConn(rw)
	st := s.newConnState()
	var req rpcRequest
	var rep rpcReply
	for {
		if err := c.Read(&req); err != nil {
			if errors.Is(err, io.EOF) || errors.Is(err, io.ErrClosedPipe) {
				return nil
			}
			return fmt.Errorf("%w: serve decode: %v", ErrTransport, err)
		}
		rep = s.handle(&req, st)
		if err := s.reply(c, &rep); err != nil {
			return fmt.Errorf("%w: serve encode: %v", ErrTransport, err)
		}
	}
}

// newConnState builds the per-connection protocol state.
func (s *Server) newConnState() *connState {
	st := &connState{}
	if s.NewFilter != nil {
		st.filter = s.NewFilter()
	}
	return st
}

// reply sends rep and releases its pooled results. A reply that does not
// encode (a checkpoint over the frame cap) goes out as an error reply.
func (s *Server) reply(c *FrameConn, rep *rpcReply) error {
	err := c.Write(rep)
	rep.release()
	if errors.Is(err, errUnencodable) {
		err = c.Write(&rpcReply{Kind: repErr, Tag: rep.Tag, Err: err.Error()})
	}
	return err
}

// handle dispatches one request, converting handler panics into error
// replies so one hostile frame cannot take the broker down. Every request
// but Ping holds s.mu while it runs.
func (s *Server) handle(req *rpcRequest, st *connState) (rep rpcReply) {
	if req.Kind != reqPing {
		s.mu.Lock()
		defer s.mu.Unlock()
	}
	defer func() {
		if r := recover(); r != nil {
			rep.release()
			rep = rpcReply{Kind: repErr, Tag: req.Tag, Err: fmt.Sprintf("adb: request panic: %v", r)}
		}
	}()
	rep = rpcReply{Kind: replyTo[req.Kind], Tag: req.Tag}
	var err error
	switch req.Kind {
	case reqPing:
	case reqReboot:
		err = s.X.Reboot()
	case reqReset:
		rep.Restored, err = s.X.Reset()
	case reqInfo:
		rep.Info, err = s.X.Info()
	case reqDescribe:
		var info Info
		if info, err = s.X.Info(); err == nil {
			rep.Describe = &DescribeReply{Info: info, Calls: s.X.Target().Calls(), Seeds: s.Seeds}
		}
	case reqExport:
		cl, ok := s.X.(Cloner)
		if !ok {
			err = errNoCheckpoints
			break
		}
		rep.Blob, err = cl.ExportCheckpoint()
	case reqImport:
		cl, ok := s.X.(Cloner)
		if !ok {
			err = errNoCheckpoints
			break
		}
		err = cl.ImportCheckpoint(req.Blob)
	case reqExec:
		// Keep the per-conn filter synced with every execution it
		// serves, so later summary batches elide against the full
		// stream this host has already seen. Singletons are never
		// elided themselves.
		if rep.Rebooted, err = runResets(s.X, req.Resets); err != nil {
			break
		}
		if rep.Result, err = s.execOne(st, s.X.Target(), req.Progs[0]); err == nil {
			st.observe(rep.Result)
		}
	case reqBatch:
		if rep.Rebooted, err = runResets(s.X, req.Resets); err == nil {
			rep.Batch = s.execBatch(st, req)
		}
	}
	if err != nil {
		rep = rpcReply{Kind: repErr, Tag: req.Tag, Err: err.Error()}
	}
	return rep
}

// errNoCheckpoints rejects a checkpoint request to an executor without
// checkpoint support.
var errNoCheckpoints = errors.New("adb: executor does not support checkpoints")

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
