package coord

import (
	"errors"
	"fmt"
	"io"
	"net"

	"droidfuzz/internal/adb"
)

// The coordinator wire layer mirrors the adb transport's device protocol:
// the same binary frames (adb.FrameConn) over any byte stream, lock-step
// request/reply; the client side runs over the same adb.Stream.
// Coordinator RPCs happen per epoch (hundreds of milliseconds to seconds
// apart), not per execution, and one in-flight request per connection
// keeps both ends trivially in sync.

// Server serves a Coordinator over frame streams.
type Server struct {
	C *Coordinator
}

// Serve runs the coordinator side of the protocol over rw until the stream
// ends: nil on clean EOF, an adb.ErrTransport-wrapped error on garbage or a
// mid-stream hangup. Handler panics become per-request error replies, so
// one hostile frame cannot take the coordinator down.
func (s *Server) Serve(rw io.ReadWriter) error {
	c := adb.NewFrameConn(rw)
	for {
		var req adb.CoordRequest
		if err := c.Read(&req); err != nil {
			if errors.Is(err, io.EOF) || errors.Is(err, io.ErrClosedPipe) {
				return nil
			}
			return fmt.Errorf("%w: coord serve decode: %v", adb.ErrTransport, err)
		}
		rep := s.handle(req)
		if err := c.Write(&rep); err != nil {
			// A reply that does not encode goes out as an error reply.
			if err = c.Write(&adb.CoordReply{Err: err.Error()}); err != nil {
				return fmt.Errorf("%w: coord serve encode: %v", adb.ErrTransport, err)
			}
		}
	}
}

// handle dispatches one request through Coordinator.Handle — the layer
// that dedups retried requests — mapping Go errors to the reply's Err
// string (the client rehydrates them as *adb.RemoteError) and converting
// handler panics into error replies.
func (s *Server) handle(req adb.CoordRequest) (rep adb.CoordReply) {
	defer func() {
		if r := recover(); r != nil {
			rep = adb.CoordReply{Err: fmt.Sprintf("coord: request panic: %v", r)}
		}
	}()
	return s.C.Handle(req)
}

// ServeTCP listens on ln and serves each accepted host connection until
// the listener closes. Per-connection failures end that connection only.
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
