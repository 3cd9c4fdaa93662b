package adb

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
)

// Both remote links, the broker link (host↔broker) and the coordinator
// link (host↔coordinator), carry the same binary frames:
//
//	uint32 n (big-endian)   length of what follows, 1 <= n <= maxFrame
//	byte   kind             the message kind
//	body                    n-1 bytes, laid out by the kind
//
// Every message kind has its own hand-written append and decode function
// (codec.go for the broker link, coordwire.go for the coordinator link).
// Bodies are built from a handful of primitives: uvarints, zigzag varints
// for Go ints, 0/1 booleans, 8-byte little-endian floats, and byte and
// text strings as a uvarint length and the bytes. Varints must be minimal
// and booleans 0 or 1, so a decoder accepts one byte form per message.
// The kinds of all four directions are distinct, so a frame sent to the
// wrong peer fails to decode instead of being misread. The golden frames
// in frame_test.go pin the layout byte for byte.

// maxFrame caps one frame's length. The largest frames are federation
// downlinks and device checkpoints, both far below it.
const maxFrame = 64 << 20

// errCorrupt marks a frame whose bytes do not decode; errUnencodable a
// message that does not encode (no payload, over the frame cap), of which
// nothing was sent.
var (
	errCorrupt     = errors.New("adb: corrupt frame")
	errUnencodable = errors.New("adb: message does not encode")
)

// Frame is one message of a remote link: the broker link's requests and
// replies and the coordinator link's CoordRequest and CoordReply. Its
// methods are the message's hand-written codec.
type Frame interface {
	// appendFrame appends the kind byte and the body.
	appendFrame(b []byte) ([]byte, error)
	// decodeFrame decodes a kind byte and body, replacing the receiver's
	// contents. Errors are left in d.
	decodeFrame(d *decoder)
}

// FrameConn reads and writes frames on one stream: one buffered reader,
// one read buffer and one write buffer, reused across frames, so each
// frame goes out in a single Write. It is not safe for concurrent use.
// A decoded frame may alias the read buffer (the programs of an exec or
// batch request do) until the next Read.
type FrameConn struct {
	r    *bufio.Reader
	w    io.Writer
	rbuf []byte
	wbuf []byte
	// names interns short repeated strings (errno and status names, HAL
	// trace syscalls and paths, crash kinds) across the frames this
	// connection decodes.
	names map[string]string
	dec   decoder
}

// NewFrameConn wraps rw.
func NewFrameConn(rw io.ReadWriter) *FrameConn {
	return &FrameConn{r: bufio.NewReader(rw), w: rw, names: make(map[string]string)}
}

// Write encodes f and sends it as one frame. An encode failure (a message
// with no payload, a frame over maxFrame) sends nothing.
func (c *FrameConn) Write(f Frame) error {
	b, err := marshalFrame(c.wbuf[:0], f)
	c.wbuf = b[:0]
	if err != nil {
		return err
	}
	sanitizeFrame(b[4:], f)
	_, err = c.w.Write(b)
	return err
}

// Read reads one frame and decodes it into f. It returns io.EOF when the
// stream ends cleanly at a frame boundary, and an error wrapping
// io.ErrUnexpectedEOF when it ends inside one.
func (c *FrameConn) Read(f Frame) error {
	var err error
	if c.rbuf, err = readFrame(c.r, c.rbuf); err != nil {
		return err
	}
	c.dec = decoder{b: c.rbuf, names: c.names}
	f.decodeFrame(&c.dec)
	return c.dec.finish()
}

// marshalFrame appends f to b as one complete frame, length prefix
// included.
func marshalFrame(b []byte, f Frame) ([]byte, error) {
	start := len(b)
	b = append(b, 0, 0, 0, 0)
	b, err := f.appendFrame(b)
	if err != nil {
		return b[:start], fmt.Errorf("%w: %v", errUnencodable, err)
	}
	n := len(b) - start - 4
	if n > maxFrame {
		return b[:start], fmt.Errorf("%w: %d-byte frame exceeds the %d-byte cap", errUnencodable, n, maxFrame)
	}
	binary.BigEndian.PutUint32(b[start:], uint32(n))
	return b, nil
}

// unmarshalFrame decodes one frame body (the kind byte and what follows,
// without the length prefix) into f, interning names through names when
// it is not nil.
func unmarshalFrame(body []byte, f Frame, names map[string]string) error {
	d := decoder{b: body, names: names}
	f.decodeFrame(&d)
	return d.finish()
}

// readFrame reads one frame body into buf. The buffer grows with the bytes
// that actually arrive, at most doubling, so a hostile length prefix
// cannot make it allocate more than twice what the peer sent.
func readFrame(r io.Reader, buf []byte) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if errors.Is(err, io.ErrUnexpectedEOF) {
			return buf[:0], fmt.Errorf("%w: truncated frame header", err)
		}
		return buf[:0], err
	}
	n := int(binary.BigEndian.Uint32(hdr[:]))
	if n == 0 || n > maxFrame {
		return buf[:0], fmt.Errorf("%w: frame length %d outside 1..%d", errCorrupt, n, maxFrame)
	}
	buf = buf[:0]
	for len(buf) < n {
		step := min(n-len(buf), max(len(buf), 4<<10))
		if cap(buf)-len(buf) < step {
			grown := make([]byte, len(buf), len(buf)+step)
			copy(grown, buf)
			buf = grown
		}
		m, err := io.ReadFull(r, buf[len(buf):len(buf)+step])
		buf = buf[:len(buf)+m]
		if err != nil {
			if errors.Is(err, io.EOF) {
				err = io.ErrUnexpectedEOF
			}
			return buf[:0], fmt.Errorf("%w: frame of %d bytes cut at %d", err, n, len(buf))
		}
	}
	return buf, nil
}

// Frame body primitives.

func appendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

func appendInt(b []byte, v int) []byte { return binary.AppendVarint(b, int64(v)) }

func appendFloat(b []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
}

func appendBytes(b, p []byte) []byte {
	b = binary.AppendUvarint(b, uint64(len(p)))
	return append(b, p...)
}

func appendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

func appendStrings(b []byte, ss []string) []byte {
	b = binary.AppendUvarint(b, uint64(len(ss)))
	for _, s := range ss {
		b = appendString(b, s)
	}
	return b
}

// decoder reads one frame body. The first malformed read records err and
// empties the input, so every later read returns a zero value; callers
// check d.err once, where a decoded value is about to be used.
type decoder struct {
	b     []byte
	err   error
	names map[string]string
}

// maxNames bounds a connection's intern table.
const maxNames = 1 << 10

func (d *decoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("%w: "+format, append([]any{errCorrupt}, args...)...)
	}
	d.b = nil
}

// finish reports the first error, or trailing bytes after the message.
func (d *decoder) finish() error {
	if d.err == nil && len(d.b) > 0 {
		d.fail("%d trailing bytes", len(d.b))
	}
	return d.err
}

func (d *decoder) u8() byte {
	if len(d.b) == 0 {
		d.fail("truncated")
		return 0
	}
	v := d.b[0]
	d.b = d.b[1:]
	return v
}

func (d *decoder) flag() bool {
	switch d.u8() {
	case 0:
		return false
	case 1:
		return true
	}
	d.fail("bad boolean")
	return false
}

// uvarint reads a minimally encoded uvarint.
func (d *decoder) uvarint() uint64 {
	v, n := binary.Uvarint(d.b)
	if n <= 0 || (n > 1 && d.b[n-1] == 0) {
		d.fail("bad varint")
		return 0
	}
	d.b = d.b[n:]
	return v
}

// varint reads a zigzag varint.
func (d *decoder) varint() int {
	u := d.uvarint()
	return int(int64(u>>1) ^ -int64(u&1))
}

func (d *decoder) float() float64 {
	if len(d.b) < 8 {
		d.fail("truncated float")
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(d.b))
	d.b = d.b[8:]
	return v
}

// count reads an element count, each element taking at least size bytes,
// and fails it unless that many bytes remain: nothing is allocated for
// elements the frame cannot hold.
func (d *decoder) count(size int) int {
	n := d.uvarint()
	if n > uint64(len(d.b)/size) {
		d.fail("count %d past the end", n)
		return 0
	}
	return int(n)
}

// view reads a length-prefixed byte string, aliasing the frame.
func (d *decoder) view() []byte {
	n := d.count(1)
	v := d.b[:n:n]
	d.b = d.b[n:]
	return v
}

// blob reads a length-prefixed byte string into a copy; empty is nil.
func (d *decoder) blob() []byte {
	v := d.view()
	if len(v) == 0 {
		return nil
	}
	return append([]byte(nil), v...)
}

func (d *decoder) str() string { return string(d.view()) }

// name reads a string through the connection's intern table, so the names
// a broker repeats in every result cost no allocation after the first.
func (d *decoder) name() string {
	v := d.view()
	if s, ok := d.names[string(v)]; ok {
		return s
	}
	s := string(v)
	if d.names != nil && len(d.names) < maxNames {
		d.names[s] = s
	}
	return s
}

func (d *decoder) strs() []string {
	n := d.count(1)
	if n == 0 {
		return nil
	}
	out := make([]string, n)
	for i := range out {
		out[i] = d.str()
	}
	return out
}
