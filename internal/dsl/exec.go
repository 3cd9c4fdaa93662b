package dsl

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// The exec encoding is the binary program form that crosses the broker
// link, after Syzkaller's executor encoding (prog/encodingexec.go). A
// program is a uvarint call count followed by its calls. Each call is a
// uvarint index into the target's description table (Target.Calls, the
// registration order the attach handshake ships and the target hash pins),
// followed by its arguments in field order, each encoded by the kind its
// field declares:
//
//	const, int, flags, len   uvarint Val
//	buffer                   uvarint length, the bytes
//	string, filename         uvarint length, the bytes
//	resource                 uvarint Ref+1 (0 is nil)
//
// It carries exactly what the text form carries, so
// DecodeExec(AppendExec(p)) equals ParseProg(p.String()). The text form
// stays the format of the corpus, repros and people.

// AppendExec appends the exec encoding of p against t to b. Each call's
// description must be t's own, or match one of t's by name and argument
// kinds, as the text form matches it by name.
func AppendExec(b []byte, t *Target, p *Prog) ([]byte, error) {
	b = binary.AppendUvarint(b, uint64(len(p.Calls)))
	for _, c := range p.Calls {
		idx, ok := t.index[c.Desc]
		if !ok {
			if idx, ok = t.indexByName(c.Desc); !ok {
				return b, fmt.Errorf("dsl: call %q is not in the target", c.Desc.Name)
			}
		}
		b = binary.AppendUvarint(b, uint64(idx))
		for j := range c.Desc.Args {
			a := &c.Args[j]
			switch c.Desc.Args[j].Type.Kind {
			case KindBuffer:
				b = binary.AppendUvarint(b, uint64(len(a.Data)))
				b = append(b, a.Data...)
			case KindString, KindFilename:
				b = binary.AppendUvarint(b, uint64(len(a.Str)))
				b = append(b, a.Str...)
			case KindResource:
				ref := uint64(0)
				if a.Ref >= 0 {
					ref = uint64(a.Ref) + 1
				}
				b = binary.AppendUvarint(b, ref)
			default:
				b = binary.AppendUvarint(b, a.Val)
			}
		}
	}
	return b, nil
}

// indexByName finds the registration index of the description named like
// d, provided its arguments have d's kinds, so the bytes AppendExec writes
// for d decode field for field.
func (t *Target) indexByName(d *CallDesc) (int, bool) {
	td := t.byName[d.Name]
	if td == nil || len(td.Args) != len(d.Args) {
		return 0, false
	}
	for i := range d.Args {
		if execClass(td.Args[i].Type.Kind) != execClass(d.Args[i].Type.Kind) {
			return 0, false
		}
	}
	return t.index[td], true
}

// execClass groups the kinds that share an exec encoding: scalars, byte
// strings, resources.
func execClass(k Kind) int {
	switch k {
	case KindBuffer, KindString, KindFilename:
		return 1
	case KindResource:
		return 2
	}
	return 0
}

// ErrExecCorrupt marks exec-encoded bytes that are not a program: a
// truncated or overlong varint, a length past the end, a call index
// outside the target, a forward resource reference, or trailing bytes.
var ErrExecCorrupt = errors.New("dsl: corrupt exec encoding")

// DecodeExec decodes one exec-encoded program against t into a program of
// its own that does not alias b. It is a one-shot ExecDecoder.
func DecodeExec(t *Target, b []byte) (*Prog, error) {
	return new(ExecDecoder).Decode(t, b)
}

// ExecDecoder decodes exec-encoded programs into storage it reuses: one
// backing array each for the calls, their arguments and their buffers, as
// Prog.Clone lays them out. Once the arrays have grown to the largest
// program seen, a decode allocates only the program's string arguments.
// The program Decode returns, buffers included, is valid until the next
// Decode; a caller that keeps a program past that clones it. The zero
// value is ready to use. An ExecDecoder is not safe for concurrent use.
type ExecDecoder struct {
	prog  Prog
	calls []Call
	args  []Arg
	data  []byte
}

// Decode decodes one exec-encoded program against t. It reads the bytes
// twice: a first pass checks their structure and counts the calls,
// arguments and buffer bytes, so every count and length is bounded by the
// bytes present before anything is allocated; the second fills the
// decoder's arrays. The result does not alias b. It ends with the same
// Validate that ParseProg runs.
func (x *ExecDecoder) Decode(t *Target, b []byte) (*Prog, error) {
	n, nargs, ndata, err := scanExec(t, b)
	if err != nil {
		return nil, err
	}
	r := execReader{b: b}
	r.uvarint() // the call count
	p := &x.prog
	p.Calls = grow(p.Calls, n)
	x.calls = grow(x.calls, n)
	x.args = grow(x.args, nargs)
	x.data = grow(x.data, ndata)
	args, data := x.args, x.data
	for i := range x.calls {
		d := t.calls[r.uvarint()]
		na := len(d.Args)
		c := &x.calls[i]
		c.Desc = d
		c.Args = args[:na:na]
		args = args[na:]
		for j := range d.Args {
			a := &c.Args[j]
			switch d.Args[j].Type.Kind {
			case KindBuffer:
				l := copy(data, r.bytes())
				*a = Arg{Data: data[:l:l]}
				data = data[l:]
			case KindString, KindFilename:
				*a = Arg{Str: string(r.bytes())}
			case KindResource:
				*a = Arg{Ref: int(r.uvarint()) - 1}
			default:
				*a = Arg{Val: r.uvarint()}
			}
		}
		p.Calls[i] = c
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}

// grow returns s resliced to n elements, reallocated only when its
// capacity is short. The old contents are not kept.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// scanExec is DecodeExec's first pass: it checks the structure of b and
// returns its call count, argument count and total buffer bytes.
func scanExec(t *Target, b []byte) (calls, args, data int, err error) {
	r := execReader{b: b}
	n := r.uvarint()
	if n > uint64(len(r.b)) { // every call takes at least its index byte
		return 0, 0, 0, fmt.Errorf("%w: %d calls in %d bytes", ErrExecCorrupt, n, len(r.b))
	}
	for i := uint64(0); i < n && r.err == nil; i++ {
		idx := r.uvarint()
		if idx >= uint64(len(t.calls)) {
			return 0, 0, 0, fmt.Errorf("%w: call %d: index %d outside the target's %d calls",
				ErrExecCorrupt, i, idx, len(t.calls))
		}
		d := t.calls[idx]
		for j := range d.Args {
			switch f := &d.Args[j]; f.Type.Kind {
			case KindBuffer:
				data += len(r.bytes())
			case KindString, KindFilename:
				r.bytes()
			case KindResource:
				if ref := r.uvarint(); ref > i {
					return 0, 0, 0, fmt.Errorf("%w: call %d (%s) arg %q refs call %d",
						ErrExecCorrupt, i, d.Name, f.Name, ref-1)
				}
			default:
				r.uvarint()
			}
		}
		args += len(d.Args)
	}
	if r.err != nil {
		return 0, 0, 0, r.err
	}
	if len(r.b) > 0 {
		return 0, 0, 0, fmt.Errorf("%w: %d trailing bytes", ErrExecCorrupt, len(r.b))
	}
	return int(n), args, data, nil
}

// execReader walks exec-encoded bytes. The first malformed read sets err
// and every later read returns zero.
type execReader struct {
	b   []byte
	err error
}

// uvarint reads one minimally encoded uvarint: an overlong form would
// decode to the same program from different bytes.
func (r *execReader) uvarint() uint64 {
	if len(r.b) > 0 && r.b[0] < 0x80 {
		v := uint64(r.b[0])
		r.b = r.b[1:]
		return v
	}
	return r.uvarintSlow()
}

func (r *execReader) uvarintSlow() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b)
	if n <= 0 || r.b[n-1] == 0 {
		r.fail("bad varint")
		return 0
	}
	r.b = r.b[n:]
	return v
}

// fail records the first malformed read and empties the input.
func (r *execReader) fail(what string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("%w: "+what, append([]any{ErrExecCorrupt}, args...)...)
	}
	r.b = nil
}

// bytes reads one length-prefixed byte string, aliasing the input.
func (r *execReader) bytes() []byte {
	l := r.uvarint()
	if r.err != nil {
		return nil
	}
	if l > uint64(len(r.b)) {
		r.fail("length %d past the end", l)
		return nil
	}
	s := r.b[:l]
	r.b = r.b[l:]
	return s
}
