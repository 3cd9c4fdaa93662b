package dsl

import (
	"bufio"
	"encoding/hex"
	"fmt"
	"math/bits"
	"strconv"
	"strings"
)

// The program text form, one call per line:
//
//	r0 = open$tcpc(path="/dev/tcpc0")
//	ioctl$TCPC_SET_MODE(fd=r0, mode=0x3)
//	hal$graphics.createLayer(display=0x1, w=0x80, h=0x80)
//
// Scalars are hex; buffers are b"<hex>"; strings and filenames are quoted;
// resource arguments are rN (N = producing call index) or nil. A call whose
// description produces a resource is prefixed with "rI = " where I is its
// own call index, so labels are stable across serialize/parse round trips.

// String serializes the program to its canonical text form.
func (p *Prog) String() string {
	var b strings.Builder
	b.Grow(p.textLen())
	var num [20]byte
	for i, c := range p.Calls {
		if c.Desc.Ret != "" {
			b.WriteByte('r')
			b.Write(strconv.AppendInt(num[:0], int64(i), 10))
			b.WriteString(" = ")
		}
		b.WriteString(c.Desc.Name)
		b.WriteByte('(')
		for j, f := range c.Desc.Args {
			if j > 0 {
				b.WriteString(", ")
			}
			b.WriteString(f.Name)
			b.WriteByte('=')
			writeArg(&b, f.Type, c.Args[j])
		}
		b.WriteString(")\n")
	}
	return b.String()
}

func writeArg(b *strings.Builder, t Type, a Arg) {
	var scratch [64]byte
	switch t.Kind {
	case KindBuffer:
		b.WriteString(`b"`)
		for data := a.Data; len(data) > 0; {
			n := min(len(data), len(scratch)/2)
			b.Write(scratch[:hex.Encode(scratch[:], data[:n])])
			data = data[n:]
		}
		b.WriteByte('"')
	case KindString, KindFilename:
		b.Write(strconv.AppendQuote(scratch[:0], a.Str))
	case KindResource:
		if a.Ref < 0 {
			b.WriteString("nil")
		} else {
			b.WriteByte('r')
			b.Write(strconv.AppendInt(scratch[:0], int64(a.Ref), 10))
		}
	default:
		b.WriteString("0x")
		b.Write(strconv.AppendUint(scratch[:0], a.Val, 16))
	}
}

// textLen is the length of p's canonical text, exact unless a string
// argument needs escaping, so String fills its builder without regrowing.
func (p *Prog) textLen() int {
	n := 0
	for i, c := range p.Calls {
		if c.Desc.Ret != "" {
			n += len("r = ") + decLen(i)
		}
		n += len(c.Desc.Name) + len("()\n")
		for j, f := range c.Desc.Args {
			if j > 0 {
				n += len(", ")
			}
			n += len(f.Name) + len("=")
			a := c.Args[j]
			switch f.Type.Kind {
			case KindBuffer:
				n += len(`b""`) + 2*len(a.Data)
			case KindString, KindFilename:
				n += len(`""`) + len(a.Str)
			case KindResource:
				n += len("r") + decLen(a.Ref)
			default:
				n += len("0x") + max(1, (bits.Len64(a.Val)+3)/4)
			}
		}
	}
	return n
}

// decLen is the number of decimal digits in v (3, for "nil", if negative).
func decLen(v int) int {
	if v < 0 {
		return 3
	}
	n := 1
	for ; v >= 10; v /= 10 {
		n++
	}
	return n
}

// maxLine is the longest line, in bytes before its newline, that the text
// codecs accept: a longer one fails with bufio.ErrTooLong, as it did when
// each parse read its text through a 1 MiB bufio.Scanner.
const maxLine = 1<<20 - 1

// lines walks a text one line at a time, in place. next stops at each line
// that is neither blank nor a '#' comment; line holds it trimmed of
// surrounding space and no its 1-based number, skipped lines included.
type lines struct {
	rest string
	line string
	no   int
	err  error
}

func (l *lines) next() bool {
	for l.rest != "" {
		var raw string
		raw, l.rest, _ = strings.Cut(l.rest, "\n")
		l.no++
		if len(raw) > maxLine {
			l.err, l.rest = bufio.ErrTooLong, ""
			return false
		}
		if l.line = strings.TrimSpace(raw); l.line != "" && l.line[0] != '#' {
			return true
		}
	}
	return false
}

// ParseProg parses the canonical text form against the target. Unknown call
// names, malformed arguments, and invalid resource references are errors.
func ParseProg(target *Target, text string) (*Prog, error) {
	p := &Prog{Calls: make([]*Call, 0, strings.Count(text, "\n")+1)}
	ls := lines{rest: text}
	for ls.next() {
		c, err := parseCall(target, ls.line, len(p.Calls))
		if err != nil {
			return nil, fmt.Errorf("dsl: line %d: %w", ls.no, err)
		}
		p.Calls = append(p.Calls, c)
	}
	if ls.err != nil {
		return nil, fmt.Errorf("dsl: scan: %w", ls.err)
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}

func parseCall(target *Target, line string, idx int) (*Call, error) {
	// Optional "rI = " prefix.
	if eq := strings.Index(line, "="); eq > 0 {
		head := strings.TrimSpace(line[:eq])
		if strings.HasPrefix(head, "r") && !strings.Contains(head, "(") {
			label, err := strconv.Atoi(head[1:])
			if err != nil {
				return nil, fmt.Errorf("bad result label %q", head)
			}
			if label != idx {
				return nil, fmt.Errorf("result label r%d does not match call index %d", label, idx)
			}
			line = strings.TrimSpace(line[eq+1:])
		}
	}
	open := strings.Index(line, "(")
	if open < 0 || !strings.HasSuffix(line, ")") {
		return nil, fmt.Errorf("malformed call %q", line)
	}
	name := strings.TrimSpace(line[:open])
	desc := target.Lookup(name)
	if desc == nil {
		return nil, fmt.Errorf("unknown call %q", name)
	}
	args := strings.TrimSpace(line[open+1 : len(line)-1])
	n, err := countArgs(args)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	if n != len(desc.Args) {
		return nil, fmt.Errorf("%s: got %d args, want %d", name, n, len(desc.Args))
	}
	c := &Call{Desc: desc, Args: make([]Arg, n)}
	for i, f := range desc.Args {
		var part string
		part, args = cutArg(args)
		eq := strings.Index(part, "=")
		if eq < 0 {
			return nil, fmt.Errorf("%s: arg %d missing name", name, i)
		}
		argName := strings.TrimSpace(part[:eq])
		if argName != f.Name {
			return nil, fmt.Errorf("%s: arg %d named %q, want %q", name, i, argName, f.Name)
		}
		a, err := parseArg(f.Type, strings.TrimSpace(part[eq+1:]))
		if err != nil {
			return nil, fmt.Errorf("%s: arg %q: %w", name, f.Name, err)
		}
		c.Args[i] = a
	}
	return c, nil
}

// quoteEnd returns the index of the '"' that closes the quoted segment
// opening at s[open], or -1 if it is unterminated. Inside the segment a
// backslash escapes the byte after it, so `"a\\"` closes at its last byte
// and `"a\"b"` does not close at its middle quote.
func quoteEnd(s string, open int) int {
	for i := open + 1; ; {
		q := strings.IndexByte(s[i:], '"')
		if q < 0 {
			return -1
		}
		e := strings.IndexByte(s[i:i+q], '\\')
		if e < 0 {
			return i + q
		}
		i += e + 2 // past the backslash and the byte it escapes
	}
}

// argEnd returns the index of the first comma in s outside a quoted
// segment, len(s) if there is none, or -1 if a quote is unterminated.
func argEnd(s string) int {
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '"':
			if i = quoteEnd(s, i); i < 0 {
				return -1
			}
		case ',':
			return i
		}
	}
	return len(s)
}

// countArgs counts the comma-separated arguments of a call's trimmed
// argument text, honoring quoted segments; an empty text has none.
func countArgs(s string) (int, error) {
	if s == "" {
		return 0, nil
	}
	for n := 1; ; n++ {
		end := argEnd(s)
		if end < 0 {
			return 0, fmt.Errorf("unterminated quote")
		}
		if end == len(s) {
			return n, nil
		}
		s = s[end+1:]
	}
}

// cutArg splits off the first argument of an argument text countArgs
// accepted: arg is that argument trimmed, rest the text after its comma.
func cutArg(s string) (arg, rest string) {
	end := argEnd(s)
	if end == len(s) {
		return strings.TrimSpace(s), ""
	}
	return strings.TrimSpace(s[:end]), s[end+1:]
}

func parseArg(t Type, s string) (Arg, error) {
	switch t.Kind {
	case KindBuffer:
		if !strings.HasPrefix(s, `b"`) || !strings.HasSuffix(s, `"`) {
			return Arg{}, fmt.Errorf("buffer arg %q not of form b\"<hex>\"", s)
		}
		data, err := hex.DecodeString(s[2 : len(s)-1])
		if err != nil {
			return Arg{}, fmt.Errorf("buffer hex: %w", err)
		}
		return Arg{Data: data}, nil
	case KindString, KindFilename:
		str, err := strconv.Unquote(s)
		if err != nil {
			return Arg{}, fmt.Errorf("string arg %q: %w", s, err)
		}
		return Arg{Str: str}, nil
	case KindResource:
		if s == "nil" {
			return Arg{Ref: -1}, nil
		}
		if !strings.HasPrefix(s, "r") {
			return Arg{}, fmt.Errorf("resource arg %q not rN or nil", s)
		}
		ref, err := strconv.Atoi(s[1:])
		if err != nil {
			return Arg{}, fmt.Errorf("resource ref %q: %w", s, err)
		}
		return Arg{Ref: ref}, nil
	default:
		v, err := strconv.ParseUint(s, 0, 64)
		if err != nil {
			return Arg{}, fmt.Errorf("scalar %q: %w", s, err)
		}
		return Arg{Val: v}, nil
	}
}
