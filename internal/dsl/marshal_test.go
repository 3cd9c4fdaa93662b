package dsl

import (
	"bufio"
	"encoding/hex"
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"testing"
)

// backslashStrings end in, or escape a quote next to, a backslash: the
// strings a quote scanner that looks only at the byte before each quote
// gets wrong.
var backslashStrings = []string{`a\`, `q"\`, `x,y\\`}

func TestQuotedBackslashRoundTrip(t *testing.T) {
	target := testTarget(t)
	hal := target.Lookup("hal$svc.doThing")
	for _, s := range backslashStrings {
		p := &Prog{Calls: []*Call{{Desc: hal, Args: []Arg{{Ref: -1}, {Str: s}}}}}
		text := p.String()
		q, err := ParseProg(target, text)
		if err != nil {
			t.Fatalf("%q: parse: %v\n%s", s, err, text)
		}
		if got := q.Calls[0].Args[1].Str; got != s {
			t.Fatalf("string arg = %q, want %q", got, s)
		}

		d := &CallDesc{Name: "x", Class: ClassSyscall, Syscall: "open", CriticalArg: -1, Weight: 0.5,
			Args: []Field{{Name: "a", Type: String_(s, "z")}}}
		descs, err := ParseDescs(FormatDescs([]*CallDesc{d}))
		if err != nil {
			t.Fatalf("%q: parse descs: %v", s, err)
		}
		if got := descs[0].Args[0].Type.StrChoices; len(got) != 2 || got[0] != s || got[1] != "z" {
			t.Fatalf("choices = %q, want [%q \"z\"]", got, s)
		}
	}
}

// refParseProg is ParseProg as it was when every parse read its text
// through a 1 MiB bufio.Scanner and split arguments into a slice: the
// reference TestParseMatchesReference holds the in-place parser to. Its
// scanner starts small and grows to the same 1 MiB limit, which keeps the
// old line semantics without zeroing 1 MiB on every call of the test.
func refParseProg(target *Target, text string) (*Prog, error) {
	p := &Prog{}
	sc := bufio.NewScanner(strings.NewReader(text))
	sc.Buffer(nil, 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		c, err := refParseCall(target, line, len(p.Calls))
		if err != nil {
			return nil, fmt.Errorf("dsl: line %d: %w", lineNo, err)
		}
		p.Calls = append(p.Calls, c)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("dsl: scan: %w", err)
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}

func refParseCall(target *Target, line string, idx int) (*Call, error) {
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
	parts, err := refSplitArgs(line[open+1 : len(line)-1])
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	if len(parts) != len(desc.Args) {
		return nil, fmt.Errorf("%s: got %d args, want %d", name, len(parts), len(desc.Args))
	}
	c := &Call{Desc: desc, Args: make([]Arg, len(parts))}
	for i, part := range parts {
		f := desc.Args[i]
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

func refSplitArgs(s string) ([]string, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return nil, nil
	}
	var parts []string
	start := 0
	inQuote := false
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '"':
			if i == 0 || s[i-1] != '\\' {
				inQuote = !inQuote
			}
		case ',':
			if !inQuote {
				parts = append(parts, strings.TrimSpace(s[start:i]))
				start = i + 1
			}
		}
	}
	if inQuote {
		return nil, fmt.Errorf("unterminated quote")
	}
	parts = append(parts, strings.TrimSpace(s[start:]))
	return parts, nil
}

// parseOutcomes counts how the differential cases fell out.
type parseOutcomes struct{ accepted, rejected, fixed int }

// checkAgainstReference parses text with both parsers. Where the reference
// accepts, ParseProg must give the same program; where it rejects,
// ParseProg must fail with the same error. The one allowed difference is a
// text with a backslash, which the reference's quote scanner may reject
// wrongly and ParseProg may then accept.
func checkAgainstReference(t *testing.T, target *Target, text string, out *parseOutcomes) {
	t.Helper()
	want, werr := refParseProg(target, text)
	got, gerr := ParseProg(target, text)
	switch {
	case werr == nil && gerr == nil:
		if got.String() != want.String() {
			t.Fatalf("programs differ for %q:\n got %q\nwant %q", clip(text), got.String(), want.String())
		}
		out.accepted++
	case werr == nil:
		t.Fatalf("reference accepts %q, ParseProg rejects it: %v", clip(text), gerr)
	case gerr == nil:
		if !strings.Contains(text, `\`) {
			t.Fatalf("reference rejects %q (%v), ParseProg accepts it", clip(text), werr)
		}
		out.fixed++
	default:
		if gerr.Error() != werr.Error() && !strings.Contains(text, `\`) {
			t.Fatalf("errors differ for %q:\n got %v\nwant %v", clip(text), gerr, werr)
		}
		out.rejected++
	}
}

// clip shortens a text for a failure message.
func clip(s string) string {
	if len(s) > 300 {
		return s[:300] + "..."
	}
	return s
}

// textVariants returns text as it may arrive from a file or another host:
// with CRLF line ends, without its final newline, and with comment, blank
// and space-padded lines around its calls.
func textVariants(text string, rng *rand.Rand) []string {
	var padded strings.Builder
	for _, line := range strings.SplitAfter(text, "\n") {
		switch rng.Intn(4) {
		case 0:
			padded.WriteString("# comment, \"with\" quotes\n")
		case 1:
			padded.WriteString(" \t\n")
		}
		if line != "" {
			padded.WriteString("  " + line)
		}
	}
	return []string{
		text,
		strings.ReplaceAll(text, "\n", "\r\n"),
		strings.TrimSuffix(text, "\n"),
		padded.String(),
	}
}

// corrupt changes 1-4 bytes of text, drawing half of them from the bytes
// the parser treats specially, and sometimes truncates it.
func corrupt(text string, rng *rand.Rand) string {
	const special = "\"\\,()=#\n\r r"
	b := []byte(text)
	for n := 1 + rng.Intn(4); n > 0 && len(b) > 0; n-- {
		c := byte(rng.Intn(256))
		if rng.Intn(2) == 0 {
			c = special[rng.Intn(len(special))]
		}
		b[rng.Intn(len(b))] = c
	}
	if rng.Intn(3) == 0 {
		b = b[:rng.Intn(len(b)+1)]
	}
	return string(b)
}

// TestParseMatchesReference holds ParseProg to the scanner-based parser it
// replaced, over random valid programs, their CRLF, unterminated, commented
// and corrupted variants, and lines at the 1 MiB limit.
func TestParseMatchesReference(t *testing.T) {
	target := testTarget(t)
	rng := rand.New(rand.NewSource(5))
	var out parseOutcomes
	for i := 0; i < 400; i++ {
		for _, text := range textVariants(randProg(t, target, rng).String(), rng) {
			checkAgainstReference(t, target, text, &out)
			for j := 0; j < 8; j++ {
				checkAgainstReference(t, target, corrupt(text, rng), &out)
			}
		}
	}

	// Raw line lengths either side of the limit, as a call and as a
	// comment, ended by LF, by CRLF and by the end of the text.
	call := `r0 = open$dev(path="/dev/dev0")` + "\n"
	for _, n := range []int{maxLine - 2, maxLine - 1, maxLine, maxLine + 1, maxLine + 2} {
		for _, end := range []string{"\n", "\r\n", ""} {
			prefix := `hal$svc.doThing(handle=nil, name="`
			body := strings.Repeat("a", n-len(prefix)-len(`")`)-len(strings.TrimSuffix(end, "\n")))
			long := prefix + body + `")` + end
			comment := "#" + strings.Repeat("c", n-1-len(strings.TrimSuffix(end, "\n"))) + end
			for _, text := range []string{long, call + long, call + comment, comment + call} {
				checkAgainstReference(t, target, text, &out)
			}
		}
	}
	if _, err := ParseProg(target, strings.Repeat("x", maxLine+1)); err == nil ||
		!strings.Contains(err.Error(), bufio.ErrTooLong.Error()) {
		t.Fatalf("over-long line: err = %v, want a scan error", err)
	}

	t.Logf("accepted %d, rejected %d, backslash cases fixed %d", out.accepted, out.rejected, out.fixed)
	if out.accepted < 1000 || out.rejected < 1000 || out.fixed == 0 {
		t.Fatalf("cases too one-sided to compare the parsers: %+v", out)
	}
}

// refString is Prog.String as it was when it printed through fmt.
func refString(p *Prog) string {
	var b strings.Builder
	for i, c := range p.Calls {
		if c.Desc.Ret != "" {
			fmt.Fprintf(&b, "r%d = ", i)
		}
		b.WriteString(c.Desc.Name)
		b.WriteByte('(')
		for j, f := range c.Desc.Args {
			if j > 0 {
				b.WriteString(", ")
			}
			b.WriteString(f.Name)
			b.WriteByte('=')
			a := c.Args[j]
			switch f.Type.Kind {
			case KindBuffer:
				b.WriteString(`b"` + hex.EncodeToString(a.Data) + `"`)
			case KindString, KindFilename:
				b.WriteString(strconv.Quote(a.Str))
			case KindResource:
				if a.Ref < 0 {
					b.WriteString("nil")
				} else {
					fmt.Fprintf(&b, "r%d", a.Ref)
				}
			default:
				fmt.Fprintf(&b, "%#x", a.Val)
			}
		}
		b.WriteString(")\n")
	}
	return b.String()
}

// TestStringMatchesReference: the canonical text is byte-identical to the
// fmt-printed form that corpus hashes and fingerprints were built on, for
// any argument values, and textLen sizes it exactly when no string needs
// escaping.
func TestStringMatchesReference(t *testing.T) {
	target := testTarget(t)
	write := target.Lookup("write$dev")
	rng := rand.New(rand.NewSource(6))
	for i := 0; i < 500; i++ {
		p := randProg(t, target, rng)
		for j := rng.Intn(3); j > 0; j-- {
			data := make([]byte, rng.Intn(100))
			rng.Read(data)
			p.Calls = append(p.Calls, &Call{Desc: write, Args: []Arg{{Ref: rng.Intn(p.Len())}, {}, {Data: data}}})
		}
		escaped := false
		for _, c := range p.Calls {
			for k, f := range c.Desc.Args {
				a := &c.Args[k]
				switch f.Type.Kind {
				case KindString, KindFilename:
					escaped = escaped || strconv.Quote(a.Str) != `"`+a.Str+`"`
				case KindResource:
					a.Ref = rng.Intn(2000) - 1
				case KindBuffer:
				default:
					a.Val = rng.Uint64() >> rng.Intn(65)
				}
			}
		}
		got, want := p.String(), refString(p)
		if got != want {
			t.Fatalf("String differs from the fmt form:\n got %q\nwant %q", got, want)
		}
		if !escaped && p.textLen() != len(got) {
			t.Fatalf("textLen = %d, text is %d bytes:\n%s", p.textLen(), len(got), got)
		}
	}
}
