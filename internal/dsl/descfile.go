package dsl

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// Description files are the persistent text form of call descriptions — the
// Syzlang-lite counterpart of syzkaller's .txt descriptions. The probing
// pass's output can be saved and reloaded, so a device needs probing only
// once per firmware. One description per line:
//
//	syscall ioctl$TCPC_SET_MODE = ioctl(fd resource[fd_tcpc], req const[0xa102], mode flags[0x0,0x1,0x2,0x3]) crit=1 weight=0.70
//	hal hal$usb.setPortRole = android.hardware.usb::setPortRole[1](role flags[0x0,0x1,0x2,0x3]) weight=0.50
//	hal hal$graphics.composer.createLayer = android.hardware.graphics.composer::createLayer[1](width int[0x1:0x1000], height int[0x1:0x1000], format flags[0x1,0x2,0x3]) -> hal_layer weight=0.90
//	param param$tcpc.pd_compliance = /sys/module/tcpc/parameters/pd_compliance(value int[0x0:0x1]) crit=0 weight=0.30
//
// Argument types: const[v], int[min:max] (optionally int[min:max,hint=a,b]),
// flags[a,b,...], buffer[n], string["a","b"], filename["/dev/x"],
// resource[kind], len[field].

// FormatDescs renders descriptions to the text form, sorted by name for
// stable output.
func FormatDescs(descs []*CallDesc) string {
	sorted := make([]*CallDesc, len(descs))
	copy(sorted, descs)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Name < sorted[j].Name })
	var b strings.Builder
	for _, d := range sorted {
		b.WriteString(formatDesc(d))
		b.WriteByte('\n')
	}
	return b.String()
}

func formatDesc(d *CallDesc) string {
	var b strings.Builder
	switch {
	case d.IsHAL():
		fmt.Fprintf(&b, "hal %s = %s::%s[%d](", d.Name, d.Service, d.Method, d.MethodCode)
	case d.Class == ClassParam:
		fmt.Fprintf(&b, "param %s = %s(", d.Name, d.Param)
	default:
		fmt.Fprintf(&b, "syscall %s = %s(", d.Name, d.Syscall)
	}
	for i, f := range d.Args {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(f.Name)
		b.WriteByte(' ')
		b.WriteString(formatType(f.Type))
	}
	b.WriteString(")")
	if d.Ret != "" {
		b.WriteString(" -> " + d.Ret)
	}
	if d.CriticalArg >= 0 {
		fmt.Fprintf(&b, " crit=%d", d.CriticalArg)
	}
	fmt.Fprintf(&b, " weight=%.2f", d.Weight)
	return b.String()
}

func formatType(t Type) string {
	switch t.Kind {
	case KindConst:
		return fmt.Sprintf("const[%#x]", t.Val)
	case KindInt:
		s := fmt.Sprintf("int[%#x:%#x", t.Min, t.Max)
		if len(t.Hints) > 0 {
			s += ",hint=" + joinHex(t.Hints)
		}
		return s + "]"
	case KindFlags:
		return "flags[" + joinHex(t.Choices) + "]"
	case KindBuffer:
		return fmt.Sprintf("buffer[%d]", t.BufLen)
	case KindString:
		return "string[" + joinQuoted(t.StrChoices) + "]"
	case KindFilename:
		return "filename[" + joinQuoted(t.StrChoices) + "]"
	case KindResource:
		return "resource[" + t.Res + "]"
	case KindLen:
		return "len[" + t.LenOf + "]"
	default:
		return fmt.Sprintf("unknown[%d]", int(t.Kind))
	}
}

func joinHex(vs []uint64) string {
	parts := make([]string, len(vs))
	for i, v := range vs {
		parts[i] = fmt.Sprintf("%#x", v)
	}
	return strings.Join(parts, ",")
}

func joinQuoted(ss []string) string {
	parts := make([]string, len(ss))
	for i, s := range ss {
		parts[i] = strconv.Quote(s)
	}
	return strings.Join(parts, ",")
}

// ParseDescs parses a description file back into call descriptions.
func ParseDescs(text string) ([]*CallDesc, error) {
	var out []*CallDesc
	ls := lines{rest: text}
	for ls.next() {
		d, err := parseDescLine(ls.line)
		if err != nil {
			return nil, fmt.Errorf("dsl: descs line %d: %w", ls.no, err)
		}
		out = append(out, d)
	}
	if ls.err != nil {
		return nil, fmt.Errorf("dsl: descs scan: %w", ls.err)
	}
	return out, nil
}

func parseDescLine(line string) (*CallDesc, error) {
	d := &CallDesc{CriticalArg: -1, Weight: 0.5}
	var head string
	switch {
	case strings.HasPrefix(line, "syscall "):
		d.Class = ClassSyscall
		head = strings.TrimPrefix(line, "syscall ")
	case strings.HasPrefix(line, "hal "):
		d.Class = ClassHAL
		head = strings.TrimPrefix(line, "hal ")
	case strings.HasPrefix(line, "param "):
		d.Class = ClassParam
		head = strings.TrimPrefix(line, "param ")
	default:
		return nil, fmt.Errorf("unknown description class in %q", line)
	}
	eq := strings.Index(head, " = ")
	if eq < 0 {
		return nil, fmt.Errorf("missing '=' in %q", line)
	}
	d.Name = strings.TrimSpace(head[:eq])
	rest := strings.TrimSpace(head[eq+3:])

	open := strings.Index(rest, "(")
	if open < 0 {
		return nil, fmt.Errorf("missing '(' in %q", line)
	}
	callee := rest[:open]
	if d.Class == ClassHAL {
		// service::method[code]
		sep := strings.Index(callee, "::")
		if sep < 0 {
			return nil, fmt.Errorf("HAL callee %q missing '::'", callee)
		}
		d.Service = callee[:sep]
		mpart := callee[sep+2:]
		lb := strings.Index(mpart, "[")
		if lb < 0 || !strings.HasSuffix(mpart, "]") {
			return nil, fmt.Errorf("HAL method %q missing [code]", mpart)
		}
		d.Method = mpart[:lb]
		code, err := strconv.ParseUint(mpart[lb+1:len(mpart)-1], 0, 32)
		if err != nil {
			return nil, fmt.Errorf("HAL code: %w", err)
		}
		d.MethodCode = uint32(code)
	} else if d.Class == ClassParam {
		d.Param = callee
	} else {
		d.Syscall = callee
	}

	close_ := matchParen(rest, open)
	if close_ < 0 {
		return nil, fmt.Errorf("unbalanced parens in %q", line)
	}
	argText := rest[open+1 : close_]
	if strings.TrimSpace(argText) != "" {
		for _, part := range splitTopLevel(argText) {
			f, err := parseField(strings.TrimSpace(part))
			if err != nil {
				return nil, err
			}
			d.Args = append(d.Args, f)
		}
	}

	// Trailer: [-> ret] [crit=N] [weight=F]
	for _, tok := range strings.Fields(rest[close_+1:]) {
		switch {
		case tok == "->":
			// handled with next token via index scan below
		case strings.HasPrefix(tok, "crit="):
			n, err := strconv.Atoi(tok[5:])
			if err != nil {
				return nil, fmt.Errorf("crit: %w", err)
			}
			d.CriticalArg = n
		case strings.HasPrefix(tok, "weight="):
			w, err := strconv.ParseFloat(tok[7:], 64)
			if err != nil {
				return nil, fmt.Errorf("weight: %w", err)
			}
			d.Weight = w
		default:
			// The token following "->".
			d.Ret = tok
		}
	}
	if err := d.Validate(); err != nil {
		return nil, err
	}
	return d, nil
}

// matchParen returns the index of the ')' matching the '(' at open,
// honoring double-quoted segments.
func matchParen(s string, open int) int {
	depth := 0
	for i := open; i < len(s); i++ {
		switch s[i] {
		case '"':
			if i = quoteEnd(s, i); i < 0 {
				return -1
			}
		case '(':
			depth++
		case ')':
			depth--
			if depth == 0 {
				return i
			}
		}
	}
	return -1
}

// splitTopLevel splits on commas outside brackets and quotes. An
// unterminated quote runs to the end of s, inside the last part.
func splitTopLevel(s string) []string {
	var parts []string
	depth := 0
	start := 0
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '"':
			if i = quoteEnd(s, i); i < 0 {
				i = len(s)
			}
		case '[', '(':
			depth++
		case ']', ')':
			depth--
		case ',':
			if depth == 0 {
				parts = append(parts, s[start:i])
				start = i + 1
			}
		}
	}
	parts = append(parts, s[start:])
	return parts
}

func parseField(s string) (Field, error) {
	sp := strings.IndexByte(s, ' ')
	if sp < 0 {
		return Field{}, fmt.Errorf("field %q missing type", s)
	}
	name := s[:sp]
	ty, err := parseType(strings.TrimSpace(s[sp+1:]))
	if err != nil {
		return Field{}, fmt.Errorf("field %q: %w", name, err)
	}
	return Field{Name: name, Type: ty}, nil
}

func parseType(s string) (Type, error) {
	lb := strings.Index(s, "[")
	if lb < 0 || !strings.HasSuffix(s, "]") {
		return Type{}, fmt.Errorf("type %q not of form kind[...]", s)
	}
	kind := s[:lb]
	body := s[lb+1 : len(s)-1]
	switch kind {
	case "const":
		v, err := strconv.ParseUint(body, 0, 64)
		if err != nil {
			return Type{}, err
		}
		return Const(v), nil
	case "int":
		main := body
		var hints []uint64
		if h := strings.Index(body, ",hint="); h >= 0 {
			main = body[:h]
			var err error
			hints, err = parseHexList(body[h+6:])
			if err != nil {
				return Type{}, err
			}
		}
		colon := strings.Index(main, ":")
		if colon < 0 {
			return Type{}, fmt.Errorf("int %q missing ':'", main)
		}
		min, err := strconv.ParseUint(strings.TrimSpace(main[:colon]), 0, 64)
		if err != nil {
			return Type{}, err
		}
		max, err := strconv.ParseUint(strings.TrimSpace(main[colon+1:]), 0, 64)
		if err != nil {
			return Type{}, err
		}
		t := Int(min, max)
		t.Hints = hints
		return t, nil
	case "flags":
		vs, err := parseHexList(body)
		if err != nil {
			return Type{}, err
		}
		return Flags(vs...), nil
	case "buffer":
		n, err := strconv.Atoi(body)
		if err != nil {
			return Type{}, err
		}
		return Buffer(n), nil
	case "string":
		ss, err := parseQuotedList(body)
		if err != nil {
			return Type{}, err
		}
		return String_(ss...), nil
	case "filename":
		ss, err := parseQuotedList(body)
		if err != nil {
			return Type{}, err
		}
		return Filename(ss...), nil
	case "resource":
		return Resource(body), nil
	case "len":
		return Len(body), nil
	default:
		return Type{}, fmt.Errorf("unknown type kind %q", kind)
	}
}

func parseHexList(s string) ([]uint64, error) {
	if strings.TrimSpace(s) == "" {
		return nil, nil
	}
	var out []uint64
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.ParseUint(strings.TrimSpace(part), 0, 64)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

func parseQuotedList(s string) ([]string, error) {
	if strings.TrimSpace(s) == "" {
		return nil, nil
	}
	var out []string
	for _, part := range splitTopLevel(s) {
		str, err := strconv.Unquote(strings.TrimSpace(part))
		if err != nil {
			return nil, err
		}
		out = append(out, str)
	}
	return out, nil
}
