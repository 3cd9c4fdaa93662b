package dsl

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// testTarget builds a small target exercising every type kind.
func testTarget(t *testing.T) *Target {
	t.Helper()
	descs := []*CallDesc{
		{
			Name: "open$dev", Class: ClassSyscall, Syscall: "open",
			Args:        []Field{{Name: "path", Type: Filename("/dev/dev0", "/dev/dev1")}},
			Ret:         "fd_dev",
			Weight:      0.3,
			CriticalArg: -1,
		},
		{
			Name: "ioctl$DEV_CMD", Class: ClassSyscall, Syscall: "ioctl",
			Args: []Field{
				{Name: "fd", Type: Resource("fd_dev")},
				{Name: "req", Type: Const(0xbeef)},
				{Name: "mode", Type: Flags(1, 2, 3)},
				{Name: "size", Type: Int(0, 100)},
			},
			Ret:         "dev_handle",
			Weight:      0.5,
			CriticalArg: 1,
		},
		{
			Name: "write$dev", Class: ClassSyscall, Syscall: "write",
			Args: []Field{
				{Name: "fd", Type: Resource("fd_dev")},
				{Name: "n", Type: Len("data")},
				{Name: "data", Type: Buffer(32)},
			},
			Weight:      0.3,
			CriticalArg: -1,
		},
		{
			Name: "hal$svc.doThing", Class: ClassHAL,
			Service: "android.hardware.svc", Method: "doThing", MethodCode: 7,
			Args: []Field{
				{Name: "handle", Type: Resource("dev_handle")},
				{Name: "name", Type: String_("abc")},
			},
			Weight:      0.4,
			CriticalArg: -1,
		},
	}
	target, err := NewTarget(descs...)
	if err != nil {
		t.Fatal(err)
	}
	return target
}

func TestTargetLookupAndProducers(t *testing.T) {
	target := testTarget(t)
	if target.Lookup("open$dev") == nil || target.Lookup("nope") != nil {
		t.Fatal("lookup wrong")
	}
	if len(target.Producers("fd_dev")) != 1 {
		t.Fatal("producers wrong")
	}
	if len(target.SyscallCalls()) != 3 || len(target.HALCalls()) != 1 {
		t.Fatal("class split wrong")
	}
	kinds := target.ResourceKinds()
	if len(kinds) != 2 || kinds[0] != "dev_handle" || kinds[1] != "fd_dev" {
		t.Fatalf("resource kinds = %v", kinds)
	}
}

func TestTargetRejectsDuplicates(t *testing.T) {
	d := &CallDesc{Name: "x", Class: ClassSyscall, Syscall: "open", CriticalArg: -1}
	if _, err := NewTarget(d, d); err == nil {
		t.Fatal("duplicate accepted")
	}
}

func TestDescValidate(t *testing.T) {
	cases := []struct {
		name string
		d    *CallDesc
	}{
		{"empty name", &CallDesc{CriticalArg: -1}},
		{"missing syscall", &CallDesc{Name: "a", Class: ClassSyscall, CriticalArg: -1}},
		{"missing service", &CallDesc{Name: "a", Class: ClassHAL, CriticalArg: -1}},
		{"critical out of range", &CallDesc{Name: "a", Class: ClassSyscall, Syscall: "open", CriticalArg: 5}},
		{"unnamed arg", &CallDesc{Name: "a", Class: ClassSyscall, Syscall: "open", CriticalArg: -1,
			Args: []Field{{Type: Int(0, 1)}}}},
		{"dup arg", &CallDesc{Name: "a", Class: ClassSyscall, Syscall: "open", CriticalArg: -1,
			Args: []Field{{Name: "x", Type: Int(0, 1)}, {Name: "x", Type: Int(0, 1)}}}},
		{"resource without kind", &CallDesc{Name: "a", Class: ClassSyscall, Syscall: "open", CriticalArg: -1,
			Args: []Field{{Name: "x", Type: Type{Kind: KindResource}}}}},
		{"len without buffer", &CallDesc{Name: "a", Class: ClassSyscall, Syscall: "open", CriticalArg: -1,
			Args: []Field{{Name: "n", Type: Len("data")}}}},
	}
	for _, c := range cases {
		if err := c.d.Validate(); err == nil {
			t.Errorf("%s: validation passed, want error", c.name)
		}
	}
}

// buildProg constructs a valid program exercising resource flow.
func buildProg(t *testing.T, target *Target) *Prog {
	t.Helper()
	open := target.Lookup("open$dev")
	ioctl := target.Lookup("ioctl$DEV_CMD")
	hal := target.Lookup("hal$svc.doThing")
	wr := target.Lookup("write$dev")
	p := &Prog{Calls: []*Call{
		{Desc: open, Args: []Arg{{Str: "/dev/dev0"}}},
		{Desc: ioctl, Args: []Arg{{Ref: 0}, {Val: 0xbeef}, {Val: 2}, {Val: 42}}},
		{Desc: hal, Args: []Arg{{Ref: 1}, {Str: "abc"}}},
		{Desc: wr, Args: []Arg{{Ref: 0}, {Val: 3}, {Data: []byte{9, 8, 7}}}},
	}}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	return p
}

func TestProgValidateErrors(t *testing.T) {
	target := testTarget(t)
	p := buildProg(t, target)

	bad := p.Clone()
	bad.Calls[1].Args[0].Ref = 2 // forward reference
	if bad.Validate() == nil {
		t.Fatal("forward ref accepted")
	}

	bad = p.Clone()
	bad.Calls[1].Args[0].Ref = 1 // self/later producer of wrong kind
	if bad.Validate() == nil {
		t.Fatal("wrong-kind ref accepted")
	}

	bad = p.Clone()
	bad.Calls[1].Args[1].Val = 0x1234 // wrong const
	if bad.Validate() == nil {
		t.Fatal("wrong const accepted")
	}

	bad = p.Clone()
	bad.Calls[3].Args[2].Data = make([]byte, 100) // buffer too large
	if bad.Validate() == nil {
		t.Fatal("oversized buffer accepted")
	}
}

func TestSerializeParseRoundTrip(t *testing.T) {
	target := testTarget(t)
	p := buildProg(t, target)
	text := p.String()
	q, err := ParseProg(target, text)
	if err != nil {
		t.Fatalf("parse: %v\n%s", err, text)
	}
	if q.String() != text {
		t.Fatalf("round trip mismatch:\n%s\nvs\n%s", text, q.String())
	}
}

func TestParseErrors(t *testing.T) {
	target := testTarget(t)
	cases := []string{
		`nosuchcall(x=1)`,
		`open$dev(path="/dev/dev0", extra=1)`,
		`open$dev(wrongname="/dev/dev0")`,
		`ioctl$DEV_CMD(fd=r5, req=0xbeef, mode=0x2, size=0x2a)`, // dangling ref
		`open$dev(path="/dev/dev0"`,                             // unterminated
		`r1 = open$dev(path="/dev/dev0")`,                       // wrong label
	}
	for _, text := range cases {
		if _, err := ParseProg(target, text); err == nil {
			t.Errorf("parse accepted %q", text)
		}
	}
}

func TestParseTolerantOfCommentsAndBlanks(t *testing.T) {
	target := testTarget(t)
	text := "# comment\n\nr0 = open$dev(path=\"/dev/dev0\")\n"
	p, err := ParseProg(target, text)
	if err != nil || p.Len() != 1 {
		t.Fatalf("parse: %v", err)
	}
}

func TestRemoveCallRenumbers(t *testing.T) {
	target := testTarget(t)
	p := buildProg(t, target)
	q := p.RemoveCall(0) // drop the open; refs to it become invalid
	if q.Len() != 3 {
		t.Fatalf("len = %d", q.Len())
	}
	if q.Calls[0].Args[0].Ref != -1 {
		t.Fatal("ref to removed call not invalidated")
	}
	if q.Calls[1].Args[0].Ref != 0 { // hal handle ref renumbered 1 -> 0
		t.Fatalf("ref = %d, want 0", q.Calls[1].Args[0].Ref)
	}
	if err := q.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestInsertCallRenumbers(t *testing.T) {
	target := testTarget(t)
	p := buildProg(t, target)
	extra := &Call{Desc: target.Lookup("open$dev"), Args: []Arg{{Str: "/dev/dev1"}}}
	q := p.Clone()
	q.InsertCall(0, extra)
	if q.Len() != 5 {
		t.Fatalf("len = %d", q.Len())
	}
	if q.Calls[2].Args[0].Ref != 1 { // ioctl's fd ref shifted
		t.Fatalf("ref = %d, want 1", q.Calls[2].Args[0].Ref)
	}
	if err := q.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestRandomArgRespectsTypes(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		intType := Int(10, 20)
		for i := 0; i < 50; i++ {
			a := RandomArg(intType, rng)
			if a.Val < 10 || a.Val > 20 {
				return false
			}
		}
		flagType := Flags(5, 6, 7)
		for i := 0; i < 50; i++ {
			a := RandomArg(flagType, rng)
			if a.Val != 5 && a.Val != 6 && a.Val != 7 {
				return false
			}
		}
		bufType := Buffer(16)
		for i := 0; i < 50; i++ {
			if len(RandomArg(bufType, rng).Data) > 16 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestRandomArgHonorsHints(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	ty := Int(0, 1000)
	ty.Hints = []uint64{13}
	exact := 0
	for i := 0; i < 1000; i++ {
		if RandomArg(ty, rng).Val == 13 {
			exact++
		}
	}
	// Half the draws use hints, half of those replay exactly -> ~25%.
	if exact < 150 {
		t.Fatalf("hint replayed only %d/1000 times", exact)
	}
}

func TestFixupLens(t *testing.T) {
	target := testTarget(t)
	c := &Call{Desc: target.Lookup("write$dev"),
		Args: []Arg{{Ref: -1}, {Val: 999}, {Data: []byte{1, 2, 3, 4, 5}}}}
	FixupLens(c)
	if c.Args[1].Val != 5 {
		t.Fatalf("len = %d, want 5", c.Args[1].Val)
	}
}

func TestDefaultArg(t *testing.T) {
	if DefaultArg(Int(7, 9)).Val != 7 {
		t.Fatal("int default wrong")
	}
	if DefaultArg(Flags(4, 5)).Val != 4 {
		t.Fatal("flags default wrong")
	}
	if DefaultArg(Resource("x")).Ref != -1 {
		t.Fatal("resource default wrong")
	}
	if DefaultArg(Filename("/dev/a")).Str != "/dev/a" {
		t.Fatal("filename default wrong")
	}
}

func TestCriticalVal(t *testing.T) {
	target := testTarget(t)
	p := buildProg(t, target)
	v, ok := p.Calls[1].CriticalVal()
	if !ok || v != 0xbeef {
		t.Fatalf("critical = %#x/%v", v, ok)
	}
	if _, ok := p.Calls[0].CriticalVal(); ok {
		t.Fatal("open should have no critical arg")
	}
}

func TestSplitArgsQuoting(t *testing.T) {
	s := `a="x,y", b=1`
	if n, err := countArgs(s); err != nil || n != 2 {
		t.Fatalf("countArgs = %d, %v", n, err)
	}
	first, rest := cutArg(s)
	if first != `a="x,y"` || rest != ` b=1` {
		t.Fatalf("cutArg = %q, %q", first, rest)
	}
	if _, err := countArgs(`a="unterminated`); err == nil {
		t.Fatal("unterminated quote accepted")
	}
}

func TestExtendKeepsOriginal(t *testing.T) {
	target := testTarget(t)
	n := len(target.Calls())
	extra := &CallDesc{Name: "close$dev", Class: ClassSyscall, Syscall: "close",
		Args:        []Field{{Name: "fd", Type: Resource("fd_dev")}},
		CriticalArg: -1}
	ext, err := target.Extend(extra)
	if err != nil {
		t.Fatal(err)
	}
	if len(target.Calls()) != n {
		t.Fatal("original target mutated")
	}
	if ext.Lookup("close$dev") == nil {
		t.Fatal("extension missing")
	}
}
