package dsl

import (
	"math/rand"
	"testing"
	"testing/quick"

	// The property tests build random-but-valid programs by hand; they
	// deliberately avoid importing the generator to keep dsl leaf-level.
	_ "embed"
)

// randProg builds a random valid program over the test target: opens,
// ioctls referencing earlier opens, then HAL calls on ioctl handles with
// random string arguments.
func randProg(t *testing.T, target *Target, rng *rand.Rand) *Prog {
	t.Helper()
	p := &Prog{}
	nOpens := 1 + rng.Intn(3)
	for i := 0; i < nOpens; i++ {
		d := target.Lookup("open$dev")
		p.Calls = append(p.Calls, &Call{Desc: d, Args: []Arg{RandomArg(d.Args[0].Type, rng)}})
	}
	nCalls := rng.Intn(8)
	for i := 0; i < nCalls; i++ {
		d := target.Lookup("ioctl$DEV_CMD")
		c := &Call{Desc: d, Args: make([]Arg, len(d.Args))}
		for j, f := range d.Args {
			c.Args[j] = RandomArg(f.Type, rng)
		}
		// Link fd to a random earlier open.
		c.Args[0].Ref = rng.Intn(nOpens)
		p.Calls = append(p.Calls, c)
	}
	for i := rng.Intn(3); i > 0; i-- {
		d := target.Lookup("hal$svc.doThing")
		// The handle comes from a random ioctl, if there is one.
		handle := -1
		if nCalls > 0 {
			handle = nOpens + rng.Intn(nCalls)
		}
		p.Calls = append(p.Calls, &Call{Desc: d, Args: []Arg{{Ref: handle}, {Str: randStr(rng)}}})
	}
	if err := p.Validate(); err != nil {
		t.Fatalf("randProg built invalid program: %v", err)
	}
	return p
}

// randStr draws a short string heavy in the bytes the text form must quote,
// escape or split on: backslash, double quote, comma and newline.
func randStr(rng *rand.Rand) string {
	const alphabet = "ab\\\",=() \n"
	b := make([]byte, rng.Intn(7))
	for i := range b {
		b[i] = alphabet[rng.Intn(len(alphabet))]
	}
	return string(b)
}

// TestRemoveInsertPreserveValidity: any single remove or insert on a valid
// program yields a valid program.
func TestRemoveInsertPreserveValidity(t *testing.T) {
	target := testTarget(t)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := randProg(t, target, rng)
		for i := 0; i < p.Len(); i++ {
			if err := p.RemoveCall(i).Validate(); err != nil {
				t.Logf("remove %d: %v", i, err)
				return false
			}
		}
		d := target.Lookup("open$dev")
		extra := &Call{Desc: d, Args: []Arg{DefaultArg(d.Args[0].Type)}}
		for i := 0; i <= p.Len(); i++ {
			q := p.Clone()
			q.InsertCall(i, extra.Clone())
			if err := q.Validate(); err != nil {
				t.Logf("insert %d: %v", i, err)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestInsertThenRemoveRoundTrip: inserting a call and removing it at the
// same index restores the original canonical text.
func TestInsertThenRemoveRoundTrip(t *testing.T) {
	target := testTarget(t)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := randProg(t, target, rng)
		before := p.String()
		d := target.Lookup("open$dev")
		extra := &Call{Desc: d, Args: []Arg{DefaultArg(d.Args[0].Type)}}
		idx := rng.Intn(p.Len() + 1)
		q := p.Clone()
		q.InsertCall(idx, extra)
		if q.Len() != p.Len()+1 || p.String() != before {
			return false // the insert grew the clone and left p alone
		}
		return q.RemoveCall(idx).String() == before
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestSerializeParseAlwaysRoundTrips over randomly built programs.
func TestSerializeParseAlwaysRoundTrips(t *testing.T) {
	target := testTarget(t)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := randProg(t, target, rng)
		text := p.String()
		q, err := ParseProg(target, text)
		if err != nil {
			t.Logf("parse: %v\n%s", err, text)
			return false
		}
		return q.String() == text
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestCloneIsDeep: mutating a clone never changes the original.
func TestCloneIsDeep(t *testing.T) {
	target := testTarget(t)
	rng := rand.New(rand.NewSource(11))
	p := randProg(t, target, rng)
	before := p.String()
	q := p.Clone()
	for _, c := range q.Calls {
		for i := range c.Args {
			c.Args[i].Val = 0xffff
			c.Args[i].Str = "mutated"
			if len(c.Args[i].Data) > 0 {
				c.Args[i].Data[0] ^= 0xff
			}
		}
	}
	if p.String() != before {
		t.Fatal("clone shares memory with original")
	}
}

// TestParseNeverPanics: corrupted program text must fail cleanly, never
// panic (corpus files may be hand-edited or truncated).
func TestParseNeverPanics(t *testing.T) {
	target := testTarget(t)
	rng := rand.New(rand.NewSource(3))
	base := randProg(t, target, rng).String()
	for i := 0; i < 2000; i++ {
		b := []byte(base)
		// Corrupt 1-4 random bytes and/or truncate.
		for n := 1 + rng.Intn(4); n > 0; n-- {
			b[rng.Intn(len(b))] = byte(rng.Intn(256))
		}
		if rng.Intn(3) == 0 {
			b = b[:rng.Intn(len(b)+1)]
		}
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("panic on corrupted input: %v\n%q", r, b)
				}
			}()
			ParseProg(target, string(b))
		}()
	}
}

// TestParseDescsNeverPanics applies the same to description files.
func TestParseDescsNeverPanics(t *testing.T) {
	target := testTarget(t)
	base := FormatDescs(target.Calls())
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 2000; i++ {
		b := []byte(base)
		for n := 1 + rng.Intn(4); n > 0; n-- {
			b[rng.Intn(len(b))] = byte(rng.Intn(256))
		}
		if rng.Intn(3) == 0 {
			b = b[:rng.Intn(len(b)+1)]
		}
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("panic on corrupted descs: %v\n%q", r, b)
				}
			}()
			ParseDescs(string(b))
		}()
	}
}
