package dsl

import (
	"fmt"
	"math/rand"
)

// Arg is one instantiated argument. Exactly one of the value fields is
// meaningful, selected by the corresponding field's Kind:
//
//	Const/Int/Flags/Len -> Val
//	Buffer              -> Data
//	String/Filename     -> Str
//	Resource            -> Ref (producing call index, or -1 for an invalid
//	                       handle, which executors pass through as a bogus
//	                       value to also exercise error paths)
type Arg struct {
	Val  uint64
	Data []byte
	Str  string
	Ref  int
}

// Clone deep-copies the argument.
func (a Arg) Clone() Arg {
	c := a
	if a.Data != nil {
		c.Data = append([]byte(nil), a.Data...)
	}
	return c
}

// Call is one instantiated invocation in a program.
type Call struct {
	Desc *CallDesc
	Args []Arg
}

// Clone deep-copies the call (the description is shared).
func (c *Call) Clone() *Call {
	n := &Call{Desc: c.Desc, Args: make([]Arg, len(c.Args))}
	for i, a := range c.Args {
		n.Args[i] = a.Clone()
	}
	return n
}

// CriticalVal returns the value of the call's critical argument and true,
// or 0 and false if the call has none. Used to build the specialized
// syscall-ID lookup table (paper §IV-D).
func (c *Call) CriticalVal() (uint64, bool) {
	if c.Desc.CriticalArg < 0 || c.Desc.CriticalArg >= len(c.Args) {
		return 0, false
	}
	return c.Args[c.Desc.CriticalArg].Val, true
}

// Prog is a test case: an ordered sequence of calls with resource flow.
type Prog struct {
	Calls []*Call
}

// Clone deep-copies the program.
func (p *Prog) Clone() *Prog {
	// Cloning runs on the mutation hot path, so the calls and their
	// argument slots are batch-allocated in two backing arrays instead of
	// one Call + one []Arg per call. Each call's Args is capacity-capped to
	// its own region: appending to one cloned call cannot bleed into the
	// next call's slots.
	n := &Prog{Calls: make([]*Call, len(p.Calls))}
	calls := make([]Call, len(p.Calls))
	total := 0
	for _, c := range p.Calls {
		total += len(c.Args)
	}
	args := make([]Arg, 0, total)
	for i, c := range p.Calls {
		start := len(args)
		for _, a := range c.Args {
			args = append(args, a.Clone())
		}
		calls[i] = Call{Desc: c.Desc, Args: args[start:len(args):len(args)]}
		n.Calls[i] = &calls[i]
	}
	return n
}

// Len returns the number of calls.
func (p *Prog) Len() int { return len(p.Calls) }

// Validate checks that every call's arguments match its description and that
// every resource reference points to an earlier call producing the right
// resource kind (or is -1, an intentionally invalid handle).
func (p *Prog) Validate() error {
	for i, c := range p.Calls {
		if c.Desc == nil {
			return fmt.Errorf("dsl: call %d has nil description", i)
		}
		if len(c.Args) != len(c.Desc.Args) {
			return fmt.Errorf("dsl: call %d (%s) has %d args, want %d",
				i, c.Desc.Name, len(c.Args), len(c.Desc.Args))
		}
		for j := range c.Desc.Args {
			f, a := &c.Desc.Args[j], &c.Args[j]
			switch f.Type.Kind {
			case KindResource:
				if a.Ref == -1 {
					continue
				}
				if a.Ref < 0 || a.Ref >= i {
					return fmt.Errorf("dsl: call %d (%s) arg %q refs call %d (out of range)",
						i, c.Desc.Name, f.Name, a.Ref)
				}
				prod := p.Calls[a.Ref]
				if prod.Desc.Ret != f.Type.Res {
					return fmt.Errorf("dsl: call %d (%s) arg %q wants resource %q, call %d produces %q",
						i, c.Desc.Name, f.Name, f.Type.Res, a.Ref, prod.Desc.Ret)
				}
			case KindBuffer:
				if len(a.Data) > f.Type.BufLen && f.Type.BufLen > 0 {
					return fmt.Errorf("dsl: call %d (%s) arg %q buffer len %d exceeds %d",
						i, c.Desc.Name, f.Name, len(a.Data), f.Type.BufLen)
				}
			case KindConst:
				if a.Val != f.Type.Val {
					return fmt.Errorf("dsl: call %d (%s) arg %q const %#x, want %#x",
						i, c.Desc.Name, f.Name, a.Val, f.Type.Val)
				}
			}
		}
	}
	return nil
}

// RemoveCall returns a copy of the program with call idx removed. Resource
// references to the removed call become invalid (-1); references to later
// calls are renumbered. Used by minimization.
func (p *Prog) RemoveCall(idx int) *Prog {
	n := &Prog{Calls: make([]*Call, 0, len(p.Calls)-1)}
	for i, c := range p.Calls {
		if i == idx {
			continue
		}
		nc := c.Clone()
		for j := range nc.Args {
			if nc.Desc.Args[j].Type.Kind != KindResource {
				continue
			}
			switch {
			case nc.Args[j].Ref == idx:
				nc.Args[j].Ref = -1
			case nc.Args[j].Ref > idx:
				nc.Args[j].Ref--
			}
		}
		n.Calls = append(n.Calls, nc)
	}
	return n
}

// InsertCall inserts call c at idx (clamped to 0..len) in place.
// Resource references at or beyond idx are renumbered, so the program
// must be one the caller owns: a clone or a freshly generated one, never
// shared corpus storage. References held by c itself must already be
// valid for the new layout.
func (p *Prog) InsertCall(idx int, c *Call) {
	idx = max(0, min(idx, len(p.Calls)))
	p.Calls = append(p.Calls, nil)
	copy(p.Calls[idx+1:], p.Calls[idx:])
	p.Calls[idx] = c
	for _, nc := range p.Calls[idx+1:] {
		for j := range nc.Args {
			if nc.Desc.Args[j].Type.Kind == KindResource && nc.Args[j].Ref >= idx {
				nc.Args[j].Ref++
			}
		}
	}
}

// DefaultArg produces a deterministic minimal argument for the field type:
// the range minimum, first flag choice, empty buffer, first string choice,
// or an invalid resource reference.
func DefaultArg(t Type) Arg {
	switch t.Kind {
	case KindConst:
		return Arg{Val: t.Val}
	case KindInt:
		return Arg{Val: t.Min}
	case KindFlags:
		if len(t.Choices) > 0 {
			return Arg{Val: t.Choices[0]}
		}
		return Arg{}
	case KindBuffer:
		return Arg{Data: []byte{}}
	case KindString, KindFilename:
		if len(t.StrChoices) > 0 {
			return Arg{Str: t.StrChoices[0]}
		}
		return Arg{Str: ""}
	case KindResource:
		return Arg{Ref: -1}
	case KindLen:
		return Arg{}
	default:
		return Arg{}
	}
}

// RandomArg draws a random argument for the field type from rng. Length
// fields are fixed up afterwards by FixupLens.
func RandomArg(t Type, rng *rand.Rand) Arg {
	switch t.Kind {
	case KindConst:
		return Arg{Val: t.Val}
	case KindInt:
		if len(t.Hints) > 0 && rng.Intn(2) == 0 {
			// Replay an observed value — exactly half the time, else
			// perturbed by ±1 so nearby semantic variants (e.g. the
			// other rotation parity) are explored too.
			v := t.Hints[rng.Intn(len(t.Hints))]
			if rng.Intn(2) == 0 {
				v += uint64(rng.Intn(3))
				if v >= 1 {
					v--
				}
			}
			if v >= t.Min && v <= t.Max {
				return Arg{Val: v}
			}
		}
		if t.Max <= t.Min {
			return Arg{Val: t.Min}
		}
		span := t.Max - t.Min + 1
		return Arg{Val: t.Min + uint64(rng.Int63n(int64(span)))}
	case KindFlags:
		if len(t.Choices) == 0 {
			return Arg{Val: uint64(rng.Uint32())}
		}
		return Arg{Val: t.Choices[rng.Intn(len(t.Choices))]}
	case KindBuffer:
		max := t.BufLen
		if max <= 0 {
			max = 64
		}
		n := rng.Intn(max + 1)
		b := make([]byte, n)
		rng.Read(b)
		return Arg{Data: b}
	case KindString:
		if len(t.StrWeights) == len(t.StrChoices) && len(t.StrChoices) > 0 {
			return weightedStringArg(t, rng)
		}
		if len(t.StrChoices) > 0 && rng.Intn(4) != 0 {
			return Arg{Str: t.StrChoices[rng.Intn(len(t.StrChoices))]}
		}
		n := rng.Intn(12) + 1
		b := make([]byte, n)
		for i := range b {
			b[i] = byte('a' + rng.Intn(26))
		}
		return Arg{Str: string(b)}
	case KindFilename:
		if len(t.StrChoices) == 0 {
			return Arg{Str: "/dev/null"}
		}
		return Arg{Str: t.StrChoices[rng.Intn(len(t.StrChoices))]}
	case KindResource:
		return Arg{Ref: -1}
	case KindLen:
		return Arg{}
	default:
		return Arg{}
	}
}

// weightedStringArg draws a string choice by probe-observed weight, then
// occasionally applies a grammar-adjacent mutation — a single byte flip or
// a splice with another weighted choice — so generation concentrates on
// the values real init traffic writes while still probing the parser
// around them. Only types whose probing pass attached weights take this
// path, so weight-free targets replay bit-identically to historical seeds.
func weightedStringArg(t Type, rng *rand.Rand) Arg {
	s := t.StrChoices[weightedIndex(t.StrWeights, rng)]
	switch rng.Intn(8) {
	case 0:
		if len(s) > 0 {
			b := []byte(s)
			b[rng.Intn(len(b))] ^= byte(1 << uint(rng.Intn(8)))
			s = string(b)
		}
	case 1:
		d := t.StrChoices[weightedIndex(t.StrWeights, rng)]
		s = s[:rng.Intn(len(s)+1)] + d[rng.Intn(len(d)+1):]
	}
	return Arg{Str: s}
}

// weightedIndex draws an index with probability proportional to w. Probe
// normalization keeps every weight positive; a degenerate all-zero slice
// falls back to a uniform draw.
func weightedIndex(w []float64, rng *rand.Rand) int {
	total := 0.0
	for _, v := range w {
		total += v
	}
	if total <= 0 {
		return rng.Intn(len(w))
	}
	x := rng.Float64() * total
	for i, v := range w {
		x -= v
		if x <= 0 {
			return i
		}
	}
	return len(w) - 1
}

// FixupLens recomputes every KindLen argument of the call from the current
// length of its target buffer field.
func FixupLens(c *Call) {
	for i, f := range c.Desc.Args {
		if f.Type.Kind != KindLen {
			continue
		}
		for j, g := range c.Desc.Args {
			if g.Name == f.Type.LenOf {
				c.Args[i].Val = uint64(len(c.Args[j].Data))
				break
			}
		}
	}
}
