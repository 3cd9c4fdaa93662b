package dsl

import (
	"fmt"
	"hash/fnv"
	"sort"
)

// Target aggregates all call descriptions available on one device: the
// static syscall descriptions plus the HAL interfaces discovered by the
// probing pass. It is the single source of truth for generation, parsing,
// and the specialized-ID lookup table.
type Target struct {
	calls     []*CallDesc
	byName    map[string]*CallDesc
	index     map[*CallDesc]int      // description -> registration index
	producers map[string][]*CallDesc // resource kind -> producing calls
}

// NewTarget builds a target from the given descriptions. Descriptions must
// be individually valid and have unique names.
func NewTarget(descs ...*CallDesc) (*Target, error) {
	t := &Target{
		byName:    make(map[string]*CallDesc, len(descs)),
		index:     make(map[*CallDesc]int, len(descs)),
		producers: make(map[string][]*CallDesc),
	}
	for _, d := range descs {
		if err := t.add(d); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// MustTarget is NewTarget that panics on error; for static description sets.
func MustTarget(descs ...*CallDesc) *Target {
	t, err := NewTarget(descs...)
	if err != nil {
		panic(err)
	}
	return t
}

func (t *Target) add(d *CallDesc) error {
	if err := d.Validate(); err != nil {
		return err
	}
	if _, dup := t.byName[d.Name]; dup {
		return fmt.Errorf("dsl: duplicate call description %q", d.Name)
	}
	t.index[d] = len(t.calls)
	t.calls = append(t.calls, d)
	t.byName[d.Name] = d
	if d.Ret != "" {
		t.producers[d.Ret] = append(t.producers[d.Ret], d)
	}
	return nil
}

// Extend adds more descriptions (e.g. HAL interfaces after probing),
// returning a new Target; the receiver is unchanged.
func (t *Target) Extend(descs ...*CallDesc) (*Target, error) {
	all := make([]*CallDesc, 0, len(t.calls)+len(descs))
	all = append(all, t.calls...)
	all = append(all, descs...)
	return NewTarget(all...)
}

// Calls returns all descriptions in registration order. The slice must not
// be modified.
func (t *Target) Calls() []*CallDesc { return t.calls }

// Lookup returns the description with the given DSL name, or nil.
func (t *Target) Lookup(name string) *CallDesc { return t.byName[name] }

// Producers returns the calls that produce the given resource kind.
func (t *Target) Producers(res string) []*CallDesc { return t.producers[res] }

// SyscallCalls returns only the ClassSyscall descriptions.
func (t *Target) SyscallCalls() []*CallDesc {
	var out []*CallDesc
	for _, d := range t.calls {
		if d.Class == ClassSyscall {
			out = append(out, d)
		}
	}
	return out
}

// HALCalls returns only the ClassHAL descriptions.
func (t *Target) HALCalls() []*CallDesc {
	var out []*CallDesc
	for _, d := range t.calls {
		if d.Class == ClassHAL {
			out = append(out, d)
		}
	}
	return out
}

// ParamCalls returns only the ClassParam descriptions.
func (t *Target) ParamCalls() []*CallDesc {
	var out []*CallDesc
	for _, d := range t.calls {
		if d.Class == ClassParam {
			out = append(out, d)
		}
	}
	return out
}

// ResourceKinds returns the sorted set of resource kinds with producers.
func (t *Target) ResourceKinds() []string {
	out := make([]string, 0, len(t.producers))
	for k := range t.producers {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Hash fingerprints the target's interface surface: every call description
// in registration order with its class, dispatch identity, weight, and
// argument syntax. Two targets built from the same device model by the same
// probing pass hash identically, so a host-side engine and a remote broker
// can verify during the transport handshake that they agree on the callable
// surface before any program crosses the wire.
func (t *Target) Hash() uint64 {
	h := fnv.New64a()
	for _, d := range t.calls {
		fmt.Fprintf(h, "%s|%d|%s|%s|%s|%d|%s|%s|%g|%d\x00",
			d.Name, d.Class, d.Syscall, d.Service, d.Method, d.MethodCode,
			d.Param, d.Ret, d.Weight, d.CriticalArg)
		for _, f := range d.Args {
			fmt.Fprintf(h, "%s|%d|%d|%d|%d|%s|%s|%d\x1f",
				f.Name, f.Type.Kind, f.Type.Min, f.Type.Max, f.Type.BufLen,
				f.Type.Res, f.Type.LenOf, f.Type.Val)
			for _, c := range f.Type.Choices {
				fmt.Fprintf(h, "%d,", c)
			}
			for _, s := range f.Type.StrChoices {
				fmt.Fprintf(h, "%s,", s)
			}
			// Weights hash only when present, so weight-free targets keep
			// their historical fingerprints.
			for _, w := range f.Type.StrWeights {
				fmt.Fprintf(h, "%g;", w)
			}
		}
	}
	return h.Sum64()
}

// Names returns the sorted DSL names of all calls.
func (t *Target) Names() []string {
	out := make([]string, 0, len(t.calls))
	for _, d := range t.calls {
		out = append(out, d.Name)
	}
	sort.Strings(out)
	return out
}
