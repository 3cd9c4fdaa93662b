// Package dsl implements the domain-specific language DroidFuzz uses to
// describe testable interfaces and test-case programs (paper §IV-A). It is a
// deliberately small cousin of Syzlang: call descriptions carry typed
// argument syntax for both Linux system calls and probed HAL interfaces, and
// programs are sequences of instantiated calls with resource flow between
// them. Programs serialize to a stable text form for the seed corpus.
package dsl

import "fmt"

// Kind enumerates argument type kinds.
type Kind int

const (
	// KindConst is a fixed scalar value (e.g. an ioctl request code).
	KindConst Kind = iota
	// KindInt is an integer uniformly drawn from [Min, Max].
	KindInt
	// KindFlags is a scalar drawn from an explicit choice list.
	KindFlags
	// KindBuffer is a byte buffer of length up to BufLen.
	KindBuffer
	// KindString is a printable string (e.g. a codec name).
	KindString
	// KindFilename is a device path, drawn from StrChoices.
	KindFilename
	// KindResource consumes a value produced by an earlier call (an fd, a
	// HAL-level handle such as a layer or stream id, ...).
	KindResource
	// KindLen is the length of the sibling buffer field named by LenOf.
	KindLen
)

// String names the kind for diagnostics.
func (k Kind) String() string {
	switch k {
	case KindConst:
		return "const"
	case KindInt:
		return "int"
	case KindFlags:
		return "flags"
	case KindBuffer:
		return "buffer"
	case KindString:
		return "string"
	case KindFilename:
		return "filename"
	case KindResource:
		return "resource"
	case KindLen:
		return "len"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Type describes the syntax of one argument. Only the fields relevant to
// Kind are meaningful.
type Type struct {
	Kind       Kind
	Min, Max   uint64   // KindInt range (inclusive)
	Choices    []uint64 // KindFlags values
	BufLen     int      // KindBuffer maximum length
	Res        string   // KindResource resource kind, e.g. "fd_tcpc", "hal_layer"
	StrChoices []string // KindFilename / KindString candidates
	// StrWeights, when parallel to StrChoices, biases KindString draws by
	// probe-observed occurrence weight (the string-knob grammar: values a
	// vendor init script actually writes dominate, the rest stay live).
	// Empty means uniform draws — the historical behavior.
	StrWeights []float64
	Val        uint64 // KindConst value
	LenOf      string // KindLen: name of the buffer field measured
	// Hints are argument values observed in real traffic (the probing
	// pass harvests them from framework→HAL IPC); generation draws from
	// them with small perturbations — the paper's historical payload
	// component.
	Hints []uint64
}

// Field is a named argument slot in a call description.
type Field struct {
	Name string
	Type Type
}

// Const returns a constant-argument type.
func Const(v uint64) Type { return Type{Kind: KindConst, Val: v} }

// Int returns an integer type in [min, max].
func Int(min, max uint64) Type { return Type{Kind: KindInt, Min: min, Max: max} }

// Flags returns a choice-list type.
func Flags(choices ...uint64) Type { return Type{Kind: KindFlags, Choices: choices} }

// Buffer returns a byte-buffer type of at most n bytes.
func Buffer(n int) Type { return Type{Kind: KindBuffer, BufLen: n} }

// String_ returns a string type with optional candidate values.
func String_(choices ...string) Type { return Type{Kind: KindString, StrChoices: choices} }

// Filename returns a device-path type with candidate paths.
func Filename(paths ...string) Type { return Type{Kind: KindFilename, StrChoices: paths} }

// Resource returns a resource-consuming type of the given kind.
func Resource(kind string) Type { return Type{Kind: KindResource, Res: kind} }

// Len returns a length-of type bound to the buffer field named fieldName.
func Len(fieldName string) Type { return Type{Kind: KindLen, LenOf: fieldName} }

// Class distinguishes kernel system calls from HAL interface invocations.
type Class int

const (
	// ClassSyscall is a Linux system call executed by the native executor.
	ClassSyscall Class = iota
	// ClassHAL is a HAL interface invocation executed via Binder by the HAL
	// executor.
	ClassHAL
	// ClassParam is a runtime-parameter write: the native executor opens the
	// sysfs attribute named by Param, writes the value argument in text form,
	// and closes it. Params flip driver behavior without any ioctl, so they
	// form a fuzzing dimension of their own (SyzParam).
	ClassParam
)

// String names the class.
func (c Class) String() string {
	switch c {
	case ClassHAL:
		return "hal"
	case ClassParam:
		return "param"
	default:
		return "syscall"
	}
}

// CallDesc describes one invocable interface: a (possibly specialized)
// system call such as "ioctl$TCPC_SET_MODE", or a probed HAL interface such
// as "hal$graphics.createLayer".
type CallDesc struct {
	// Name is the unique DSL name.
	Name string
	// Class selects the executor.
	Class Class
	// Syscall is the base syscall name for ClassSyscall ("open", "ioctl",
	// "read", "write", "mmap", "close").
	Syscall string
	// Service and Method identify the HAL interface for ClassHAL;
	// MethodCode is the Binder transaction code discovered by probing.
	Service    string
	Method     string
	MethodCode uint32
	// Param is the sysfs attribute path for ClassParam, e.g.
	// "/sys/module/tcpc/parameters/pd_compliance".
	Param string
	// Args is the ordered argument syntax.
	Args []Field
	// Ret names the resource kind this call produces ("" if none).
	Ret string
	// Weight is the static vertex weight used as base-invocation
	// probability mass (paper §IV-C); syscall weights come from
	// descriptions, HAL weights from the probing pass.
	Weight float64
	// CriticalArg indexes the argument used for syscall specialization in
	// the feedback lookup table (paper §IV-D), e.g. the ioctl request;
	// -1 when the call has no critical argument.
	CriticalArg int
}

// IsHAL reports whether the description is a HAL interface.
func (d *CallDesc) IsHAL() bool { return d.Class == ClassHAL }

// String returns the DSL name.
func (d *CallDesc) String() string { return d.Name }

// Validate checks internal consistency of the description.
func (d *CallDesc) Validate() error {
	if d.Name == "" {
		return fmt.Errorf("dsl: call description with empty name")
	}
	if d.Class == ClassSyscall && d.Syscall == "" {
		return fmt.Errorf("dsl: syscall description %q missing base syscall", d.Name)
	}
	if d.Class == ClassHAL && (d.Service == "" || d.Method == "") {
		return fmt.Errorf("dsl: HAL description %q missing service/method", d.Name)
	}
	if d.Class == ClassParam {
		if d.Param == "" {
			return fmt.Errorf("dsl: param description %q missing sysfs path", d.Name)
		}
		if len(d.Args) != 1 {
			return fmt.Errorf("dsl: param description %q must take exactly one value argument", d.Name)
		}
	}
	if d.CriticalArg >= len(d.Args) {
		return fmt.Errorf("dsl: %q critical arg %d out of range", d.Name, d.CriticalArg)
	}
	names := make(map[string]bool, len(d.Args))
	for i, f := range d.Args {
		if f.Name == "" {
			return fmt.Errorf("dsl: %q arg %d unnamed", d.Name, i)
		}
		if names[f.Name] {
			return fmt.Errorf("dsl: %q duplicate arg name %q", d.Name, f.Name)
		}
		names[f.Name] = true
		if f.Type.Kind == KindResource && f.Type.Res == "" {
			return fmt.Errorf("dsl: %q arg %q resource without kind", d.Name, f.Name)
		}
		if f.Type.Kind == KindLen {
			if f.Type.LenOf == "" {
				return fmt.Errorf("dsl: %q arg %q len without target", d.Name, f.Name)
			}
			found := false
			for _, g := range d.Args {
				if g.Name == f.Type.LenOf && g.Type.Kind == KindBuffer {
					found = true
					break
				}
			}
			if !found {
				return fmt.Errorf("dsl: %q arg %q len target %q is not a buffer field",
					d.Name, f.Name, f.Type.LenOf)
			}
		}
	}
	return nil
}
