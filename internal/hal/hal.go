// Package hal implements the vendor HAL service layer of the virtual
// devices. Each service is a stateful, "closed-source" module: the fuzzer
// never inspects its internals, only its Binder surface (discovered by the
// probing pass) and the kernel syscall trace it produces (observed via the
// eBPF layer). Services translate high-level interface invocations into
// realistic multi-step syscall sequences against the kernel drivers, which
// is precisely the behavior that makes joint HAL+kernel fuzzing reach
// driver states a syscall-only fuzzer cannot (paper §III).
//
// Three services carry the injected Table II HAL bugs (№2 graphics,
// №6 media, №9 camera), modeled as native crashes: the service panics, the
// hosting Process recovers, marks itself dead, and reports the crash.
package hal

import (
	"fmt"
	"sync"

	"droidfuzz/internal/binder"
	"droidfuzz/internal/snap"
	"droidfuzz/internal/vkernel"
)

// Sys is the syscall facade a HAL service process uses: every call enters
// the kernel tagged with the service's PID and OriginHAL, which is what the
// cross-boundary feedback observes.
type Sys struct {
	K   *vkernel.Kernel
	PID int
}

// Open opens a device path.
func (s *Sys) Open(path string, flags uint64) (int, error) {
	return s.K.Open(s.PID, vkernel.OriginHAL, path, flags)
}

// Close releases an fd.
func (s *Sys) Close(fd int) error {
	return s.K.Close(s.PID, vkernel.OriginHAL, fd)
}

// Ioctl issues an ioctl.
func (s *Sys) Ioctl(fd int, req uint64, arg []byte) (uint64, []byte, error) {
	return s.K.Ioctl(s.PID, vkernel.OriginHAL, fd, req, arg)
}

// Read reads from an fd.
func (s *Sys) Read(fd int, n int) ([]byte, error) {
	return s.K.Read(s.PID, vkernel.OriginHAL, fd, n)
}

// Write writes to an fd.
func (s *Sys) Write(fd int, p []byte) (int, error) {
	return s.K.Write(s.PID, vkernel.OriginHAL, fd, p)
}

// Mmap maps device memory.
func (s *Sys) Mmap(fd int, length uint64) (uint64, error) {
	return s.K.Mmap(s.PID, vkernel.OriginHAL, fd, length)
}

// Val is one decoded transaction argument; the populated field follows the
// method signature's Kind.
type Val struct {
	U uint64
	B []byte
	S string
}

// handler runs one decoded transaction on the receiving instance self. A
// non-OK status maps to a Binder error reply; panicking models a native
// crash in the service.
type handler func(self any, in []Val, reply *binder.Parcel) binder.Status

// table is a service type's immutable transaction table, built once at
// package init and shared by every process of the type, like the compiled
// stub of a real HAL. Transaction codes are assigned sequentially from 1
// in registration order, as AIDL-generated stubs number their
// transactions, so sigs[code-1] and handlers[code-1] serve code, and sigs
// is the reflection reply.
type table struct {
	descriptor string
	label      string // human label: "Graphics", "Media", ...
	sigs       []binder.MethodSig
	handlers   []handler
}

// op pairs a method signature with its handler, written as a method
// expression such as (*Graphics).createLayer.
type op[S any] struct {
	sig binder.MethodSig
	h   func(s *S, in []Val, reply *binder.Parcel) binder.Status
}

// newTable builds the transaction table of service type S: its own
// methods in order, then the diagnostic surface every AIDL service ships.
func newTable[S any](descriptor, label string, ops []op[S]) *table {
	t := &table{descriptor: descriptor, label: label}
	for _, o := range ops {
		h := o.h
		t.add(o.sig, func(self any, in []Val, reply *binder.Parcel) binder.Status {
			return h(self.(*S), in, reply)
		})
	}
	t.addDiagnostics()
	return t
}

func (t *table) add(sig binder.MethodSig, h handler) {
	sig.Code = uint32(len(t.sigs) + 1)
	t.sigs = append(t.sigs, sig)
	t.handlers = append(t.handlers, h)
}

// addDiagnostics adds the boilerplate getter surface every AIDL service
// ships — version, capability, statistics and dump entry points that parse
// trivially and reach no driver code. Like the legacy ioctls on the kernel
// side, they model the dead weight of real interface lists: occurrence
// weighting assigns them the floor weight because no framework workload
// ever calls them.
func (t *table) addDiagnostics() {
	stub := func(v uint64) handler {
		return func(_ any, _ []Val, reply *binder.Parcel) binder.Status {
			reply.WriteUint64(v)
			return binder.StatusOK
		}
	}
	t.add(sig("getInterfaceVersion", ""), stub(2))
	t.add(sig("getCapabilities", ""), stub(0x1f))
	t.add(sig("getStatistics", "",
		argInt("counter", 0, 15)), stub(0))
	t.add(sig("debugDump", "",
		argInt("verbosity", 0, 3)), stub(1))
}

// Base binds one service instance to its type's transaction table and
// provides reflection and dispatch. Concrete services embed it; a respawn
// builds only the service struct and its own state.
type Base struct {
	table *table
	self  any // the embedding service, passed to the table's handlers
}

// Descriptor implements binder.Service.
func (b *Base) Descriptor() string { return b.table.descriptor }

// Label returns the human-readable HAL name used in crash titles.
func (b *Base) Label() string { return b.table.label }

// Transact implements binder.Service: reflection on InterfaceTransaction,
// argument decoding per the method's signature, then handler dispatch.
func (b *Base) Transact(code uint32, in, out *binder.Parcel) binder.Status {
	if code == binder.InterfaceTransaction {
		binder.MarshalMethods(out, b.table.sigs)
		return binder.StatusOK
	}
	if code == 0 || int(code) > len(b.table.sigs) {
		return binder.StatusUnknownTransaction
	}
	args := b.table.sigs[code-1].Args
	vals := make([]Val, len(args))
	for i, a := range args {
		switch a.Kind {
		case "buffer":
			data, err := in.ReadBytes()
			if err != nil {
				return binder.StatusBadValue
			}
			vals[i].B = data
		case "string":
			s, err := in.ReadString()
			if err != nil {
				return binder.StatusBadValue
			}
			vals[i].S = s
		default: // int, flags, resource
			u, err := in.ReadUint64()
			if err != nil {
				return binder.StatusBadValue
			}
			vals[i].U = u
		}
	}
	return b.table.handlers[code-1](b.self, vals, out)
}

// Crash describes a native crash in a HAL service process.
type Crash struct {
	Service string // Binder descriptor
	Label   string // human HAL name
	Signal  string // "SIGSEGV", "SIGABRT"
	Site    string // faulting function
}

// Title renders the Table II style title, e.g. "Native crash in Graphics HAL".
func (c Crash) Title() string {
	return fmt.Sprintf("Native crash in %s HAL", c.Label)
}

// String renders a tombstone-style summary.
func (c Crash) String() string {
	return fmt.Sprintf("Fatal signal %s in %s (%s), fault addr in %s",
		c.Signal, c.Service, c.Label, c.Site)
}

// segfault models a native memory fault inside service code: it panics with
// the crash record; the hosting Process recovers it.
func (b *Base) segfault(site string) {
	panic(Crash{Service: b.table.descriptor, Label: b.table.label, Signal: "SIGSEGV", Site: site})
}

// Process hosts one HAL service the way init spawns a HAL process: it
// assigns the PID, recovers native crashes, and refuses transactions while
// dead (DEAD_OBJECT), until the device reboots and reconstructs it.
type Process struct {
	PID int //droidvet:checkpoint ephemeral assigned by init at spawn; a restore keeps the same process
	snap.Dirty

	inner   binder.Service
	label   string                //droidvet:checkpoint ephemeral service identity, fixed at construction
	rebuild func() binder.Service // reconstructs a pristine service on restore
	mu      sync.Mutex
	dead    bool
	crashes []Crash

	// deathFn is the installed death recipient (binderLinkToDeath): fired
	// once per alive→dead transition, then disarmed until the process is
	// respawned — a reboot constructs fresh armed processes, and Restore
	// re-arms explicitly (a restored-to-alive process must notify again if
	// it dies on the next exec).
	deathFn    func()
	deathArmed bool
}

// NewProcess wraps a service in a process with the given PID.
func NewProcess(pid int, svc binder.Service, label string) *Process {
	return &Process{PID: pid, inner: svc, label: label}
}

// SetRebuild installs the service reconstructor used by Restore to bring
// the hosted service back to its freshly-constructed state. The device
// installs it at boot; processes without one keep their service across
// restores.
func (p *Process) SetRebuild(f func() binder.Service) {
	p.mu.Lock()
	p.rebuild = f
	p.mu.Unlock()
}

// LinkToDeath installs fn as the process's death recipient, as a client
// registering binderLinkToDeath would. The recipient fires once on the
// next alive→dead transition (outside process locks) and is re-armed by
// respawn paths: reboot and Restore.
func (p *Process) LinkToDeath(fn func()) {
	p.mu.Lock()
	p.deathFn = fn
	p.deathArmed = fn != nil
	p.mu.Unlock()
}

// Descriptor implements binder.Service.
func (p *Process) Descriptor() string {
	p.mu.Lock()
	inner := p.inner
	p.mu.Unlock()
	return inner.Descriptor()
}

// Label returns the hosted HAL's human name.
func (p *Process) Label() string { return p.label }

// Dead reports whether the process crashed and has not been restarted.
func (p *Process) Dead() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.dead
}

// Transact implements binder.Service with native-crash recovery.
func (p *Process) Transact(code uint32, in, out *binder.Parcel) (st binder.Status) {
	p.Touch() // any transaction may mutate service-internal state
	p.mu.Lock()
	if p.dead {
		p.mu.Unlock()
		return binder.StatusDeadObject
	}
	inner := p.inner
	p.mu.Unlock()
	defer func() {
		if r := recover(); r != nil {
			c, ok := r.(Crash)
			if !ok {
				// Any other panic is an abort in service code.
				c = Crash{
					Service: inner.Descriptor(), Label: p.label,
					Signal: "SIGABRT", Site: fmt.Sprint(r),
				}
			}
			p.mu.Lock()
			p.dead = true
			p.crashes = append(p.crashes, c)
			var death func()
			if p.deathArmed {
				p.deathArmed = false
				death = p.deathFn
			}
			p.mu.Unlock()
			// One-shot death notification, delivered outside p.mu: the
			// recipient may inspect arbitrary device state.
			if death != nil {
				death()
			}
			st = binder.StatusDeadObject
		}
	}()
	return inner.Transact(code, in, out)
}

// TakeCrashes returns and clears recorded native crashes.
func (p *Process) TakeCrashes() []Crash {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := p.crashes
	p.crashes = nil
	return out
}
