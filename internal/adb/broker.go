package adb

import (
	"fmt"
	"strconv"
	"sync"

	"droidfuzz/internal/binder"
	"droidfuzz/internal/device"
	"droidfuzz/internal/dsl"
	"droidfuzz/internal/ebpf"
	"droidfuzz/internal/vkernel"
)

// Executor is the execution boundary between a host-side fuzzing engine and
// a device-side broker (paper §IV-A): everything an engine needs from the
// device, and nothing more. The in-process Broker and the remote Resilient
// client implement it, so every layer above — engine, daemon, baselines,
// CLIs — is transport-agnostic.
type Executor interface {
	// Exec parses a program from its DSL text form against Target and
	// runs it through ExecProg.
	Exec(req ExecRequest) (*ExecResult, error)
	// ExecProg runs a parsed program. Remote implementations send it in
	// the exec encoding (dsl.AppendExec), which the broker decodes against
	// the same target; the round trip is lossless.
	ExecProg(p *dsl.Prog) (*ExecResult, error)
	// Reboot restarts the device; the engine calls it after any crash.
	Reboot() error
	// Reset brings the device back to pristine post-boot state the cheap
	// way when possible: a copy-on-write snapshot restore, falling back to
	// a full reboot when restore cannot reach pristine state. The returned
	// bool reports which path ran (true = restored, false = rebooted).
	Reset() (bool, error)
	// Ping round-trips a liveness check.
	Ping() error
	// Info returns the device identity handshake: model ID, target
	// descriptor hash, and the reboot/execution counters.
	Info() (Info, error)
	// Target returns the call-description target the executor serves.
	// Remote executors return the host-side target bound at attach time.
	Target() *dsl.Target
}

// Cloner is the optional checkpoint-portability extension of Executor.
// Broker and Resilient implement it; engines type-assert and
// fall back to flat scheduling when the executor cannot clone.
type Cloner interface {
	// ExportCheckpoint serializes the device's current state into a
	// portable, model-tagged blob (device.Checkpoint in gob form).
	ExportCheckpoint() ([]byte, error)
	// ImportCheckpoint re-materializes an exported blob onto the device,
	// which must be of the same model. The imported state becomes the
	// device's reset point until the next reboot or import.
	ImportCheckpoint(blob []byte) error
}

// Info is the executor handshake payload: enough for a host-side engine to
// verify it is talking to the device it thinks it is, with the interface
// surface it generated programs against.
type Info struct {
	// ModelID is the Table I device model ("A1", "B", ...).
	ModelID string
	// TargetHash fingerprints the broker's call-description target
	// (dsl.Target.Hash); a host engine rejects a mismatch at attach time.
	TargetHash uint64
	// Reboots counts device reboots since boot.
	Reboots int
	// Restores counts snapshot restores (cheap resets) since boot.
	Restores int
	// Execs counts broker executions (the device's virtual-time clock).
	Execs uint64
}

// Broker is the device-side execution broker: it parses incoming programs,
// dispatches each element to the Native or HAL executor by class, brackets
// the run with coverage and trace collection, and bonds the feedback into a
// uniform result (paper §IV-A).
type Broker struct {
	mu        sync.Mutex
	dev       *device.Device
	target    *dsl.Target
	probe     *ebpf.Probe
	ioctlOnly bool
	execs     uint64
	failNext  int
}

var (
	_ Executor      = (*Broker)(nil)
	_ BatchExecutor = (*Broker)(nil)
	_ Cloner        = (*Broker)(nil)
)

// NewBroker attaches a broker to the device. The target must contain every
// call description programs may use; extend it after probing with SetTarget.
func NewBroker(dev *device.Device, target *dsl.Target) *Broker {
	b := &Broker{dev: dev, target: target}
	b.probe = dev.Hub.Attach(ebpf.OriginFilter(vkernel.OriginHAL), 0)
	return b
}

// Target returns the broker's current call-description target.
func (b *Broker) Target() *dsl.Target {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.target
}

// SetTarget replaces the call-description target (after HAL probing).
func (b *Broker) SetTarget(t *dsl.Target) {
	b.mu.Lock()
	b.target = t
	b.mu.Unlock()
}

// SetIoctlOnly enables the DROIDFUZZ-D gate: the native executor only runs
// open/close/ioctl calls, and HAL-origin read/write/mmap syscalls are
// blocked in the kernel (paper §V-C2).
func (b *Broker) SetIoctlOnly(on bool) {
	b.mu.Lock()
	b.ioctlOnly = on
	b.mu.Unlock()
	b.applyGate()
}

func (b *Broker) applyGate() {
	b.mu.Lock()
	on := b.ioctlOnly
	k := b.dev.K
	b.mu.Unlock()
	if !on {
		k.SetSyscallGate(nil)
		return
	}
	k.SetSyscallGate(func(origin vkernel.Origin, nr string) bool {
		switch nr {
		case "open", "close", "ioctl":
			return true
		default:
			return false
		}
	})
}

// Reboot restarts the device and re-applies broker-side kernel
// configuration; the harness calls it after any crash. The in-process
// reboot cannot fail; the error is part of the Executor contract, where
// remote reboots can.
func (b *Broker) Reboot() error {
	b.dev.Reboot()
	b.applyGate()
	return nil
}

// Reset implements Executor: a copy-on-write snapshot restore when the
// device can reach pristine state that way, else a full reboot. The kernel
// object survives a restore, so an installed ioctl-only gate stays in
// place; only the reboot fallback needs it re-applied.
func (b *Broker) Reset() (bool, error) {
	if b.dev.Restore() {
		return true, nil
	}
	b.dev.Reboot()
	b.applyGate()
	return false, nil
}

// ExportCheckpoint implements Cloner by serializing the attached device's
// current state.
func (b *Broker) ExportCheckpoint() ([]byte, error) {
	return b.dev.ExportCheckpoint()
}

// ImportCheckpoint implements Cloner. The kernel object survives an import
// exactly as it survives a restore, so an installed ioctl-only gate stays
// in place.
func (b *Broker) ImportCheckpoint(blob []byte) error {
	return b.dev.ImportCheckpoint(blob)
}

// Ping implements Executor; the in-process broker is always reachable.
func (b *Broker) Ping() error { return nil }

// Info implements Executor with the device's live identity and counters.
func (b *Broker) Info() (Info, error) {
	b.mu.Lock()
	target := b.target
	execs := b.execs
	b.mu.Unlock()
	return Info{
		ModelID:    b.dev.Model.ID,
		TargetHash: target.Hash(),
		Reboots:    b.dev.Reboots(),
		Restores:   b.dev.Restores(),
		Execs:      execs,
	}, nil
}

// Device returns the attached device.
func (b *Broker) Device() *device.Device { return b.dev }

// FailNext makes the next n executions fail with a synthetic transport
// error, modeling ADB link flakiness; tests use it to drive the engine's
// error accounting.
func (b *Broker) FailNext(n int) {
	b.mu.Lock()
	b.failNext = n
	b.mu.Unlock()
}

// countExec counts one execution and consumes one injected fault, if
// armed, reporting whether it did.
func (b *Broker) countExec() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.execs++
	if b.failNext > 0 {
		b.failNext--
		return true
	}
	return false
}

// Execs reports the number of programs executed since attach; the harness
// uses it as the device's virtual-time clock.
func (b *Broker) Execs() uint64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.execs
}

// Exec implements Executor: parse, then ExecProg. The result is pooled;
// ownership transfers to the caller, who must Release it when done.
func (b *Broker) Exec(req ExecRequest) (*ExecResult, error) {
	prog, err := dsl.ParseProg(b.Target(), req.ProgText)
	if err != nil {
		return nil, fmt.Errorf("adb: bad program: %w", err)
	}
	return b.ExecProg(prog)
}

// ExecBatch implements BatchExecutor in-process: the requested resets run
// first, then the programs back to back in order, a nil entry marking each
// one that failed (an injected fault). Summary mode is meaningless without
// a wire and is ignored — results are always exact. Every non-nil result
// is pooled and owned by the caller (Release each when done).
func (b *Broker) ExecBatch(req ExecBatchRequest) ([]*ExecResult, error) {
	rebooted, _ := runResets(b, req.Resets) // an in-process reset cannot fail
	if req.Rebooted != nil {
		*req.Rebooted = rebooted
	}
	out := req.results()
	for i, p := range req.Progs {
		out[i], _ = b.ExecProg(p)
	}
	return out, nil
}

// resTable records per-call results for resource-argument resolution. It is
// pooled: a map would be one allocation per execution on the hot path.
type resTable struct {
	vals []uint64
	set  []bool
	san  sanState // zero-sized unless built with -tags droidfuzz_sanitize
}

var resPool = sync.Pool{New: func() any { return new(resTable) }}

// getResTable hands out a pooled table sized for n results; the caller
// owns it and must release() it after the execution completes.
func getResTable(n int) *resTable {
	t := resPool.Get().(*resTable)
	t.san.acquire()
	if cap(t.vals) < n {
		t.vals = make([]uint64, n)
		t.set = make([]bool, n)
	}
	t.vals = t.vals[:n]
	t.set = t.set[:n]
	for i := range t.set {
		t.set[i] = false
		t.vals[i] = 0
	}
	return t
}

func (t *resTable) put(i int, v uint64) {
	t.san.alive("adb.resTable.put")
	if i >= 0 && i < len(t.vals) {
		t.vals[i] = v
		t.set[i] = true
	}
}

func (t *resTable) release() {
	t.san.release("adb.resTable", sanCaller())
	resPool.Put(t)
}

// ExecProg runs an already-parsed program: the one execution path, taken
// by the in-process engine, by Exec, and by the transport server for
// every program it decodes. Every call counts as one execution, an
// injected fault included. The returned result is pooled: callers that
// are done with it should Release it so its buffers are recycled; callers
// that retain it may simply let it go to GC.
func (b *Broker) ExecProg(prog *dsl.Prog) (*ExecResult, error) {
	if b.countExec() {
		return nil, fmt.Errorf("adb: transport fault (injected)")
	}
	k := b.dev.K
	k.Cov.Reset()
	k.Cov.Enable()
	defer k.Cov.Disable()
	b.probe.Reset()

	res := resultPool.Get().(*ExecResult)
	res.san.acquire()
	res.prepare(len(prog.Calls))
	resources := getResTable(len(prog.Calls))
	defer resources.release()

	for i, call := range prog.Calls {
		if k.Wedged() {
			break // remaining calls never execute, like a dead device
		}
		mark := k.Cov.Mark()
		cr := &res.Calls[i]
		switch {
		case call.Desc.IsHAL():
			b.execHAL(call, resources, cr)
		case call.Desc.Class == dsl.ClassParam:
			b.execParam(call, cr)
		default:
			b.execNative(call, resources, cr)
		}
		cr.Executed = true
		cr.Cover = k.Cov.AppendTo(cr.Cover[:0], mark)
		if call.Desc.Ret != "" && cr.Errno == "OK" {
			resources.put(i, cr.Ret)
		}
	}

	res.KernelCov = k.Cov.AppendTo(res.KernelCov[:0], 0)
	b.probe.Drain(func(ev vkernel.Event) {
		res.HALTrace = append(res.HALTrace, TraceEvent{
			Seq: ev.Seq, PID: ev.PID, NR: ev.NR, Path: ev.Path, Arg: ev.Arg,
		})
	})
	for _, c := range k.TakeCrashes() {
		res.Crashes = append(res.Crashes, CrashRecord{
			Kind: c.Kind.String(), Title: c.Title, Detail: c.Detail,
			Component: "kernel",
		})
	}
	for _, c := range b.dev.TakeHALCrashes() {
		res.HALDead = true
		res.Crashes = append(res.Crashes, CrashRecord{
			Kind: "HALCRASH", Title: c.Title(), Detail: c.String(),
			Component: c.Label,
		})
	}
	res.Wedged = k.Wedged()
	if len(res.Crashes) > 0 {
		res.Dmesg = k.DmesgTail(32)
	}
	return res, nil
}

// resolve returns the concrete value for a resource argument: the producing
// call's recorded result, or a deliberately bogus handle when invalid.
func resolve(resources *resTable, a dsl.Arg) uint64 {
	resources.san.alive("adb.resolve(resTable)")
	if a.Ref < 0 || a.Ref >= len(resources.vals) || !resources.set[a.Ref] {
		return 0xbadf00d
	}
	return resources.vals[a.Ref]
}

// execNative runs one syscall-class call against the kernel, writing the
// outcome into cr (a slot of the pooled result).
func (b *Broker) execNative(call *dsl.Call, resources *resTable, cr *CallResult) {
	k := b.dev.K
	d := call.Desc
	if b.isIoctlOnly() {
		switch d.Syscall {
		case "open", "close", "ioctl":
		default:
			cr.Errno = "BLOCKED"
			return
		}
	}
	switch d.Syscall {
	case "open":
		fd, err := k.Open(device.NativePID, vkernel.OriginNative, call.Args[0].Str, 0)
		cr.Errno, cr.Ret = vkernel.ErrnoName(err), uint64(fd)
	case "close":
		fd := int(resolve(resources, call.Args[0]))
		err := k.Close(device.NativePID, vkernel.OriginNative, fd)
		cr.Errno = vkernel.ErrnoName(err)
	case "ioctl":
		fd := int(resolve(resources, call.Args[0]))
		req := call.Args[1].Val
		payload := encodePayload(call, resources)
		ret, _, err := k.Ioctl(device.NativePID, vkernel.OriginNative, fd, req, payload)
		cr.Errno, cr.Ret = vkernel.ErrnoName(err), ret
	case "read":
		fd := int(resolve(resources, call.Args[0]))
		n := int(call.Args[1].Val)
		if n > 1<<16 {
			n = 1 << 16
		}
		data, err := k.Read(device.NativePID, vkernel.OriginNative, fd, n)
		cr.Errno, cr.Ret = vkernel.ErrnoName(err), uint64(len(data))
	case "write":
		fd := int(resolve(resources, call.Args[0]))
		n, err := k.Write(device.NativePID, vkernel.OriginNative, fd, call.Args[1].Data)
		cr.Errno, cr.Ret = vkernel.ErrnoName(err), uint64(n)
	case "mmap":
		fd := int(resolve(resources, call.Args[0]))
		cookie, err := k.Mmap(device.NativePID, vkernel.OriginNative, fd, call.Args[1].Val)
		cr.Errno, cr.Ret = vkernel.ErrnoName(err), cookie
	default:
		cr.Errno = "ENOSYS"
	}
}

// execParam runs one runtime-parameter write as the composed
// open/write/close sequence the native executor issues against the sysfs
// attribute. Every leg goes through the ordinary syscall table, so the
// ioctl-only gate rejects the write leg (EPERM) — an ioctl-confined fuzzer
// structurally cannot flip a knob.
func (b *Broker) execParam(call *dsl.Call, cr *CallResult) {
	k := b.dev.K
	d := call.Desc
	fd, err := k.Open(device.NativePID, vkernel.OriginNative, d.Param, 0)
	if err != nil {
		cr.Errno = vkernel.ErrnoName(err)
		return
	}
	var text string
	if d.Args[0].Type.Kind == dsl.KindString {
		text = call.Args[0].Str
	} else {
		text = strconv.FormatUint(call.Args[0].Val, 10)
	}
	_, werr := k.Write(device.NativePID, vkernel.OriginNative, fd, []byte(text+"\n"))
	cerr := k.Close(device.NativePID, vkernel.OriginNative, fd)
	switch {
	case werr != nil:
		cr.Errno = vkernel.ErrnoName(werr)
	case cerr != nil:
		cr.Errno = vkernel.ErrnoName(cerr)
	default:
		cr.Errno = "OK"
	}
}

func (b *Broker) isIoctlOnly() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.ioctlOnly
}

// encodePayload builds the ioctl argument buffer from the call's payload
// fields (everything after fd and request): scalars as little-endian u64 in
// order, then at most one trailing raw buffer.
func encodePayload(call *dsl.Call, resources *resTable) []byte {
	var out []byte
	var tail []byte
	for i := 2; i < len(call.Args); i++ {
		f := call.Desc.Args[i]
		a := call.Args[i]
		switch f.Type.Kind {
		case dsl.KindBuffer:
			tail = append(tail, a.Data...)
		case dsl.KindString, dsl.KindFilename:
			tail = append(tail, a.Str...)
			tail = append(tail, 0)
		case dsl.KindResource:
			out = putU64(out, resolve(resources, a))
		default:
			out = putU64(out, a.Val)
		}
	}
	return append(out, tail...)
}

func putU64(b []byte, v uint64) []byte {
	return append(b, byte(v), byte(v>>8), byte(v>>16), byte(v>>24),
		byte(v>>32), byte(v>>40), byte(v>>48), byte(v>>56))
}

// execHAL runs one HAL interface invocation through Binder, writing the
// outcome into cr.
func (b *Broker) execHAL(call *dsl.Call, resources *resTable, cr *CallResult) {
	d := call.Desc
	in, out := binder.NewParcel(), binder.NewParcel()
	for i, f := range d.Args {
		a := call.Args[i]
		switch f.Type.Kind {
		case dsl.KindBuffer:
			in.WriteBytes(a.Data)
		case dsl.KindString, dsl.KindFilename:
			in.WriteString(a.Str)
		case dsl.KindResource:
			in.WriteUint64(resolve(resources, a))
		default:
			in.WriteUint64(a.Val)
		}
	}
	st := b.dev.SM.Call(d.Service, d.MethodCode, in, out)
	cr.Errno = st.String()
	if st == binder.StatusOK {
		cr.Errno = "OK"
		if d.Ret != "" {
			if v, err := out.ReadUint64(); err == nil {
				cr.Ret = v
			}
		}
	}
}
