// Package adb implements the host↔device execution path: the device-side
// Execution Broker with its HAL and Native executors (paper §IV-A), the
// execution result types carrying cross-boundary feedback, and a
// message-framed transport standing in for the Android Debug Bridge.
package adb

import "sync"

// ExecRequest asks an executor to run one program given as DSL text. It
// is a host-side adapter for callers that hold text: executors parse it
// against their target and run it through ExecProg. No frame carries it.
type ExecRequest struct {
	// ProgText is the program in DSL text form.
	ProgText string
}

// CallResult is the outcome of one call in the program.
type CallResult struct {
	// Executed reports whether the call ran (false after a fatal crash
	// aborted the program).
	Executed bool
	// Errno is the symbolic errno ("OK", "EINVAL", ...) for syscalls, or
	// the Binder status name for HAL calls.
	Errno string
	// Ret is the scalar result (fd, ioctl return, HAL reply handle).
	Ret uint64
	// Cover is the kernel PC trace attributed to this call, including PCs
	// hit by HAL-origin syscalls it triggered.
	Cover []uint32
}

// TraceEvent is one HAL-origin syscall observation from the eBPF probe, the
// raw material of directional coverage (paper §IV-D).
type TraceEvent struct {
	Seq  uint64
	PID  int
	NR   string
	Path string
	Arg  uint64
}

// CrashRecord is one incident observed during an execution.
type CrashRecord struct {
	// Kind is "WARNING", "BUG", "KASAN", "HANG", or "HALCRASH".
	Kind string
	// Title is the dedup title (Table II "Bug Info" shape).
	Title string
	// Detail is the splat / tombstone body.
	Detail string
	// Component is "kernel" or the HAL label ("Graphics", ...).
	Component string
}

// ExecResult is the broker's reply for one program execution.
type ExecResult struct {
	Calls []CallResult
	// KernelCov is the full ordered kcov trace of the execution.
	KernelCov []uint32
	// HALTrace is the ordered HAL-origin syscall trace.
	HALTrace []TraceEvent
	// Crashes lists incidents raised during the execution.
	Crashes []CrashRecord
	// Dmesg is the tail of the kernel console ring, attached when the
	// execution crashed (the log-recovery step of the paper's triage).
	Dmesg []string
	// Wedged reports that the kernel is dead and the device needs a
	// reboot before further executions.
	Wedged bool
	// HALDead reports that at least one HAL process crashed.
	HALDead bool

	// san tracks the pooled lifecycle; zero-sized unless built with
	// -tags droidfuzz_sanitize. The frame codec never encodes it.
	san sanState
}

// resultPool recycles ExecResults between executions: the broker draws from
// it and callers hand results back with Release, so the per-execution
// feedback buffers (Calls with their per-call Cover, KernelCov, HALTrace)
// keep their capacity across iterations and the steady-state execution loop
// allocates nothing.
var resultPool = sync.Pool{New: func() any { return new(ExecResult) }}

// GetResult returns a pooled, empty ExecResult.
func GetResult() *ExecResult {
	r := resultPool.Get().(*ExecResult)
	r.san.acquire()
	r.prepare(0)
	return r
}

// Release returns the result to the pool. The caller must not retain the
// result or any of its slices afterwards; string fields (crash titles,
// errno names) are immutable and safe to keep. Releasing is optional — an
// unreleased result is simply garbage collected.
func (r *ExecResult) Release() {
	if r == nil {
		return
	}
	r.san.release("adb.ExecResult", sanCaller())
	resultPool.Put(r)
}

// prepare resets the result for a fresh execution of n calls, reusing every
// buffer's capacity: Calls is resized in place so each slot's Cover slice
// keeps its backing array.
func (r *ExecResult) prepare(n int) {
	if cap(r.Calls) < n {
		r.Calls = append(r.Calls[:cap(r.Calls)], make([]CallResult, n-cap(r.Calls))...)
	}
	r.Calls = r.Calls[:n]
	for i := range r.Calls {
		c := &r.Calls[i]
		c.Executed = false
		c.Errno = ""
		c.Ret = 0
		c.Cover = c.Cover[:0]
	}
	r.KernelCov = r.KernelCov[:0]
	r.HALTrace = r.HALTrace[:0]
	r.Crashes = r.Crashes[:0]
	r.Dmesg = nil
	r.Wedged = false
	r.HALDead = false
}

// Crashed reports whether any incident was observed.
func (r *ExecResult) Crashed() bool {
	r.san.alive("adb.ExecResult.Crashed")
	return len(r.Crashes) > 0
}

// NeedsReboot reports whether the harness must reboot the device before the
// next execution (fatal kernel state or a dead HAL process, per the paper's
// reboot-on-bug configuration).
func (r *ExecResult) NeedsReboot() bool {
	r.san.alive("adb.ExecResult.NeedsReboot")
	return r.Wedged || r.HALDead
}
