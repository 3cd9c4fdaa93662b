//go:build droidfuzz_sanitize

package adb

import (
	"bytes"
	"fmt"
	"reflect"
	"runtime"
	"slices"
)

// SanitizeEnabled reports whether the droidfuzz_sanitize build tag is on.
const SanitizeEnabled = true

// sanState is the checked-pool lifecycle tracker embedded in the pooled
// execution-result types when the droidfuzz_sanitize tag is set. The
// generation counter's low bit encodes liveness (even = live, odd =
// released); each release records its call site so double-Put and
// use-after-put panics can name the line that returned the object.
type sanState struct {
	gen   uint32
	putAt string
}

func (s *sanState) acquire() {
	if s.gen&1 == 1 {
		s.gen++
	}
	s.putAt = ""
}

func (s *sanState) release(what, at string) {
	if s.gen&1 == 1 {
		panic(fmt.Sprintf("droidfuzz_sanitize: double-Put of %s: first released at %s, released again at %s", what, s.putAt, at))
	}
	s.gen++
	s.putAt = at
}

func (s *sanState) alive(what string) {
	if s.gen&1 == 1 {
		panic(fmt.Sprintf("droidfuzz_sanitize: use-after-put: %s called on an object released at %s", what, s.putAt))
	}
}

// sanCaller reports the file:line of the caller's caller — the user code
// invoking Release — for the release record.
func sanCaller() string {
	_, file, line, ok := runtime.Caller(2)
	if !ok {
		return "unknown"
	}
	return fmt.Sprintf("%s:%d", file, line)
}

// sanitizeFrame round-trips every frame a connection writes through the
// decoder before it goes out: the bytes must decode and re-encode to
// themselves, and a reply carrying execution results must decode to the
// same feedback as the live results it was encoded from — same call
// outcomes, traces (unless elided), HAL trace, crashes and device state.
// Any codec bug is caught at its source rather than as corrupt coverage on
// the host.
func sanitizeFrame(body []byte, f Frame) {
	back := reflect.New(reflect.TypeOf(f).Elem()).Interface().(Frame)
	if err := unmarshalFrame(body, back, nil); err != nil {
		panic(fmt.Sprintf("droidfuzz_sanitize: %T frame does not decode back: %v", f, err))
	}
	if rep, ok := back.(*rpcReply); ok {
		defer rep.release()
	}
	again, err := back.appendFrame(nil)
	if err != nil || !bytes.Equal(again, body) {
		panic(fmt.Sprintf("droidfuzz_sanitize: %T frame does not re-encode to its own bytes (err %v)", f, err))
	}
	orig, ok := f.(*rpcReply)
	if !ok {
		return
	}
	got := back.(*rpcReply)
	switch orig.Kind {
	case repResult:
		sanitizeResult(orig.Result, got.Result, false)
	case repBatch:
		for i, res := range orig.Batch.Results {
			if (res == nil) != (got.Batch.Results[i] == nil) {
				panic(fmt.Sprintf("droidfuzz_sanitize: batch entry %d changed presence on the wire", i))
			}
			if res != nil {
				sanitizeResult(res, got.Batch.Results[i], orig.Batch.Elided[i])
			}
		}
	}
}

func sanitizeResult(res, back *ExecResult, elided bool) {
	if len(back.Calls) != len(res.Calls) {
		panic(fmt.Sprintf("droidfuzz_sanitize: wire round-trip changed call count: %d -> %d", len(res.Calls), len(back.Calls)))
	}
	for i := range res.Calls {
		a, b := &res.Calls[i], &back.Calls[i]
		if a.Executed != b.Executed || a.Errno != b.Errno || a.Ret != b.Ret || (!elided && !slices.Equal(a.Cover, b.Cover)) {
			panic(fmt.Sprintf("droidfuzz_sanitize: wire round-trip changed call %d (executed/errno/ret/cover)", i))
		}
	}
	if elided {
		if len(back.KernelCov) != 0 || len(back.HALTrace) != 0 {
			panic("droidfuzz_sanitize: elided result decoded with traces")
		}
	} else {
		if !slices.Equal(res.KernelCov, back.KernelCov) {
			panic(fmt.Sprintf("droidfuzz_sanitize: wire round-trip changed kernel trace: %d PCs -> %d", len(res.KernelCov), len(back.KernelCov)))
		}
		if !slices.Equal(res.HALTrace, back.HALTrace) {
			panic("droidfuzz_sanitize: wire round-trip changed the HAL trace")
		}
	}
	if !slices.Equal(res.Crashes, back.Crashes) || !slices.Equal(res.Dmesg, back.Dmesg) ||
		back.Wedged != res.Wedged || back.HALDead != res.HALDead {
		panic("droidfuzz_sanitize: wire round-trip changed crash/wedge state")
	}
}
