//go:build droidfuzz_sanitize

package device

import (
	"fmt"
	"reflect"

	"droidfuzz/internal/binder"
	"droidfuzz/internal/hal"
)

// SanitizeEnabled reports whether the droidfuzz_sanitize build tag is on.
const SanitizeEnabled = true

// verifyRestore cross-checks the restore-equivalence invariant: after
// Restore, the device must be state-identical to a freshly booted one.
// It boots a pristine twin of the same model and compares, subsystem by
// subsystem, the checkpoint payloads plus the kernel/registry observables
// the harness consumes. Any mismatch is a snapshot bug — an unmarked
// mutation path or an incomplete Restore — and panics with the offending
// subsystem.
func verifyRestore(d *Device) {
	if !d.snapPristine {
		// The reset point is an imported checkpoint, not a fresh boot;
		// import fidelity is cross-checked by verifyImport instead.
		return
	}
	fresh := New(d.Model)
	if len(fresh.subs) != len(d.subs) {
		panic(fmt.Sprintf("droidfuzz_sanitize: restored device has %d subsystems, fresh boot has %d",
			len(d.subs), len(fresh.subs)))
	}
	for i, sub := range d.subs {
		switch s := sub.(type) {
		case *binder.ServiceManager:
			// Service values are process pointers; compare the registry
			// surface instead of chasing them.
			got, want := s.List(), fresh.SM.List()
			if !reflect.DeepEqual(got, want) {
				panic(fmt.Sprintf("droidfuzz_sanitize: restored service registry %v != fresh %v", got, want))
			}
		case *hal.Process:
			if s.Dead() {
				panic(fmt.Sprintf("droidfuzz_sanitize: restored HAL process %q still dead", s.Label()))
			}
		default:
			got, want := sub.Checkpoint(), fresh.subs[i].Checkpoint()
			if !reflect.DeepEqual(got, want) {
				panic(fmt.Sprintf("droidfuzz_sanitize: subsystem %d (%T) restored state %#v != fresh %#v",
					i, sub, got, want))
			}
		}
	}
	// Harness-visible observables.
	if got, want := d.K.DevicePaths(), fresh.K.DevicePaths(); !reflect.DeepEqual(got, want) {
		panic(fmt.Sprintf("droidfuzz_sanitize: restored device paths %v != fresh %v", got, want))
	}
	if n := d.K.OpenFDs(); n != 0 {
		panic(fmt.Sprintf("droidfuzz_sanitize: restored kernel has %d open fds", n))
	}
	if n := d.K.SyscallCount(); n != 0 {
		panic(fmt.Sprintf("droidfuzz_sanitize: restored kernel syscall count %d != 0", n))
	}
	if d.K.Wedged() {
		panic("droidfuzz_sanitize: restored kernel still wedged")
	}
	if !d.Healthy() {
		panic("droidfuzz_sanitize: restored device not healthy")
	}
}

// verifyImport cross-checks checkpoint-import fidelity: after importing,
// re-checkpointing every subsystem and passing the payloads through the
// same encode and decode must reproduce the imported payloads exactly. A
// mismatch means a payload drops or distorts state on the way — an
// unexported field gob skips, or a Restore that does not read back what
// Checkpoint wrote — and the round trip is the invariant that makes clone
// twins equivalent to the source device.
func verifyImport(d *Device, payloads []any) {
	data, err := d.encodeCheckpoint()
	if err != nil {
		panic(fmt.Sprintf("droidfuzz_sanitize: re-export after import: %v", err))
	}
	back, err := d.decodeCheckpoint(data)
	if err != nil {
		panic(fmt.Sprintf("droidfuzz_sanitize: re-import after import: %v", err))
	}
	for i, sub := range d.subs {
		if !reflect.DeepEqual(back[i], payloads[i]) {
			panic(fmt.Sprintf("droidfuzz_sanitize: subsystem %d (%T) re-checkpoint %#v != imported payload %#v",
				i, sub, back[i], payloads[i]))
		}
	}
}
