//go:build !droidfuzz_sanitize

package device

// SanitizeEnabled reports whether the droidfuzz_sanitize build tag is on.
const SanitizeEnabled = false

// verifyRestore is a no-op in normal builds; the compiler removes the call
// from Restore entirely. Build with -tags droidfuzz_sanitize to cross-check
// every restored device against a freshly booted one.
func verifyRestore(*Device) {}

// verifyImport is a no-op in normal builds. Build with -tags
// droidfuzz_sanitize to cross-check every checkpoint import by re-checkpoint.
func verifyImport(*Device, []any) {}
