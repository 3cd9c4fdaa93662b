//go:build !droidfuzz_sanitize

package adb

// SanitizeEnabled reports whether the droidfuzz_sanitize build tag is on.
const SanitizeEnabled = false

// sanState is zero-sized and its hooks are empty in normal builds: the
// compiler inlines them away, so the pooled hot path and the wire encoder
// pay nothing for the sanitizer's existence. Build with
// -tags droidfuzz_sanitize for the checked variant.
type sanState struct{}

func (*sanState) acquire()            {}
func (*sanState) release(_, _ string) {}
func (*sanState) alive(_ string)      {}
func sanCaller() string               { return "" }

func sanitizeFrame([]byte, Frame) {}
