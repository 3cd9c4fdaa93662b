//go:build !droidfuzz_sanitize

package relation

// SanitizeEnabled reports whether the droidfuzz_sanitize build tag is on.
const SanitizeEnabled = false

// sanCheck is a no-op in normal builds; Learn and Decay call it
// unconditionally and the compiler erases the call. Build with
// -tags droidfuzz_sanitize to run CheckInvariants after every mutation.
func (g *Graph) sanCheck(string, float64) {}

// graphSan and snapSan are zero-sized in normal builds; the sanitize build
// uses them to fingerprint published snapshots and panic on
// write-after-publish.
type graphSan struct{}

type snapSan struct{}

func (g *Graph) sanSealLocked(*Snapshot) {}

func (g *Graph) sanVerifySnapLocked() {}

// sanCheckBuildLocked is a no-op in normal builds; the sanitize build
// compares each snapshot it publishes with a from-scratch build.
func (g *Graph) sanCheckBuildLocked(*Snapshot) {}
