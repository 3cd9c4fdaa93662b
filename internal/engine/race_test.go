//go:build race

package engine

// The race detector makes sync.Pool drop a random share of what is put
// back, so allocation counts of pooled paths are noise under -race.
func init() { raceBuild = true }
