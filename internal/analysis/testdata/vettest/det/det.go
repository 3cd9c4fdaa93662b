// Package det seeds determinism violations for droidvet's own tests: one
// of each flavor the pass must flag, plus the safe idioms it must not.
package det

import (
	"math/rand"
	"sort"
	"time"
)

// Clock reads the wall clock: flagged.
func Clock() int64 {
	return time.Now().UnixNano()
}

// Elapsed uses time.Since: flagged.
func Elapsed(start time.Time) time.Duration {
	return time.Since(start)
}

// Draw uses the global math/rand source: flagged.
func Draw() int {
	return rand.Intn(10)
}

// Fold folds map keys in iteration order: flagged.
func Fold(m map[string]int) string {
	out := ""
	for k := range m {
		out += k
	}
	return out
}

// Poll drives work from a ticker: flagged.
func Poll(stop chan struct{}, work func()) {
	tick := time.NewTicker(time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			return
		case <-tick.C:
			work()
		}
	}
}

// Nap sleeps between attempts: flagged.
func Nap() {
	time.Sleep(2 * time.Millisecond)
}

// Keys is the safe collect-then-sort idiom: not flagged.
func Keys(m map[string]int) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Waived reads the clock under an explicit waiver: not flagged.
func Waived() int64 {
	return time.Now().Unix() //droidvet:nondet fixture: deliberately waived
}

// Seeded draws from an explicitly seeded stream: not flagged.
func Seeded() int {
	r := rand.New(rand.NewSource(1))
	return r.Intn(10)
}
