//go:build droidfuzz_sanitize

package relation

import (
	"strings"
	"testing"
)

// TestMutatedSnapshotPanics: writing into a published snapshot (here via
// the shared Successors storage) must panic at the next reseal with a
// message naming the immutability contract.
func TestMutatedSnapshotPanics(t *testing.T) {
	g := New()
	for _, n := range []string{"a", "b", "c"} {
		g.AddVertex(n, 0.3)
	}
	g.Learn("a", "b")
	s := g.Snapshot()
	succ := s.Successors("a")
	if len(succ) == 0 {
		t.Fatal("fixture has no a-successors")
	}
	succ[0].Weight = 99 // illegal: snapshot storage is shared read-only

	g.Learn("b", "c") // invalidates; next read reseals and verifies
	var msg string
	func() {
		defer func() {
			if r := recover(); r != nil {
				msg = r.(string)
			}
		}()
		_ = g.Snapshot()
	}()
	if msg == "" {
		t.Fatal("mutated published snapshot did not panic on reseal")
	}
	if !strings.Contains(msg, "relation.Snapshot") || !strings.Contains(msg, "immutable") {
		t.Fatalf("unhelpful panic message: %q", msg)
	}
}

// TestUntouchedSnapshotReseals: the legitimate publish→invalidate→rebuild
// cycle must never trip the immutability check.
func TestUntouchedSnapshotReseals(t *testing.T) {
	g := New()
	for _, n := range []string{"a", "b", "c"} {
		g.AddVertex(n, 0.3)
	}
	for i := 0; i < 50; i++ {
		g.Learn("a", "b")
		_ = g.Snapshot()
		g.Learn("b", "c")
		g.Decay(0.95, 0.01)
		_ = g.Snapshot()
		if err := g.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestUnmarkedRowChangePanics: an edge changed without its row marked
// dirty — the bug a Learn that forgets a sibling would have — must make
// the next row-incremental build panic, naming the stale row.
func TestUnmarkedRowChangePanics(t *testing.T) {
	g := New()
	for _, n := range []string{"a", "b", "c"} {
		g.AddVertex(n, 0.3)
	}
	g.Learn("a", "b")
	_ = g.Snapshot()
	// Rewrite a→b on both mirrors behind the dirty tracking, then Learn an
	// unrelated pair so the next read takes the incremental path.
	g.verts["a"].Out["b"] = 0.5
	g.verts["b"].In["a"] = 0.5
	g.Learn("b", "c")
	var msg string
	func() {
		defer func() {
			if r := recover(); r != nil {
				msg = r.(string)
			}
		}()
		_ = g.Snapshot()
	}()
	if msg == "" {
		t.Fatal("stale incremental row did not panic")
	}
	if !strings.Contains(msg, "full rebuild") || !strings.Contains(msg, `row of "a"`) {
		t.Fatalf("panic does not name the stale row: %q", msg)
	}
}
