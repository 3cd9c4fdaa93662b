//go:build droidfuzz_sanitize

package relation

import (
	"strings"
	"testing"
)

// TestMutatedSnapshotPanics: writing into a published snapshot (here via
// the shared Successors storage, which is the graph's own row until the
// graph copies it) must panic at the next mutation's or publish's seal
// check with a message naming the immutability contract.
func TestMutatedSnapshotPanics(t *testing.T) {
	g := New()
	for _, n := range []string{"a", "b", "c"} {
		g.AddVertex(n, 0.3)
	}
	g.Learn("a", "b")
	s := g.Snapshot()
	succ := s.Successors(0)
	if len(succ) == 0 {
		t.Fatal("fixture has no a-successors")
	}
	succ[0].Weight = 99 // illegal: snapshot storage is shared read-only

	var msg string
	func() {
		defer func() {
			if r := recover(); r != nil {
				msg = r.(string)
			}
		}()
		g.Learn("b", "c") // verifies the seal after mutating
		_ = g.Snapshot()  // and so does the next publish
	}()
	if msg == "" {
		t.Fatal("mutated published snapshot did not panic")
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

// TestUnmarkedRowChangePanics: a row left out of order by a mutation that
// wrote it the copy-on-write way — the bug a Learn that forgets to
// re-position an arc would have — must make the next publish panic,
// naming the stale row.
func TestUnmarkedRowChangePanics(t *testing.T) {
	g := New()
	for _, n := range []string{"a", "b", "c", "d"} {
		g.AddVertex(n, 0.3)
	}
	g.Learn("a", "b")
	g.Learn("a", "c")
	_ = g.Snapshot()
	// Lower a→b on both mirrors without moving it behind a→c, then Learn
	// an unrelated pair so the graph has something to publish.
	edgeArc(g, "a", "b", false).Weight = 0.5
	edgeArc(g, "a", "b", true).Weight = 0.5
	g.Learn("c", "d")
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
		t.Fatal("out-of-order row did not panic")
	}
	if !strings.Contains(msg, "full rebuild") || !strings.Contains(msg, `row of "a"`) {
		t.Fatalf("panic does not name the stale row: %q", msg)
	}
}
