// Seeded violation against the fixture's published rows: a row a snapshot
// published is shared with the graph, so only a copy may be written.
package snapuse

import "vettest/snap"

// LowerInPlace halves an arc's weight inside a published row: flagged.
func LowerInPlace(v *snap.View) {
	v.Rows[0][0].Weight /= 2
}

// LowerCopy is the copy-on-write pattern: copy the row, then write the
// copy. Never flagged.
func LowerCopy(v *snap.View) []snap.Arc {
	row := append([]snap.Arc(nil), v.Rows[0]...)
	row[0].Weight /= 2
	return row
}
