package relation_test

import (
	"math/rand"
	"testing"

	"droidfuzz/internal/device"
	"droidfuzz/internal/probe"
	"droidfuzz/internal/relation"
)

// tableIGraph returns the graph a daemon fuzzing all seven Table I models
// shares: one vertex per call of every model's probed target.
func tableIGraph(b *testing.B) *relation.Graph {
	b.Helper()
	g := relation.New()
	for _, m := range device.Models() {
		target, _, err := probe.Target(device.New(m), probe.Options{})
		if err != nil {
			b.Fatal(err)
		}
		for _, d := range target.Calls() {
			g.AddVertex(d.Name, d.Weight)
		}
	}
	return g
}

// BenchmarkSnapshotAfterLearn measures the cost generation pays after one
// learned relation: a Learn followed by the Snapshot read that republishes
// the view, over a Table I-sized graph that already holds learned edges.
func BenchmarkSnapshotAfterLearn(b *testing.B) {
	g := tableIGraph(b)
	names := g.Names()
	rng := rand.New(rand.NewSource(1))
	pair := func() (string, string) {
		return names[rng.Intn(len(names))], names[rng.Intn(len(names))]
	}
	for i := 0; i < 4000; i++ {
		g.Learn(pair())
	}
	pairs := make([][2]string, 1024)
	for i := range pairs {
		pairs[i][0], pairs[i][1] = pair()
	}
	g.Snapshot()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := pairs[i%len(pairs)]
		g.Learn(p[0], p[1])
		g.Snapshot()
	}
	b.ReportMetric(float64(len(names)), "vertices")
}
