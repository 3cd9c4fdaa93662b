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

// fleetEdges is the edge count a traced fleet-2host campaign ends at.
const fleetEdges = 6400

// fleetGraph returns the Table I graph grown by random learns to the size
// of the fleet's shared graph, and the pair source that grew it.
func fleetGraph(b *testing.B) (*relation.Graph, func() (string, string)) {
	b.Helper()
	g := tableIGraph(b)
	names := g.Names()
	rng := rand.New(rand.NewSource(1))
	pair := func() (string, string) {
		return names[rng.Intn(len(names))], names[rng.Intn(len(names))]
	}
	for g.Edges() < fleetEdges {
		g.Learn(pair())
	}
	return g, pair
}

// BenchmarkDecaySnapshot measures the periodic decay at fleet scale: a
// Decay followed by the Snapshot read that republishes the view. Between
// iterations, untimed, the graph learns its way back to fleetEdges and
// publishes, as the executions between two decays do.
func BenchmarkDecaySnapshot(b *testing.B) {
	g, pair := fleetGraph(b)
	g.Snapshot()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Decay(0.9, 0.01)
		g.Snapshot()
		b.StopTimer()
		for g.Edges() < fleetEdges {
			g.Learn(pair())
		}
		g.Snapshot()
		b.StartTimer()
	}
	b.ReportMetric(fleetEdges, "edges")
}

// BenchmarkWalk measures one relation-guided generation step at fleet
// scale: a weighted base pick plus a walk of up to 6 steps from it.
func BenchmarkWalk(b *testing.B) {
	g, _ := fleetGraph(b)
	s := g.Snapshot()
	rng := rand.New(rand.NewSource(2))
	var path []int32
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		path = s.Walk(path[:0], rng, s.PickBase(rng), 6, 0)
	}
}
