package corpus

import (
	"math/rand"
	"testing"
)

// BenchmarkCorpusPickN measures one signal-weighted-or-uniform pick from a
// 5 000-entry corpus, the draw every mutation makes twice.
func BenchmarkCorpusPickN(b *testing.B) {
	tg := target(b)
	base := prog(b, tg, `r0 = open$tcpc(path="/dev/tcpc0")`+"\nioctl$TCPC_RESET(fd=r0, req=0xa101)\n")
	c := New()
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 5000; i++ {
		p := base.Clone()
		p.Calls[1].Args[1].Val = uint64(i)
		c.Add(p, rng.Intn(64))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.PickN(rng, -1)
	}
}
