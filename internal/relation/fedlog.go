package relation

import (
	"sort"
	"sync"
)

// LearnOp is one learn record: the ordered dependency pair plus the
// (device, sequence) key federation merges on. Each engine journals its
// own learns; a record's sequence number is its index in that journal.
type LearnOp struct {
	A, B   string
	Device string
	Seq    uint64
}

// SortOps orders ops by (device ID, sequence) in place — the total order
// every federated replay applies learns under. (device, seq) pairs are
// unique fleet-wide (device IDs carry the host prefix), so the order is
// total and the sort deterministic.
func SortOps(ops []LearnOp) {
	sort.Slice(ops, func(i, j int) bool {
		if ops[i].Device != ops[j].Device {
			return ops[i].Device < ops[j].Device
		}
		return ops[i].Seq < ops[j].Seq
	})
}

// ApplyOps sorts ops by (device, sequence) in place and applies them, so
// the application order — and therefore the resulting edge weights, which
// Eq. (1) makes order-sensitive — depends only on what was recorded, never
// on arrival order. It returns the number of ops applied.
func (g *Graph) ApplyOps(ops []LearnOp) int {
	if len(ops) == 0 {
		return 0
	}
	SortOps(ops)
	for _, op := range ops {
		g.Learn(op.A, op.B)
	}
	return len(ops)
}

// Log is an append-only journal of learn records. The coordinator keeps
// one of every op accepted from the fleet: its merged graph is *defined* as
// the replay of that journal, which is what makes federation merge
// commutative — however batches arrive, the deduplicated journal sorts to
// the same (device, seq) sequence and replays to the same graph.
type Log struct {
	mu  sync.Mutex
	ops []LearnOp
}

// NewLog returns an empty journal.
func NewLog() *Log { return &Log{} }

// Append records ops in arrival order.
func (l *Log) Append(ops ...LearnOp) {
	if len(ops) == 0 {
		return
	}
	l.mu.Lock()
	l.ops = append(l.ops, ops...)
	l.mu.Unlock()
}

// Len reports how many ops the journal holds. The journal is append-only,
// so a Len value is a stable cursor: Since(cursor) later returns exactly
// the ops recorded after it was taken.
func (l *Log) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.ops)
}

// Since returns a copy of the ops from index i on.
func (l *Log) Since(i int) []LearnOp {
	l.mu.Lock()
	defer l.mu.Unlock()
	if i < 0 {
		i = 0
	}
	if i >= len(l.ops) {
		return nil
	}
	out := make([]LearnOp, len(l.ops)-i)
	copy(out, l.ops[i:])
	return out
}

// Ops returns a copy of the whole journal in arrival order.
func (l *Log) Ops() []LearnOp { return l.Since(0) }

// Replay applies ops to g in (device, sequence) order without mutating the
// caller's slice — the offline reconstruction path: a fresh graph with the
// campaign's vertex set, Replayed with the recorded journal, reproduces the
// coordinator's merged graph edge for edge.
func Replay(g *Graph, ops []LearnOp) int {
	cp := make([]LearnOp, len(ops))
	copy(cp, ops)
	return g.ApplyOps(cp)
}
