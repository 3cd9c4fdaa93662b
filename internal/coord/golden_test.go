package coord

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"droidfuzz/internal/daemon"
	"droidfuzz/internal/relation"
)

// newPipeClient dials the coordinator server over an in-process net.Pipe —
// the full wire protocol with no sockets.
func newPipeClient(t *testing.T, srv *Server) *Client {
	t.Helper()
	cl, err := DialClient("pipe", ClientOptions{
		Dialer: func() (io.ReadWriteCloser, error) {
			hostEnd, coordEnd := net.Pipe()
			go srv.Serve(coordEnd)
			return hostEnd, nil
		},
	})
	if err != nil {
		t.Fatalf("dial pipe client: %v", err)
	}
	return cl
}

func graphEdges(g *relation.Graph) string {
	var lines []string
	for _, name := range g.Names() {
		for _, e := range g.Successors(name) {
			lines = append(lines, fmt.Sprintf("%s->%s=%.9f", e.From, e.To, e.Weight))
		}
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

// TestGoldenFederatedDeterminism is the tentpole's golden test: two real
// hosts run a sharded campaign against one coordinator over net.Pipe, and
// afterwards (1) every party holds the identical federated corpus
// (order-independent fingerprints agree and are nonzero), and (2) the
// coordinator's merged relation graph is reproducible edge-for-edge from
// nothing but the recorded learn journal — the determinism contract that
// makes a fleet campaign auditable after the fact.
func TestGoldenFederatedDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("boots real devices; skip in -short")
	}
	coord, err := New(
		Campaign{Models: []string{"A1", "B"}, Shards: 2, Devices: 1, Iters: 40, EpochIters: 20, Seed: 7},
		Options{Hosts: 2, EvictAfter: time.Minute},
	)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	srv := &Server{C: coord}

	hosts := make([]*Host, 2)
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for i := range hosts {
		hosts[i] = NewHost(newPipeClient(t, srv), HostOptions{
			Name:       fmt.Sprintf("host-%d", i),
			LeaseRetry: 5 * time.Millisecond,
		})
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = hosts[i].Run()
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("host %d: %v", i, err)
		}
	}

	st, _ := coord.Snapshot()
	if !st.Done || st.ShardsDone != 2 {
		t.Fatalf("campaign not drained: %+v", st)
	}
	select {
	case <-coord.Done():
	default:
		t.Fatal("coordinator Done channel not closed")
	}
	if !coord.Drained() {
		t.Fatal("coordinator not drained after both hosts synced")
	}

	// (1) Corpus convergence: all three parties fingerprint identically.
	fp := coord.Fingerprint()
	if fp == 0 || st.CorpusSize == 0 {
		t.Fatalf("federated corpus empty: fp=%#x size=%d", fp, st.CorpusSize)
	}
	for i, h := range hosts {
		if got := h.Fingerprint(); got != fp {
			t.Fatalf("host %d corpus fingerprint %#x != coordinator %#x", i, got, fp)
		}
	}

	// (2) The merged graph is a pure function of the recorded learn order:
	// rebuild from the journal alone and compare edge-for-edge.
	journal := coord.LearnJournal()
	if len(journal) == 0 {
		t.Fatal("empty learn journal after a federated campaign")
	}
	replica := relation.New()
	for _, v := range coord.Vertices() {
		replica.AddVertex(v.Name, v.Weight)
	}
	relation.Replay(replica, journal)
	merged := coord.Merged()
	if graphEdges(merged) != graphEdges(replica) {
		t.Fatal("merged graph not reproducible from the recorded learn journal")
	}
	if merged.Learns() != replica.Learns() {
		t.Fatalf("replayed learns %d != merged learns %d", replica.Learns(), merged.Learns())
	}

	// Journal hygiene: (device, seq) keys unique fleet-wide, devices carry
	// their host prefix.
	seen := map[string]struct{}{}
	for _, op := range journal {
		key := fmt.Sprintf("%s#%d", op.Device, op.Seq)
		if _, dup := seen[key]; dup {
			t.Fatalf("duplicate journal key %s", key)
		}
		seen[key] = struct{}{}
		if !strings.HasPrefix(op.Device, "h1/") && !strings.HasPrefix(op.Device, "h2/") {
			t.Fatalf("journal device %q lacks a host prefix", op.Device)
		}
	}

	// Each host's published status carries the fleet block with the same
	// converged corpus hash.
	for i, h := range hosts {
		var buf bytes.Buffer
		if err := h.Daemon().WriteStatus(&buf); err != nil {
			t.Fatalf("host %d status: %v", i, err)
		}
		var rep struct {
			Fleet *daemon.FleetStatus `json:"fleet"`
		}
		if err := json.Unmarshal(buf.Bytes(), &rep); err != nil {
			t.Fatalf("host %d status json: %v", i, err)
		}
		if rep.Fleet == nil {
			t.Fatalf("host %d status lacks the fleet block", i)
		}
		if rep.Fleet.CorpusHash != fp {
			t.Fatalf("host %d status corpus_hash %#x != %#x", i, rep.Fleet.CorpusHash, fp)
		}
		if rep.Fleet.ShardEpoch == 0 || rep.Fleet.FedBytesOut == 0 {
			t.Fatalf("host %d federation counters dead: %+v", i, rep.Fleet)
		}
	}
}

// TestFederatedJournalKeepsEveryLearn: sequence numbers come from each
// engine's own journal and never restart, so across many federation epochs
// per shard the coordinator's exact (device, seq) dedup drops nothing — its
// learn journal holds exactly the hosts' local learn records.
func TestFederatedJournalKeepsEveryLearn(t *testing.T) {
	if testing.Short() {
		t.Skip("boots real devices; skip in -short")
	}
	coord, err := New(
		Campaign{Models: []string{"A1", "B"}, Shards: 2, Devices: 1, Iters: 160, EpochIters: 20, Seed: 13},
		Options{Hosts: 2, EvictAfter: time.Minute},
	)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	srv := &Server{C: coord}
	hosts := make([]*Host, 2)
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for i := range hosts {
		hosts[i] = NewHost(newPipeClient(t, srv), HostOptions{
			Name:       fmt.Sprintf("host-%d", i),
			LeaseRetry: 5 * time.Millisecond,
		})
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = hosts[i].Run()
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("host %d: %v", i, err)
		}
	}

	key := func(op relation.LearnOp) string { return fmt.Sprintf("%s#%d", op.Device, op.Seq) }
	local := map[string]struct{}{}
	for _, h := range hosts {
		for _, op := range h.LearnJournal() {
			if _, dup := local[key(op)]; dup {
				t.Fatalf("host journals repeat key %s", key(op))
			}
			local[key(op)] = struct{}{}
		}
	}
	journal := coord.LearnJournal()
	if len(journal) != len(local) {
		t.Fatalf("coordinator journal holds %d records, hosts recorded %d", len(journal), len(local))
	}
	seen := map[string]struct{}{}
	for _, op := range journal {
		if _, dup := seen[key(op)]; dup {
			t.Fatalf("duplicate journal key %s", key(op))
		}
		seen[key(op)] = struct{}{}
		if _, ok := local[key(op)]; !ok {
			t.Fatalf("coordinator journal record %s was never recorded by a host", key(op))
		}
	}
	if st, _ := coord.Snapshot(); st.LearnsDropped != 0 {
		t.Fatalf("coordinator dropped %d learn records", st.LearnsDropped)
	}
}
