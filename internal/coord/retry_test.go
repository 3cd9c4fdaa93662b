package coord

import (
	"encoding/gob"
	"io"
	"net"
	"testing"
	"time"

	"droidfuzz/internal/adb"
	"droidfuzz/internal/engine"
	"droidfuzz/internal/relation"
)

// TestHandleRetryReturnsCachedLeaseReply pins the retry contract for the
// one RPC whose side effect is a grant: a retried Lease (same Seq after a
// lost reply) must return the SAME shard, not lease a second one and strand
// the first as a permanently in-flight orphan that keeps every other host
// spinning in Wait.
func TestHandleRetryReturnsCachedLeaseReply(t *testing.T) {
	c, _ := newTestCoordinator(t, Campaign{Models: []string{"A1"}, Shards: 2, Iters: 10}, Options{Hosts: 1})
	reg := c.Handle(adb.CoordRequest{Seq: 1, Register: &adb.CoordRegister{Name: "alpha", Nonce: 7}})
	if reg.Err != "" || reg.Registered == nil {
		t.Fatalf("register: %+v", reg)
	}
	id := reg.Registered.HostID

	lease := adb.CoordRequest{Seq: 2, Lease: &adb.CoordLeaseRequest{HostID: id}}
	first := c.Handle(lease)
	if first.Err != "" || first.Shard == nil || first.Shard.Wait || first.Shard.Done {
		t.Fatalf("first lease: %+v", first)
	}
	// The reply is "lost"; the client retries with the same Seq.
	retry := c.Handle(lease)
	if retry.Err != "" || retry.Shard == nil {
		t.Fatalf("retried lease: %+v", retry)
	}
	if retry.Shard.ID != first.Shard.ID {
		t.Fatalf("retry leased shard %d, want the original shard %d", retry.Shard.ID, first.Shard.ID)
	}
	if n := c.inflightLocked(); n != 1 {
		t.Fatalf("%d shards in flight after a retried lease, want 1", n)
	}
	owned := 0
	for _, sh := range c.shards {
		if sh.owner != "" {
			owned++
		}
	}
	if owned != 1 {
		t.Fatalf("%d shards owned after a retried lease, want 1 (orphaned grant)", owned)
	}

	// A genuinely new request (next Seq) is processed normally.
	next := c.Handle(adb.CoordRequest{Seq: 3, Lease: &adb.CoordLeaseRequest{HostID: id}})
	if next.Err != "" || next.Shard == nil || next.Shard.ID == first.Shard.ID {
		t.Fatalf("next lease: %+v", next)
	}
	// A Seq from the past is a protocol violation, not a silent re-run.
	stale := c.Handle(adb.CoordRequest{Seq: 2, Lease: &adb.CoordLeaseRequest{HostID: id}})
	if stale.Err == "" {
		t.Fatalf("stale seq accepted: %+v", stale)
	}
}

// TestHandleRetryRedeliversLostDownlink pins the cursor side of the retry
// contract: downlinkLocked advances corpusSent/vertSent/logSent when the
// reply is generated, so if that reply is lost the retry must redeliver the
// identical batch — otherwise the batch is gone for good while the host
// later reports itself drained.
func TestHandleRetryRedeliversLostDownlink(t *testing.T) {
	c, _ := newTestCoordinator(t, Campaign{Models: []string{"A1"}, Shards: 1, Iters: 10}, Options{Hosts: 2})
	a := mustRegister(t, c, "alpha")
	b := mustRegister(t, c, "beta")

	ops := []relation.LearnOp{{A: "x", B: "y", Device: a + "/s0.0/A1", Seq: 0}}
	fl, err := EncodeLearns(ops)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	if _, err := c.Sync(&adb.CoordSync{HostID: a, Batch: &adb.FedBatch{
		Progs:  []string{"from-a"},
		Verts:  []adb.FedVertex{{Name: "x", Weight: 1}, {Name: "y", Weight: 1}},
		Learns: fl,
	}}); err != nil {
		t.Fatalf("sync a: %v", err)
	}

	sync := adb.CoordRequest{Seq: 5, Sync: &adb.CoordSync{HostID: b}}
	first := c.Handle(sync)
	if first.Err != "" || first.Ack == nil || emptyBatch(first.Ack.Batch) {
		t.Fatalf("first sync carried no downlink: %+v", first)
	}
	// Reply lost; the retry must carry the very same batch, not an empty
	// one generated against the already-advanced cursors.
	retry := c.Handle(sync)
	if retry.Err != "" || retry.Ack == nil || emptyBatch(retry.Ack.Batch) {
		t.Fatalf("retried sync lost the downlink batch: %+v", retry)
	}
	if len(retry.Ack.Batch.Progs) != 1 || retry.Ack.Batch.Progs[0] != "from-a" {
		t.Fatalf("retried downlink differs: %+v", retry.Ack.Batch)
	}
	// And the next real exchange sees nothing new.
	next := c.Handle(adb.CoordRequest{Seq: 6, Sync: &adb.CoordSync{HostID: b}})
	if next.Err != "" || next.Ack == nil || !emptyBatch(next.Ack.Batch) {
		t.Fatalf("delta delivered twice: %+v", next)
	}
}

// TestRegisterRetryDedupsByNonce: a lost Register reply must not leave a
// ghost host holding a pre-partitioned queue nobody drains.
func TestRegisterRetryDedupsByNonce(t *testing.T) {
	c, _ := newTestCoordinator(t, Campaign{Models: []string{"A1"}, Shards: 4, Iters: 10}, Options{Hosts: 2})
	req := adb.CoordRequest{Seq: 1, Register: &adb.CoordRegister{Name: "alpha", Nonce: 99}}
	first := c.Handle(req)
	retry := c.Handle(req)
	if first.Err != "" || retry.Err != "" || first.Registered == nil || retry.Registered == nil {
		t.Fatalf("register replies: %+v / %+v", first, retry)
	}
	if first.Registered.HostID != retry.Registered.HostID {
		t.Fatalf("retried register minted a second identity: %s then %s",
			first.Registered.HostID, retry.Registered.HostID)
	}
	st, _ := c.Snapshot()
	if st.Hosts != 1 {
		t.Fatalf("%d hosts after a retried register, want 1", st.Hosts)
	}
}

// TestLostReplyRetriedOverWire runs the whole ambiguous-failure path end to
// end: the coordinator processes a Lease but the connection dies before the
// reply arrives; the client redials and retries, and must end up running
// the shard the coordinator already granted.
func TestLostReplyRetriedOverWire(t *testing.T) {
	c, _ := newTestCoordinator(t, Campaign{Models: []string{"A1"}, Shards: 2, Iters: 10}, Options{Hosts: 1})
	srv := &Server{C: c}

	conns := 0
	dialer := func() (io.ReadWriteCloser, error) {
		conns++
		hostEnd, coordEnd := net.Pipe()
		if conns == 1 {
			// First connection: serve the Register normally, then process
			// the next request (the Lease) but hang up before replying —
			// the server-processed / reply-lost ambiguity.
			go func() {
				dec := gob.NewDecoder(coordEnd)
				enc := gob.NewEncoder(coordEnd)
				var req adb.CoordRequest
				if err := dec.Decode(&req); err != nil {
					return
				}
				rep := c.Handle(req)
				if err := enc.Encode(&rep); err != nil {
					return
				}
				if err := dec.Decode(&req); err != nil {
					return
				}
				_ = c.Handle(req)
				coordEnd.Close()
			}()
		} else {
			go srv.Serve(coordEnd)
		}
		return hostEnd, nil
	}
	cl := &Client{addr: "lossy", opts: ClientOptions{
		MaxAttempts: 3, BackoffBase: time.Millisecond, BackoffMax: 2 * time.Millisecond,
		Dialer: dialer,
	}}
	cl.opts.defaults()
	cl.sleep = func(time.Duration) {}

	reg, err := cl.Register("flaky")
	if err != nil {
		t.Fatalf("register: %v", err)
	}
	sh, err := cl.Lease(reg.HostID)
	if err != nil {
		t.Fatalf("lease through lost reply: %v", err)
	}
	if sh.Wait || sh.Done {
		t.Fatalf("lease: %+v", sh)
	}
	if conns != 2 {
		t.Fatalf("client used %d connections, want 2 (one redial)", conns)
	}
	if n := c.inflightLocked(); n != 1 {
		t.Fatalf("%d shards in flight after the retried lease, want 1 — the lost-reply shard was orphaned", n)
	}
}

// TestCompleteByNonOwnerIsNoOp: only the owner may finish a shard. A
// Complete from anyone else acks (its uplink still merges) but must not
// discard the owner's remaining work by force-finishing the shard.
func TestCompleteByNonOwnerIsNoOp(t *testing.T) {
	c, _ := newTestCoordinator(t, Campaign{Models: []string{"A1"}, Shards: 2, Iters: 100}, Options{Hosts: 2})
	a := mustRegister(t, c, "alpha")
	b := mustRegister(t, c, "beta")

	sh, err := c.Lease(a)
	if err != nil {
		t.Fatalf("lease: %v", err)
	}
	if _, err := c.Progress(&adb.CoordProgress{HostID: a, ShardID: sh.ID, ExecsDone: 40}); err != nil {
		t.Fatalf("progress: %v", err)
	}
	// B claims completion of A's in-flight shard.
	if _, err := c.Complete(&adb.CoordComplete{HostID: b, ShardID: sh.ID}); err != nil {
		t.Fatalf("non-owner complete: %v", err)
	}
	if got := c.shards[sh.ID]; got.done || got.owner != a || got.progress != 40 {
		t.Fatalf("non-owner complete mutated the shard: done=%v owner=%q progress=%d",
			got.done, got.owner, got.progress)
	}
	// The owner's completion still lands, and a duplicate stays idempotent.
	for i := 0; i < 2; i++ {
		if _, err := c.Complete(&adb.CoordComplete{HostID: a, ShardID: sh.ID}); err != nil {
			t.Fatalf("owner complete %d: %v", i, err)
		}
	}
	if got := c.shards[sh.ID]; !got.done || got.progress != got.spec.Iters {
		t.Fatalf("owner complete did not finish the shard: %+v", got)
	}
}

// TestTickEvictsStrandedFleet: eviction and campaign-end detection must not
// depend on hosts calling in. When the whole fleet dies silently, a
// coordinator-side Tick evicts it, closes Done, and flags the campaign
// stranded so droidcoordd can report instead of blocking forever.
func TestTickEvictsStrandedFleet(t *testing.T) {
	c, fc := newTestCoordinator(t, Campaign{Models: []string{"A1"}, Shards: 2, Iters: 100},
		Options{Hosts: 1, EvictAfter: 5 * time.Second})
	a := mustRegister(t, c, "alpha")
	if _, err := c.Lease(a); err != nil {
		t.Fatalf("lease: %v", err)
	}
	// The only host goes silent; no RPC will ever arrive again.
	fc.advance(6 * time.Second)
	c.Tick()

	st, hosts := c.Snapshot()
	if st.Evictions != 1 || !hosts[0].Evicted {
		t.Fatalf("tick did not evict the silent host: %+v %+v", st, hosts)
	}
	if !st.Stranded {
		t.Fatal("campaign with its whole fleet evicted not marked stranded")
	}
	select {
	case <-c.Done():
	default:
		t.Fatal("Done not closed for a stranded campaign")
	}

	// A completed campaign, by contrast, finishes cleanly via Tick too.
	c2, fc2 := newTestCoordinator(t, Campaign{Models: []string{"A1"}, Shards: 1, Iters: 10},
		Options{Hosts: 1, EvictAfter: 5 * time.Second})
	a2 := mustRegister(t, c2, "alpha")
	sh2, err := c2.Lease(a2)
	if err != nil {
		t.Fatalf("lease: %v", err)
	}
	if _, err := c2.Complete(&adb.CoordComplete{HostID: a2, ShardID: sh2.ID}); err != nil {
		t.Fatalf("complete: %v", err)
	}
	fc2.advance(6 * time.Second)
	c2.Tick()
	st2, _ := c2.Snapshot()
	if st2.Stranded {
		t.Fatal("completed campaign misreported as stranded")
	}
	select {
	case <-c2.Done():
	default:
		t.Fatal("Done not closed after the last Complete")
	}
}

// TestCollectUplinkCountsEncodeDrops: an unencodable learn record (seq past
// uint32) cannot hold the uplink back, but its loss must be counted, not
// silent. The engine journals' cursors move as they are read, so valid
// records behind a dropped batch still ship.
func TestCollectUplinkCountsEncodeDrops(t *testing.T) {
	h := NewHost(nil, HostOptions{Name: "drops"})
	const id = "h1/s0.0/A1"
	h.mu.Lock()
	fl := h.encodeLearns([]relation.LearnOp{{A: "x", B: "y", Device: id, Seq: 1 << 40}})
	dropped := h.learnsDropped
	h.mu.Unlock()
	if fl.Count != 0 {
		t.Fatalf("unencodable record shipped anyway: %+v", fl)
	}
	if dropped != 1 {
		t.Fatalf("learnsDropped = %d, want 1", dropped)
	}
	// Later valid records still ship: the seed learns journaled at attach.
	if err := h.d.AddDeviceAs(id, "A1", engine.Config{Seed: 3}); err != nil {
		t.Fatal(err)
	}
	want := len(h.d.Engine(id).LearnOps(id, 0))
	if want == 0 {
		t.Fatal("seeding journaled no learns")
	}
	b := h.collectUplink()
	if b == nil || b.Learns.Count != want {
		t.Fatalf("valid records after a dropped one did not ship: %+v, want %d", b, want)
	}
	h.mu.Lock()
	mark, dropped := h.lMark[id], h.learnsDropped
	h.mu.Unlock()
	if mark != want || dropped != 1 {
		t.Fatalf("uplink cursor %d (want %d), learnsDropped %d (want 1)", mark, want, dropped)
	}
}
