package coord

import (
	"fmt"
	"sync"
	"time"

	"droidfuzz/internal/adb"
	"droidfuzz/internal/corpus"
	"droidfuzz/internal/daemon"
	"droidfuzz/internal/dsl"
	"droidfuzz/internal/engine"
	"droidfuzz/internal/relation"
)

// HostOptions configure one fleet host.
type HostOptions struct {
	// Name is the advisory operator label sent at registration.
	Name string
	// Workers bounds the host daemon's worker pool; Pipeline and Batch
	// shape every engine's schedule (engine.RunSchedule: generation
	// look-ahead and programs per executor call; Batch > 1 implies a
	// look-ahead of at least Batch). Zero keeps the daemon defaults — the
	// serial schedule.
	Workers  int
	Pipeline int
	Batch    int
	// Engine is the per-device engine configuration template; the shard
	// seed overwrites its Seed per device.
	Engine engine.Config
	// HeartbeatEvery is the background liveness cadence; 0 disables the
	// heartbeat goroutine (tests drive liveness explicitly).
	HeartbeatEvery time.Duration
	// LeaseRetry is the poll interval while the coordinator answers Wait
	// (default 50ms).
	LeaseRetry time.Duration
	// Attach overrides how a shard device is attached to the daemon; nil
	// uses AddDeviceAs with the Engine template. The cmd/dfbench tracer
	// injects an attach that wraps the executor with span recorders.
	Attach func(d *daemon.Daemon, id, model string, seed int64) error
}

func (o *HostOptions) defaults() {
	if o.LeaseRetry <= 0 {
		o.LeaseRetry = 50 * time.Millisecond
	}
}

// Host is one fleet member: a daemon full of devices plus the coordinator
// protocol loop that leases shards, runs them epoch by epoch, and exchanges
// federation deltas.
type Host struct {
	c    *Client
	opts HostOptions
	d    *daemon.Daemon

	mu                sync.Mutex
	id                string
	known             corpus.HashSet // every federated program hash this host holds
	cMark             map[string]int // per-engine corpus uplink cursors
	lMark             map[string]int // per-engine learn journal uplink cursors
	vMark             int            // graph vertex uplink cursor
	epochs            uint64
	bytesIn, bytesOut uint64
	steals            uint64
	learnsDropped     uint64 // learn records lost to uplink encode failures
	shards            []daemon.ShardStatus
}

// NewHost builds a host around a dialed coordinator client.
func NewHost(c *Client, opts HostOptions) *Host {
	opts.defaults()
	h := &Host{
		c:     c,
		opts:  opts,
		d:     daemon.New(),
		known: corpus.NewHashSet(),
		cMark: make(map[string]int),
		lMark: make(map[string]int),
	}
	if opts.Workers > 0 {
		h.d.SetMaxWorkers(opts.Workers)
	}
	if opts.Pipeline > 0 {
		h.d.SetPipelineDepth(opts.Pipeline)
	}
	if opts.Batch > 0 {
		h.d.SetBatchSize(opts.Batch)
	}
	return h
}

// Daemon exposes the host's daemon (status writing, stats).
func (h *Host) Daemon() *daemon.Daemon { return h.d }

// ID returns the coordinator-assigned host identity ("" before Run
// registers).
func (h *Host) ID() string {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.id
}

// execs sums lifetime executions across the host's engines.
func (h *Host) execs() uint64 {
	var n uint64
	for _, st := range h.d.Stats() {
		n += st.Execs
	}
	return n
}

// Run registers, then leases and runs shards until the coordinator reports
// the campaign done, finishing with a sync drain so this host holds the
// complete federated corpus and relation journal.
func (h *Host) Run() error {
	reg, err := h.c.Register(h.opts.Name)
	if err != nil {
		return fmt.Errorf("coord host: register: %w", err)
	}
	h.mu.Lock()
	h.id = reg.HostID
	h.mu.Unlock()
	epochIters := reg.EpochIters
	if epochIters <= 0 {
		epochIters = 256
	}

	quit := make(chan struct{})
	var wg sync.WaitGroup
	if h.opts.HeartbeatEvery > 0 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tick := time.NewTicker(h.opts.HeartbeatEvery)
			defer tick.Stop()
			for {
				select {
				case <-tick.C:
					// A failed beat is not fatal here: the epoch loop's own
					// calls refresh liveness too, and they surface errors.
					_, _ = h.c.Heartbeat(h.id, h.execs())
				case <-quit:
					return
				}
			}
		}()
	}
	defer func() {
		close(quit)
		wg.Wait()
	}()

	for {
		sh, err := h.c.Lease(h.id)
		if err != nil {
			return fmt.Errorf("coord host %s: lease: %w", h.id, err)
		}
		if sh.Done {
			break
		}
		if sh.Wait {
			time.Sleep(h.opts.LeaseRetry)
			continue
		}
		if sh.Stolen {
			h.mu.Lock()
			h.steals++
			h.mu.Unlock()
		}
		h.applyBatch(sh.Batch)
		if err := h.runShard(sh, epochIters); err != nil {
			return err
		}
	}

	// Drain: other hosts' final Complete uplinks may have landed after our
	// last exchange. Sync until a round moves nothing in either direction —
	// that empty-empty exchange doubles as the drained handshake the
	// coordinator waits for before it exits.
	for {
		up := h.collectUplink()
		ack, err := h.c.Sync(&adb.CoordSync{HostID: h.id, Batch: up})
		if err != nil {
			return fmt.Errorf("coord host %s: sync: %w", h.id, err)
		}
		h.applyBatch(ack.Batch)
		if up == nil && emptyBatch(ack.Batch) {
			break
		}
	}
	h.publish()
	return nil
}

// runShard attaches the shard's devices, resumes from a warm checkpoint
// when one rode the lease, and runs the iteration budget in federation
// epochs — every epoch ends with a Progress (or final Complete) exchange.
func (h *Host) runShard(sh *adb.CoordShard, epochIters int) error {
	attach := h.opts.Attach
	if attach == nil {
		attach = func(d *daemon.Daemon, id, model string, seed int64) error {
			cfg := h.opts.Engine
			cfg.Seed = seed
			return d.AddDeviceAs(id, model, cfg)
		}
	}
	ids := make([]string, sh.Devices)
	for j := 0; j < sh.Devices; j++ {
		id := fmt.Sprintf("%s/s%d.%d/%s", h.id, sh.ID, j, sh.Model)
		if err := attach(h.d, id, sh.Model, sh.Seed+int64(j)); err != nil {
			return fmt.Errorf("coord host %s: attach shard %d device %d: %w", h.id, sh.ID, j, err)
		}
		ids[j] = id
	}
	if len(sh.Checkpoint) > 0 {
		h.importCheckpoint(ids, sh.Checkpoint)
	}

	h.mu.Lock()
	h.shards = append(h.shards, daemon.ShardStatus{
		ID: sh.ID, Model: sh.Model, Devices: sh.Devices,
		Stolen: sh.Stolen, State: "running",
	})
	slot := len(h.shards) - 1
	h.mu.Unlock()

	done := 0
	for done < sh.Iters {
		n := sh.Iters - done
		if n > epochIters {
			n = epochIters
		}
		if err := h.d.RunOn(ids, n, true); err != nil {
			return fmt.Errorf("coord host %s: run shard %d: %w", h.id, sh.ID, err)
		}
		done += n
		h.mu.Lock()
		h.epochs++
		h.shards[slot].Execs = done
		h.mu.Unlock()

		up := h.collectUplink()
		var (
			ack *adb.CoordAck
			err error
		)
		if done < sh.Iters {
			ack, err = h.c.Progress(&adb.CoordProgress{
				HostID: h.id, ShardID: sh.ID, ExecsDone: done,
				Checkpoint: h.exportCheckpoint(ids), Batch: up,
			})
		} else {
			ack, err = h.c.Complete(&adb.CoordComplete{HostID: h.id, ShardID: sh.ID, Batch: up})
		}
		if err != nil {
			return fmt.Errorf("coord host %s: shard %d exchange: %w", h.id, sh.ID, err)
		}
		h.applyBatch(ack.Batch)
		h.publish()
	}
	h.mu.Lock()
	h.shards[slot].State = "done"
	h.mu.Unlock()
	h.publish()
	return nil
}

// exportCheckpoint captures the shard's representative device state (the
// first device's) when the executor supports checkpoints; nil otherwise.
func (h *Host) exportCheckpoint(ids []string) []byte {
	eng := h.d.Engine(ids[0])
	if eng == nil {
		return nil
	}
	cl, ok := eng.Executor().(adb.Cloner)
	if !ok {
		return nil
	}
	blob, err := cl.ExportCheckpoint()
	if err != nil {
		return nil // checkpointing is an optimization; never fail the shard on it
	}
	return blob
}

// importCheckpoint warms the shard's fresh devices from the previous
// owner's exported state. Best-effort for the same reason exports are.
func (h *Host) importCheckpoint(ids []string, blob []byte) {
	for _, id := range ids {
		eng := h.d.Engine(id)
		if eng == nil {
			continue
		}
		if cl, ok := eng.Executor().(adb.Cloner); ok {
			_ = cl.ImportCheckpoint(blob)
		}
	}
}

// collectUplink gathers everything new since the previous exchange: corpus
// admissions across every engine (deduplicated against all hashes this host
// holds, so downlinked programs never bounce back), newly registered graph
// vertices, and every engine's fresh learn journal records, stamped with
// the engine's attach ID.
func (h *Host) collectUplink() *adb.FedBatch {
	h.mu.Lock()
	defer h.mu.Unlock()
	b := &adb.FedBatch{}
	var ops []relation.LearnOp
	for _, id := range h.d.Devices() {
		eng := h.d.Engine(id)
		if eng == nil {
			continue
		}
		crp := eng.Corpus()
		texts := crp.Texts(h.cMark[id])
		h.cMark[id] = crp.Len()
		for _, text := range texts {
			if h.known.Add(corpus.Hash(text)) {
				b.Progs = append(b.Progs, text)
			}
		}
		fresh := eng.LearnOps(id, h.lMark[id])
		h.lMark[id] += len(fresh)
		ops = append(ops, fresh...)
	}
	s := h.d.Graph().Snapshot()
	names := s.Names()
	for id := h.vMark; id < len(names); id++ {
		b.Verts = append(b.Verts, adb.FedVertex{Name: names[id], Weight: s.Weight(int32(id))})
	}
	h.vMark = len(names)
	b.Learns = h.encodeLearns(ops)
	h.bytesOut += uint64(BatchBytes(b))
	if emptyBatch(b) {
		return nil
	}
	return b
}

// encodeLearns packs uplink learn records. An unencodable record (seq past
// uint32) fails permanently; the journal cursors have already moved past
// it, so it cannot pin the records behind it, and the loss is counted so
// it shows up in the fleet status instead of vanishing silently. Callers
// hold h.mu.
func (h *Host) encodeLearns(ops []relation.LearnOp) adb.FedLearns {
	fl, err := EncodeLearns(ops)
	if err != nil {
		h.learnsDropped += uint64(len(ops))
	}
	return fl
}

// applyBatch folds a coordinator downlink into local state: programs are
// parsed against each engine's target and admitted to its corpus (models
// that cannot parse a foreign program skip it), and learn records go
// straight into the shared graph — not into any engine's journal, which
// holds only that engine's own learns and thus never re-uplinks federated
// ones.
// Downlink vertices are recorded as known but NOT added to the graph: a
// vertex this host's models cannot generate would pollute base-call
// selection, and Learn silently skips unknown names anyway.
func (h *Host) applyBatch(b *adb.FedBatch) {
	if emptyBatch(b) {
		return
	}
	h.mu.Lock()
	h.bytesIn += uint64(BatchBytes(b))
	ids := h.d.Devices()
	for _, text := range b.Progs {
		h.known.Add(corpus.Hash(text))
	}
	h.mu.Unlock()

	for _, text := range b.Progs {
		for _, id := range ids {
			eng := h.d.Engine(id)
			if eng == nil {
				continue
			}
			target := eng.Executor().Target()
			if target == nil {
				continue
			}
			p, err := dsl.ParseProg(target, text)
			if err != nil {
				continue // foreign model's vocabulary; not for this device
			}
			eng.Corpus().Add(p, 1)
		}
	}
	// Admissions above advance each corpus; move the uplink cursors past
	// them so collectUplink does not rescan texts we just recorded as known
	// (they are deduplicated anyway, but the scan is wasted work).
	h.mu.Lock()
	for _, id := range ids {
		if eng := h.d.Engine(id); eng != nil {
			if n := eng.Corpus().Len(); n > h.cMark[id] {
				h.cMark[id] = n
			}
		}
	}
	h.mu.Unlock()

	if ops, err := DecodeLearns(b.Learns); err == nil && len(ops) > 0 {
		h.d.Graph().ApplyOps(ops)
	}
}

// publish refreshes the daemon's fleet status block.
func (h *Host) publish() {
	h.mu.Lock()
	fs := daemon.FleetStatus{
		HostID:        h.id,
		ShardEpoch:    h.epochs,
		FedBytesIn:    h.bytesIn,
		FedBytesOut:   h.bytesOut,
		Steals:        h.steals,
		LearnsDropped: h.learnsDropped,
		CorpusHash:    h.known.Fingerprint(),
		Shards:        h.shards,
	}
	h.mu.Unlock()
	h.d.UpdateFleet(fs)
}

// Fingerprint returns the order-independent digest of this host's view of
// the federated corpus.
func (h *Host) Fingerprint() uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.known.Fingerprint()
}

// LearnJournal returns the locally generated learn records: every
// engine's journal in attach order, stamped as collectUplink stamps them.
// Call it only while the host is not running a shard.
func (h *Host) LearnJournal() []relation.LearnOp {
	var ops []relation.LearnOp
	for _, id := range h.d.Devices() {
		if eng := h.d.Engine(id); eng != nil {
			ops = append(ops, eng.LearnOps(id, 0)...)
		}
	}
	return ops
}

// Steals reports how many leased shards came off other hosts' queues.
func (h *Host) Steals() uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.steals
}
