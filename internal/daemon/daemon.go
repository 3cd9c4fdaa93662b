// Package daemon implements DroidFuzz's root process (paper §IV-A): it
// spawns one fuzzing engine per target device, owns the persistent shared
// state — the relation table, the global crash dedup, and corpus
// persistence — and coordinates the engines' runs.
package daemon

import (
	"encoding/json"
	"fmt"
	"io"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"droidfuzz/internal/adb"
	"droidfuzz/internal/baseline"
	"droidfuzz/internal/crash"
	"droidfuzz/internal/device"
	"droidfuzz/internal/dsl"
	"droidfuzz/internal/engine"
	"droidfuzz/internal/relation"
)

// Daemon coordinates engines across devices.
type Daemon struct {
	mu sync.Mutex
	// graph is the shared relation table: relations learned on one device
	// inform generation on the others (interfaces overlap across models).
	graph   *relation.Graph
	dedup   *crash.Dedup
	engines map[string]*engine.Engine
	devices map[string]*device.Device
	order   []string
	// maxWorkers bounds the worker pool of parallel runs; 0 means
	// GOMAXPROCS.
	maxWorkers int
	// pipelineDepth and batchSize shape every engine's schedule
	// (engine.RunSchedule): the generation look-ahead and the programs per
	// executor call — over a remote link, each batch is one wire frame
	// with the summary uplink. Both zero is the serial schedule.
	pipelineDepth int
	batchSize     int
	// fleet is the multi-host status block a coordinator host publishes;
	// an atomic pointer keeps WriteStatus's never-blocks guarantee.
	fleet atomic.Pointer[FleetStatus]
}

// New returns an empty daemon with fresh shared state.
func New() *Daemon {
	return &Daemon{
		graph:   relation.New(),
		dedup:   crash.NewDedup(),
		engines: make(map[string]*engine.Engine),
		devices: make(map[string]*device.Device),
	}
}

// Graph exposes the shared relation table.
func (d *Daemon) Graph() *relation.Graph { return d.graph }

// Dedup exposes the global unique-bug collector.
func (d *Daemon) Dedup() *crash.Dedup { return d.dedup }

// AddDevice boots the model, runs the probing pass, and attaches an engine
// keyed by the model ID. cfg.Seed should differ per device for independent
// exploration.
func (d *Daemon) AddDevice(modelID string, cfg engine.Config) error {
	return d.AddDeviceAs(modelID, modelID, cfg)
}

// AddDeviceAs is AddDevice with an explicit engine key, so a fleet shard
// can attach several devices of one model under distinct IDs (a coordinator
// host uses "<hostID>/s<shard>.<j>/<model>", which also makes the learn
// records' (device, seq) keys globally unique across the fleet).
//
// Boot and probing are the slow part and run outside the daemon lock, so
// attaching a fleet of devices never serializes on d.mu (and a status read
// during startup never waits behind a probe). The shared graph and dedup
// are concurrency-safe, so the probing pass may learn into them before the
// engine is registered.
func (d *Daemon) AddDeviceAs(id, modelID string, cfg engine.Config) error {
	model, err := device.ModelByID(modelID)
	if err != nil {
		return err
	}
	d.mu.Lock()
	if _, dup := d.engines[id]; dup {
		d.mu.Unlock()
		return fmt.Errorf("daemon: device %s already attached", id)
	}
	d.mu.Unlock()

	dev := device.New(model)
	eng, err := baseline.NewDroidFuzz(dev, d.graph, d.dedup, cfg)
	if err != nil {
		return fmt.Errorf("daemon: attach %s: %w", id, err)
	}

	d.mu.Lock()
	defer d.mu.Unlock()
	if _, dup := d.engines[id]; dup {
		// A concurrent attach of the same id won the race while we were
		// probing; keep the winner.
		return fmt.Errorf("daemon: device %s already attached", id)
	}
	d.engines[id] = eng
	d.devices[id] = dev
	d.order = append(d.order, id)
	return nil
}

// AttachExecutor wires an engine over an already-attached execution
// boundary — typically a resilient remote client dialed by the fleet CLI —
// into the daemon's shared relation table and crash dedup. seeds (optional)
// are executed and admitted unminimized, the same corpus bootstrap
// AddDevice performs from the in-process probing pass. The id keys the
// engine in stats and corpus persistence and must be unique.
func (d *Daemon) AttachExecutor(id string, x adb.Executor, seeds []*dsl.Prog, cfg engine.Config) error {
	if x.Target() == nil {
		return fmt.Errorf("daemon: attach %s: executor has no bound target (handshake missing?)", id)
	}
	d.mu.Lock()
	if _, dup := d.engines[id]; dup {
		d.mu.Unlock()
		return fmt.Errorf("daemon: device %s already attached", id)
	}
	eng := engine.New(x, d.graph, d.dedup, cfg)
	d.engines[id] = eng
	d.order = append(d.order, id)
	d.mu.Unlock()
	// Seeding executes programs over the boundary; keep it outside the
	// daemon lock so a slow or down remote cannot block other attaches.
	eng.SeedCorpus(seeds)
	return nil
}

// Engine returns the engine attached for the model, or nil.
func (d *Daemon) Engine(modelID string) *engine.Engine {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.engines[modelID]
}

// Devices returns the attached model IDs in attach order.
func (d *Daemon) Devices() []string {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]string, len(d.order))
	copy(out, d.order)
	return out
}

// SetMaxWorkers bounds the parallel run's worker pool. n <= 0 restores the
// default (GOMAXPROCS). A fleet of hundreds of devices then shares a fixed
// number of host threads instead of spawning one goroutine per device.
func (d *Daemon) SetMaxWorkers(n int) {
	d.mu.Lock()
	d.maxWorkers = n
	d.mu.Unlock()
}

// SetPipelineDepth sets how far each engine's generation runs ahead of
// execution (engine.RunSchedule); 0 with no batch size restores the
// strictly serial, seed-deterministic schedule.
func (d *Daemon) SetPipelineDepth(depth int) {
	d.mu.Lock()
	d.pipelineDepth = depth
	d.mu.Unlock()
}

// SetBatchSize makes engines execute programs in batches of n through the
// executors' BatchExecutor extension (engines over executors without batch
// support fall back to per-program execution); n <= 1 restores
// per-program execution. A batch is generated ahead in full, so n > 1
// implies a look-ahead of at least n even with no pipeline depth set.
func (d *Daemon) SetBatchSize(n int) {
	d.mu.Lock()
	d.batchSize = n
	d.mu.Unlock()
}

// Run executes iters fuzzing iterations on every attached engine. With
// parallel set, engines are distributed over a bounded worker pool (at most
// SetMaxWorkers goroutines, defaulting to GOMAXPROCS — the deployment shape
// of §IV-A without one unbounded goroutine per device); otherwise the pool
// has one worker, which runs the engines one after another in attach
// order. Either way every engine runs the schedule SetPipelineDepth and
// SetBatchSize shape.
//
// Each engine journals its own relation learns and lands them in the
// shared graph at the end of every executor call, so a one-engine run — or
// a serial one — is deterministic per seed, and every learn is in the graph
// when Run returns. Engines running side by side land in whatever order
// their calls finish, so a parallel fleet of several engines does not
// replay.
func (d *Daemon) Run(iters int, parallel bool) {
	_ = d.RunOn(nil, iters, parallel)
}

// RunOn is Run restricted to the engines with the given IDs (nil means
// every attached engine, in attach order). A coordinator host runs one
// shard's device subset per federation epoch while engines of completed
// shards stay attached for status reporting. Unknown IDs are an error.
func (d *Daemon) RunOn(ids []string, iters int, parallel bool) error {
	d.mu.Lock()
	if ids == nil {
		ids = d.order
	}
	engines := make([]*engine.Engine, 0, len(ids))
	for _, id := range ids {
		e, ok := d.engines[id]
		if !ok {
			d.mu.Unlock()
			return fmt.Errorf("daemon: run: no engine %q attached", id)
		}
		engines = append(engines, e)
	}
	workers := d.maxWorkers
	depth := d.pipelineDepth
	batch := d.batchSize
	d.mu.Unlock()

	switch {
	case !parallel:
		workers = 1
	case workers <= 0:
		workers = runtime.GOMAXPROCS(0)
	}
	workers = min(workers, len(engines))

	queue := make(chan *engine.Engine)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for e := range queue {
				e.RunSchedule(iters, depth, batch)
			}
		}()
	}
	for _, e := range engines {
		queue <- e
	}
	close(queue)
	wg.Wait()
	return nil
}

// attached returns the attached engine IDs and engines in attach order,
// copied under the daemon lock so callers can use them unlocked.
func (d *Daemon) attached() ([]string, []*engine.Engine) {
	d.mu.Lock()
	defer d.mu.Unlock()
	engines := make([]*engine.Engine, len(d.order))
	for i, id := range d.order {
		engines[i] = d.engines[id]
	}
	return slices.Clone(d.order), engines
}

// Stats snapshots all engines' counters keyed by model ID. The engines are
// listed under the daemon lock, then every engine is queried unlocked —
// engine counters are atomics, so a mid-campaign stats poll reads
// consistent values without stalling any engine goroutine.
func (d *Daemon) Stats() map[string]engine.Stats {
	ids, engines := d.attached()
	out := make(map[string]engine.Stats, len(engines))
	for i, e := range engines {
		out[ids[i]] = e.Stats()
	}
	return out
}

// SaveCorpora persists every engine's corpus under dir/<modelID>/. File
// I/O runs outside the daemon lock.
func (d *Daemon) SaveCorpora(dir string) error {
	ids, engines := d.attached()
	for i, e := range engines {
		if err := e.Corpus().Save(filepath.Join(dir, ids[i])); err != nil {
			return err
		}
	}
	return nil
}

// Bugs returns the global unique findings in discovery order.
func (d *Daemon) Bugs() []*crash.Record { return d.dedup.Records() }

// FleetStatus is the multi-host block of the status report: the identity
// and federation counters a coordinator host publishes alongside the
// per-device stats, so a whole-fleet dashboard still polls one JSON
// document per host.
type FleetStatus struct {
	// HostID is the coordinator-assigned host identity.
	HostID string `json:"host_id"`
	// ShardEpoch counts completed federation epochs (uplink/downlink
	// exchanges) across every shard this host ran.
	ShardEpoch uint64 `json:"shard_epoch"`
	// FedBytesIn / FedBytesOut are cumulative federation payload bytes
	// received from and sent to the coordinator.
	FedBytesIn  uint64 `json:"fed_bytes_in"`
	FedBytesOut uint64 `json:"fed_bytes_out"`
	// Steals counts shards this host leased out of other hosts' queues
	// (including requeued shards of evicted hosts).
	Steals uint64 `json:"steals"`
	// LearnsDropped counts learn records that could not be encoded for
	// uplink (cursor advanced past them); nonzero means federated relation
	// state is lossy on this host.
	LearnsDropped uint64 `json:"learns_dropped,omitempty"`
	// CorpusHash is the order-independent fingerprint of the host's view
	// of the federated corpus; equal values across hosts mean their corpus
	// sets converged.
	CorpusHash uint64 `json:"corpus_hash"`
	// Shards summarizes every shard this host leased, in lease order.
	Shards []ShardStatus `json:"shards,omitempty"`
}

// ShardStatus is one leased shard's summary in the fleet status block.
type ShardStatus struct {
	ID      int    `json:"id"`
	Model   string `json:"model"`
	Devices int    `json:"devices"`
	// Execs is the per-device iteration count this host completed on the
	// shard.
	Execs int `json:"execs"`
	// Stolen marks shards leased from another host's queue.
	Stolen bool `json:"stolen,omitempty"`
	// State is "running" or "done" (from this host's perspective).
	State string `json:"state"`
}

// UpdateFleet publishes the fleet status block (a copy) for WriteStatus.
// The block lives behind an atomic pointer: publishing never takes the
// daemon lock and a concurrent WriteStatus never blocks on it.
func (d *Daemon) UpdateFleet(fs FleetStatus) {
	cp := fs
	cp.Shards = slices.Clone(fs.Shards)
	d.fleet.Store(&cp)
}

// statusReport is the JSON shape of WriteStatus.
type statusReport struct {
	// Fleet is the multi-host block; absent for single-host campaigns.
	Fleet   *FleetStatus            `json:"fleet,omitempty"`
	Devices map[string]engine.Stats `json:"devices"`
	// ExecErrors aggregates broker execution errors across the fleet; a
	// nonzero value flags transport or program-build trouble that per-device
	// coverage numbers would otherwise hide.
	ExecErrors uint64 `json:"exec_errors"`
	// ParamWrites aggregates executed runtime-parameter writes across the
	// fleet; zero in a param-enabled campaign flags a dead dimension.
	ParamWrites uint64 `json:"param_writes"`
	// LineageExecs aggregates fork-style lineage executions across the
	// fleet; zero in a lineage-enabled campaign flags a dead fan-out path
	// (executor without checkpoint support, or no kernel-new admissions).
	LineageExecs uint64 `json:"lineage_execs"`
	Relations    struct {
		Vertices int    `json:"vertices"`
		Edges    int    `json:"edges"`
		Learned  uint64 `json:"learned"`
	} `json:"relations"`
	Bugs []bugSummary `json:"bugs"`
}

type bugSummary struct {
	Title     string `json:"title"`
	Device    string `json:"device"`
	Component string `json:"component"`
	Type      string `json:"type"`
	FoundAt   uint64 `json:"found_at"`
	Count     int    `json:"count"`
}

// WriteStatus emits a machine-readable status snapshot as JSON, the feed a
// monitoring dashboard would poll.
func (d *Daemon) WriteStatus(w io.Writer) error {
	ids, engines := d.attached()
	rep := statusReport{Devices: make(map[string]engine.Stats, len(ids)), Fleet: d.fleet.Load()}
	for i, e := range engines {
		st := e.Stats()
		rep.Devices[ids[i]] = st
		rep.ExecErrors += st.ExecErrors
		rep.ParamWrites += st.ParamWrites
		rep.LineageExecs += st.LineageExecs
	}
	rep.Relations.Vertices = d.graph.Len()
	rep.Relations.Edges = d.graph.Edges()
	rep.Relations.Learned = d.graph.Learns()
	for _, r := range d.Bugs() {
		rep.Bugs = append(rep.Bugs, bugSummary{
			Title: r.Title, Device: r.Device,
			Component: string(r.Component), Type: string(r.Type),
			FoundAt: r.FoundAt, Count: r.Count,
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}

// LoadCorpora restores previously saved corpora from dir/<modelID>/ into
// the matching engines, returning per-device load counts. File I/O runs
// outside the daemon lock.
func (d *Daemon) LoadCorpora(dir string) (map[string]int, error) {
	ids, engines := d.attached()
	out := make(map[string]int)
	for i, eng := range engines {
		n, err := eng.Corpus().Load(filepath.Join(dir, ids[i]), eng.Gen().Target())
		if err != nil {
			return out, err
		}
		out[ids[i]] = n
	}
	return out, nil
}
