package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"sort"
	"sync"
	"time"

	"droidfuzz/internal/adb"
	"droidfuzz/internal/bugs"
	"droidfuzz/internal/coord"
	"droidfuzz/internal/corpus"
	"droidfuzz/internal/daemon"
	"droidfuzz/internal/device"
	"droidfuzz/internal/dsl"
	"droidfuzz/internal/engine"
	"droidfuzz/internal/feedback"
	"droidfuzz/internal/probe"
)

// Campaign budgets. table2Iters is the paper's Table II budget (144 h ≙
// 60 000 iterations, EXPERIMENTS.md); the other workloads run half of it so
// that every campaign finishes in a few seconds on a 2-core machine.
const (
	table2Iters   = 60000
	campaignIters = 30000
	fleetShards   = 8
	fleetEpoch    = 256
	// smokeIters and smokeShards shrink every workload to a test-sized
	// campaign (spec.Smoke).
	smokeIters  = 300
	smokeShards = 2
)

// remoteModels are the devices the remote workload serves over loopback TCP:
// A1 carries five Table II bugs and B crashes early, so the wire carries
// both steady traffic and crash fallout.
var remoteModels = []string{"A1", "B"}

// workload is one fixed campaign shape.
type workload struct {
	name string
	// deterministic workloads repeat every count bit-exactly per seed, so
	// the harness checks coverage, bugs and corpus across repeats.
	deterministic bool
	// seeds is how many distinct seeds an untraced run's outcome counts
	// average over: enough to keep their spread across base seeds well
	// inside the bounds.
	seeds int
	setup func(s spec, tr *tracer) (campaign, error)
}

// workloads is the benchmark's fixed set; README.md gives the reason for
// each. serial-table2 finds 11 or 12 bugs on every seed, so one seed keeps
// its counts steady; pristine-lineage averages over three seeds because the
// bugs that need accumulated driver state turn up in a minority of its
// seeds.
var workloads = []workload{
	{name: "serial-table2", deterministic: true, seeds: 1, setup: setupSerialTable2},
	{name: "remote-batched", seeds: 2, setup: setupRemoteBatched},
	{name: "pristine-lineage", deterministic: true, seeds: 3, setup: setupPristineLineage},
	{name: "fleet-2host", seeds: 2, setup: setupFleet2Host},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// campaign is one set-up workload instance, ready to run its fixed budget.
type campaign interface {
	// run executes the timed campaign.
	run() error
	// daemons returns every daemon the campaign drives.
	daemons() []*daemon.Daemon
	// check appends the workload's own correctness failures to o and fills
	// its workload-specific counters.
	check(o *outcome)
	close()
}

func budget(s spec, iters int) int {
	if s.Smoke {
		return smokeIters
	}
	return iters
}

// inproc is a daemon over in-process devices: serial-table2 and
// pristine-lineage.
type inproc struct {
	d        *daemon.Daemon
	iters    int
	parallel bool
	// pristine marks the Reset: exec + lineage workload.
	pristine bool
}

func setupSerialTable2(s spec, tr *tracer) (campaign, error) {
	return setupInproc(s, tr, budget(s, table2Iters), engine.Config{})
}

func setupPristineLineage(s spec, tr *tracer) (campaign, error) {
	c, err := setupInproc(s, tr, budget(s, campaignIters), engine.Config{Reset: engine.ResetExec, LineageK: 4})
	if err != nil {
		return nil, err
	}
	c.pristine = true
	return c, nil
}

// setupInproc attaches all seven Table I models to one daemon, device i
// seeded seed+i. Untraced it calls AddDevice, exactly as droidfleet does;
// traced it builds the same engine through AttachExecutor so the broker can
// be wrapped, and the determinism checks prove the two paths equal.
func setupInproc(s spec, tr *tracer, iters int, base engine.Config) (*inproc, error) {
	d := daemon.New()
	for i, id := range device.IDs() {
		cfg := base
		cfg.Seed = s.Seed + int64(i)
		var err error
		if tr != nil {
			err = tr.attach(d, id, id, cfg)
		} else {
			err = d.AddDevice(id, cfg)
		}
		if err != nil {
			return nil, err
		}
	}
	if s.FailNext > 0 {
		b := d.Engine(device.IDs()[0]).Broker()
		if b == nil {
			return nil, fmt.Errorf("fault injection needs an unwrapped in-process broker")
		}
		b.FailNext(s.FailNext)
	}
	return &inproc{d: d, iters: iters}, nil
}

func (c *inproc) run() error                { c.d.Run(c.iters, c.parallel); return nil }
func (c *inproc) daemons() []*daemon.Daemon { return []*daemon.Daemon{c.d} }
func (c *inproc) close()                    {}

func (c *inproc) check(o *outcome) {
	checkBudget(o, c.d, c.iters)
	if !c.pristine {
		return
	}
	stats := c.d.Stats()
	for _, id := range c.d.Devices() {
		// Every mainline iteration starts from a restore.
		if st := stats[id]; st.Restores < iterations(st) {
			o.failf("%s: %d restores < %d mainline iterations", id, st.Restores, iterations(st))
		}
	}
	if o.LineageExecs == 0 {
		o.failf("no lineage executions")
	}
}

// bootAndProbe boots a model and runs the probing pass: the first half of
// both baseline.NewDroidFuzz (what AddDevice runs) and droidbrokerd's
// buildServer.
func bootAndProbe(modelID string, tr *tracer) (*device.Device, *dsl.Target, *probe.Result, error) {
	model, err := device.ModelByID(modelID)
	if err != nil {
		return nil, nil, nil, err
	}
	t0 := time.Now()
	dev := device.New(model)
	tr.phase(pBoot, t0)
	t0 = time.Now()
	target, err := dsl.NewTarget(dev.SyscallDescs()...)
	if err != nil {
		return nil, nil, nil, err
	}
	pr, err := probe.Run(dev, probe.Options{})
	if err != nil {
		return nil, nil, nil, err
	}
	if target, err = target.Extend(pr.Interfaces...); err != nil {
		return nil, nil, nil, err
	}
	tr.phase(pProbe, t0)
	return dev, target, pr, nil
}

// remote drives A1 and B over loopback TCP brokers.
type remote struct {
	inproc
	lns     []net.Listener
	clients []*adb.Resilient
}

func setupRemoteBatched(s spec, tr *tracer) (campaign, error) {
	c := &remote{inproc: inproc{d: daemon.New(), iters: budget(s, campaignIters), parallel: true}}
	for i, id := range remoteModels {
		if err := c.attach(id, s.Seed+int64(i), tr); err != nil {
			c.close()
			return nil, fmt.Errorf("attach %s: %w", id, err)
		}
	}
	c.d.SetMaxWorkers(2)
	c.d.SetPipelineDepth(4)
	c.d.SetBatchSize(16)
	return c, nil
}

// attach serves one model on a loopback broker and attaches a resilient
// client to the daemon, as droidbrokerd and droidfleet -remote do.
func (c *remote) attach(id string, seed int64, tr *tracer) error {
	dev, target, pr, err := bootAndProbe(id, tr)
	if err != nil {
		return err
	}
	t0 := time.Now()
	seeds := make([]string, len(pr.Seeds))
	for i, p := range pr.Seeds {
		seeds[i] = p.String()
	}
	srv := &adb.Server{X: tr.wrap(id, sideBroker, adb.NewBroker(dev, target)), Seeds: seeds}
	srv.NewFilter = func() adb.UplinkFilter { return feedback.NewUplinkFilter(target) }
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	c.lns = append(c.lns, ln)
	go srv.ServeTCP(tr.countListener(ln, linkWire)) // returns once close() closes ln

	r, err := adb.DialResilient(ln.Addr().String(), adb.ResilientOptions{})
	if err != nil {
		return err
	}
	c.clients = append(c.clients, r)
	progs, err := parseSeeds(r.Target(), r.Seeds())
	if err != nil {
		return err
	}
	tr.phase(pDial, t0)
	t0 = time.Now()
	if err := c.d.AttachExecutor(id, tr.wrap(id, sideHost, r), progs, engine.Config{Seed: seed}); err != nil {
		return err
	}
	tr.phase(pSeed, t0)
	return nil
}

// parseSeeds decodes handshake seed programs against the rebuilt target.
func parseSeeds(target *dsl.Target, texts []string) ([]*dsl.Prog, error) {
	seeds := make([]*dsl.Prog, 0, len(texts))
	for i, text := range texts {
		p, err := dsl.ParseProg(target, text)
		if err != nil {
			return nil, fmt.Errorf("seed %d: %w", i, err)
		}
		seeds = append(seeds, p)
	}
	return seeds, nil
}

func (c *remote) close() {
	for _, r := range c.clients {
		r.Close()
	}
	for _, ln := range c.lns {
		ln.Close()
	}
}

func (c *remote) check(o *outcome) {
	checkBudget(o, c.d, c.iters)
	for i, r := range c.clients {
		w := r.WireStats()
		o.WireExecs += w.Execs
		o.WireElided += w.Elided
		if w.Execs == 0 || w.Elided == 0 {
			o.failf("%s: wire batched=%d elided=%d, want both > 0", remoteModels[i], w.Execs, w.Elided)
		}
	}
}

// fleet is a coordinator plus two hosts over loopback TCP in one process.
type fleet struct {
	c      *coord.Coordinator
	ln     net.Listener
	cls    []*coord.Client
	hosts  []*coord.Host
	iters  int
	shards int
}

func setupFleet2Host(s spec, tr *tracer) (campaign, error) {
	f := &fleet{iters: budget(s, campaignIters), shards: fleetShards}
	if s.Smoke {
		f.shards = smokeShards
	}
	t0 := time.Now()
	c, err := coord.New(coord.Campaign{
		Models: device.IDs(), Shards: f.shards, Devices: 1,
		Iters: f.iters, Seed: s.Seed, EpochIters: fleetEpoch,
	}, coord.Options{Hosts: 2})
	if err != nil {
		return nil, err
	}
	f.c = c
	if f.ln, err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
		return nil, err
	}
	go (&coord.Server{C: c}).ServeTCP(tr.countListener(f.ln, linkCoord)) // returns once close() closes ln
	for i := 0; i < 2; i++ {
		cl, err := coord.DialClient(f.ln.Addr().String(), coord.ClientOptions{})
		if err != nil {
			f.close()
			return nil, err
		}
		f.cls = append(f.cls, cl)
		opts := coord.HostOptions{Name: fmt.Sprintf("bench%d", i), Workers: 1, HeartbeatEvery: time.Second}
		// Register here so set-up covers it; Host.Run registers again with
		// the client's nonce and gets the same identity back.
		if _, err := cl.Register(opts.Name); err != nil {
			f.close()
			return nil, err
		}
		if tr != nil {
			// Devices attach when their shard is leased, inside the timed
			// campaign; traced, the attach is AddDeviceAs's sequence with a
			// wrapped broker.
			opts.Attach = func(d *daemon.Daemon, id, model string, seed int64) error {
				return tr.attach(d, id, model, engine.Config{Seed: seed})
			}
		}
		f.hosts = append(f.hosts, coord.NewHost(cl, opts))
	}
	tr.phase(pDial, t0)
	return f, nil
}

func (f *fleet) run() error {
	errs := make([]error, len(f.hosts))
	var wg sync.WaitGroup
	for i, h := range f.hosts {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = h.Run()
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

func (f *fleet) daemons() []*daemon.Daemon {
	out := make([]*daemon.Daemon, len(f.hosts))
	for i, h := range f.hosts {
		out[i] = h.Daemon()
	}
	return out
}

func (f *fleet) close() {
	for _, cl := range f.cls {
		cl.Close()
	}
	if f.ln != nil {
		f.ln.Close()
	}
}

func (f *fleet) check(o *outcome) {
	engines := 0
	for _, h := range f.hosts {
		checkBudget(o, h.Daemon(), f.iters)
		engines += len(h.Daemon().Devices())
		fs, err := fleetStatus(h.Daemon())
		if err != nil {
			o.failf("host %s: %v", h.ID(), err)
			continue
		}
		o.FedEpochs += fs.ShardEpoch
		o.FedBytesIn += fs.FedBytesIn
		o.FedBytesOut += fs.FedBytesOut
		o.LearnsDropped += fs.LearnsDropped
		if fs.FedBytesIn == 0 || fs.FedBytesOut == 0 {
			o.failf("host %s: federation bytes in=%d out=%d, want both > 0", h.ID(), fs.FedBytesIn, fs.FedBytesOut)
		}
	}
	if engines != f.shards {
		o.failf("fleet ran %d shard devices, want %d", engines, f.shards)
	}
	o.CorpusHash = f.hosts[0].Fingerprint()
	for _, h := range f.hosts[1:] {
		if fp := h.Fingerprint(); fp != o.CorpusHash || fp == 0 {
			o.failf("host corpus fingerprints %#x and %#x differ or are zero", o.CorpusHash, fp)
		}
	}
	st, _ := f.c.Snapshot()
	if st.ShardsDone != st.ShardsTotal {
		o.failf("coordinator: %d/%d shards done", st.ShardsDone, st.ShardsTotal)
	}
	o.LearnsDropped += st.LearnsDropped
	if o.LearnsDropped != 0 {
		o.failf("%d federated learn records dropped", o.LearnsDropped)
	}
	o.Steals = st.Steals
	merged := f.c.Merged()
	o.Edges, o.Learned = merged.Edges(), merged.Learns()
}

// fleetStatus reads a host daemon's fleet block through WriteStatus, the
// status feed droidfleet -coord writes.
func fleetStatus(d *daemon.Daemon) (daemon.FleetStatus, error) {
	var buf bytes.Buffer
	if err := d.WriteStatus(&buf); err != nil {
		return daemon.FleetStatus{}, err
	}
	var rep struct {
		Fleet *daemon.FleetStatus `json:"fleet"`
	}
	if err := json.Unmarshal(buf.Bytes(), &rep); err != nil {
		return daemon.FleetStatus{}, err
	}
	if rep.Fleet == nil {
		return daemon.FleetStatus{}, fmt.Errorf("status has no fleet block")
	}
	return *rep.Fleet, nil
}

// bugHit is one Table II bug a campaign found.
type bugHit struct {
	ID      int    `json:"id"`
	Title   string `json:"title"`
	Device  string `json:"device"`
	FoundAt uint64 `json:"found_at"`
}

// outcome is what one campaign produced, summed over its devices.
type outcome struct {
	Execs        uint64   `json:"execs"`
	ExecErrors   uint64   `json:"exec_errors"`
	Iterations   uint64   `json:"iterations"`
	NewSignal    uint64   `json:"new_signal"`
	LineageExecs uint64   `json:"lineage_execs"`
	KernelCov    int      `json:"kernel_cov"`
	HALSignal    int      `json:"hal_signal"`
	CorpusSize   int      `json:"corpus_size"`
	CorpusHash   uint64   `json:"corpus_hash"`
	Crashes      int      `json:"crash_unique"`
	Bugs         []bugHit `json:"bugs"`
	Edges        int      `json:"relation_edges"`
	Learned      uint64   `json:"relation_learned"`
	// Remote and fleet counters; zero where the layer is absent.
	WireExecs     uint64 `json:"wire_execs"`
	WireElided    uint64 `json:"wire_elided"`
	FedEpochs     uint64 `json:"fed_epochs"`
	FedBytesIn    uint64 `json:"fed_bytes_in"`
	FedBytesOut   uint64 `json:"fed_bytes_out"`
	LearnsDropped uint64 `json:"learns_dropped"`
	Steals        uint64 `json:"steals"`
	// Failures lists every correctness check the campaign failed.
	Failures []string `json:"failures,omitempty"`
}

func (o *outcome) failf(format string, args ...any) {
	o.Failures = append(o.Failures, fmt.Sprintf(format, args...))
}

// iterations is the number of campaign iterations an engine ran: each is
// one generated or mutated program, and lineage mutants count as mutated.
func iterations(st engine.Stats) int {
	return int(st.Generated + st.Mutated - st.LineageExecs)
}

// checkBudget fails every device of d that did not run exactly iters
// iterations.
func checkBudget(o *outcome, d *daemon.Daemon, iters int) {
	stats := d.Stats()
	for _, id := range d.Devices() {
		if n := iterations(stats[id]); n != iters {
			o.failf("%s: ran %d iterations, want %d", id, n, iters)
		}
	}
}

// totalExecs sums device executions over the campaign's daemons.
func totalExecs(c campaign) uint64 {
	var n uint64
	for _, d := range c.daemons() {
		for _, st := range d.Stats() {
			n += st.Execs
		}
	}
	return n
}

// collect sums the campaign's counters over every device of every daemon,
// then runs the checks common to all workloads and the workload's own.
func collect(c campaign) outcome {
	var o outcome
	var corpusFP uint64 = 14695981039346656037 // FNV-1a over the per-program hashes
	seen := make(map[bugs.ID]bool)
	for _, d := range c.daemons() {
		stats := d.Stats()
		for _, id := range d.Devices() {
			st := stats[id]
			o.Execs += st.Execs
			o.ExecErrors += st.ExecErrors
			o.Iterations += uint64(iterations(st))
			o.NewSignal += st.NewSignal
			o.LineageExecs += st.LineageExecs
			o.KernelCov += st.KernelCov
			o.HALSignal += st.TotalSignal - st.KernelCov
			o.CorpusSize += st.CorpusSize
			for _, text := range d.Engine(id).Corpus().Texts(0) {
				corpusFP = (corpusFP ^ corpus.Hash(text)) * 1099511628211
			}
		}
		o.Edges, o.Learned = d.Graph().Edges(), d.Graph().Learns()
		for _, r := range d.Bugs() {
			o.Crashes++
			id, ok := bugs.TitleToID(r.Title)
			if !ok || seen[id] {
				continue
			}
			seen[id] = true
			o.Bugs = append(o.Bugs, bugHit{ID: int(id), Title: r.Title, Device: r.Device, FoundAt: r.FoundAt})
		}
	}
	sort.Slice(o.Bugs, func(i, j int) bool { return o.Bugs[i].ID < o.Bugs[j].ID })
	o.CorpusHash = corpusFP
	if o.ExecErrors != 0 {
		o.failf("%d of %d executions failed", o.ExecErrors, o.Execs)
	}
	c.check(&o)
	return o
}
