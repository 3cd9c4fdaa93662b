// Command droidfleet runs one campaign across a fleet of virtual device
// models through the daemon: engines share a relation table and a global
// crash dedup collector, and run concurrently on a bounded worker pool.
//
// Usage:
//
//	droidfleet -devices A1,B,D -iters 20000 [-seed 1] [-workers 4]
//	           [-pipeline 4] [-batch 32] [-params]
//	           [-reset never|exec|batch] [-lineage K] [-lineage-len L]
//	           [-rounds 4] [-corpus DIR] [-status status.json]
//	droidfleet -remote 127.0.0.1:7100,127.0.0.1:7101 -iters 20000 ...
//	droidfleet -coord 127.0.0.1:7200 [-host-name lab-3] ...
//
// -workers bounds how many device engines run at once (0 = one worker per
// CPU, capped at the fleet size). -pipeline sets each engine's generation
// look-ahead depth, and -batch makes engines execute programs in batches of
// that size through the executors' batch extension; with both at 0 each
// engine runs the serial schedule. A batch is generated ahead in full, so
// -batch N alone implies a look-ahead of N. Every engine lands its relation
// learns in the shared table at the end of each executor call, so a
// one-device fleet replays itself per seed under any schedule, and with
// both at 0 `droidfleet -devices A1` replays the serial campaign
// bit-identically. Engines of a multi-device fleet run concurrently and
// land their learns in whatever order their calls finish, so such a fleet
// is not byte-reproducible.
// With -remote, batching is the wire-protocol-v2 fast path — one frame
// per batch, delta-coded traces, and the interesting-only summary uplink.
// The campaign runs in -rounds slices, printing fleet stats — including
// accumulated execution errors — after each, plus per-connection uplink
// byte savings for remote campaigns.
//
// -params enables the runtime-parameter dimension: probing discovers
// writable sysfs knobs, the targets gain their write descriptions, and the
// relation graph learns knob↔ioctl couplings; the status report then
// carries the fleet-wide param-write count. Off by default — campaigns
// without it are bit-identical to pre-params builds. Knob discovery runs
// at in-process bring-up, so -params applies to in-process and -coord
// fleets and is rejected with -remote (droidbrokerd probes without it).
//
// -reset selects the pristine-reset campaign mode: "never" (default)
// resets only on crash fallout, "exec" snapshot-restores before every
// unbatched execution so each program runs against pristine state, and
// "batch" restores once per execution batch. -lineage K forks K cloned
// mutation lineages from the post-prefix device state whenever a program
// is admitted with new kernel coverage, and -lineage-len bounds each
// lineage's mutation chain (0 = the engine default). Both ride the
// checkpoint Export/Import path, so they work unchanged against -remote
// brokers; the status report gains the fleet-wide lineage_execs count.
//
// With -remote, the fleet drives broker daemons (droidbrokerd) over TCP
// instead of booting devices in-process: each address is dialed through a
// resilient reconnecting client, the attach handshake delivers the
// device's interface surface and probing seeds, and a broker that dies
// mid-campaign degrades only its own engine (visible as execerrs) while
// the rest of the fleet finishes.
//
// With -coord, this process becomes one host of a multi-host fleet: it
// registers with a droidcoordd coordinator, leases campaign shards (models,
// seed ranges, and iteration budgets come from the coordinator — the local
// -devices/-iters/-seed flags are ignored), runs them with work stealing,
// and exchanges federation deltas every epoch. The status report gains the
// fleet block (host ID, shard epochs, federation bytes, steals, and the
// converged corpus fingerprint).
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"
	"sort"
	"strings"
	"time"

	"droidfuzz/internal/adb"
	"droidfuzz/internal/coord"
	"droidfuzz/internal/crash"
	"droidfuzz/internal/daemon"
	"droidfuzz/internal/device"
	"droidfuzz/internal/dsl"
	"droidfuzz/internal/engine"
)

func main() {
	var (
		devices    = flag.String("devices", "A1,B,D", "comma-separated device model IDs (ignored with -remote/-coord)")
		remote     = flag.String("remote", "", "comma-separated droidbrokerd addresses to drive instead of in-process devices")
		coordAddr  = flag.String("coord", "", "droidcoordd address: join a multi-host fleet as one coordinated host")
		hostName   = flag.String("host-name", "", "advisory host label sent to the coordinator (default: os hostname)")
		iters      = flag.Int("iters", 20000, "fuzzing iterations per device")
		seed       = flag.Int64("seed", 1, "base RNG seed (device i uses seed+i)")
		workers    = flag.Int("workers", 0, "max concurrent device engines (0 = NumCPU)")
		pipeline   = flag.Int("pipeline", 0, "per-engine generation look-ahead depth (0 = serial)")
		batch      = flag.Int("batch", 0, "programs per execution batch (0 = per-program execution; N > 1 generates N programs ahead)")
		rounds     = flag.Int("rounds", 4, "status-report slices to split the campaign into")
		params     = flag.Bool("params", false, "enable the runtime-parameter dimension (sysfs knob writes in the mutation surface)")
		reset      = flag.String("reset", "never", "pristine-reset campaign mode: never, exec, or batch")
		lineage    = flag.Int("lineage", 0, "lineage fan-out width K: clone the post-prefix state K ways per new-coverage admission (0 = off)")
		lineageLen = flag.Int("lineage-len", 0, "mutations per lineage (0 = engine default)")
		corpusDir  = flag.String("corpus", "", "directory to save per-device corpora (optional)")
		statusOut  = flag.String("status", "", "file to write the final JSON status report (optional)")
	)
	flag.Parse()
	if !engine.ValidResetMode(*reset) {
		fmt.Fprintf(os.Stderr, "droidfleet: invalid -reset %q (want never, exec, or batch)\n", *reset)
		os.Exit(2)
	}

	cfg := fleetConfig{
		devices: *devices, remote: *remote,
		coord: *coordAddr, hostName: *hostName,
		iters: *iters, seed: *seed, workers: *workers,
		pipeline: *pipeline, batch: *batch,
		rounds: *rounds, params: *params,
		reset: *reset, lineage: *lineage, lineageLen: *lineageLen,
		corpusDir: *corpusDir, statusOut: *statusOut,
	}
	if err := run(cfg); err != nil {
		fmt.Fprintln(os.Stderr, "droidfleet:", err)
		os.Exit(1)
	}
}

type fleetConfig struct {
	devices    string
	remote     string
	coord      string
	hostName   string
	iters      int
	seed       int64
	workers    int
	pipeline   int
	batch      int
	rounds     int
	params     bool
	reset      string
	lineage    int
	lineageLen int
	corpusDir  string
	statusOut  string
}

// validate rejects flag values that would silently misbehave: negative
// budgets and worker counts, -params over remote brokers, and device IDs
// outside the Table I models.
func (c *fleetConfig) validate() error {
	switch {
	case c.iters < 0:
		return fmt.Errorf("-iters must be >= 0, got %d", c.iters)
	case c.rounds < 0:
		return fmt.Errorf("-rounds must be >= 0, got %d", c.rounds)
	case c.pipeline < 0:
		return fmt.Errorf("-pipeline must be >= 0, got %d", c.pipeline)
	case c.workers < 0:
		return fmt.Errorf("-workers must be >= 0, got %d", c.workers)
	case c.batch < 0:
		return fmt.Errorf("-batch must be >= 0, got %d", c.batch)
	}
	if c.remote != "" && c.coord != "" {
		return fmt.Errorf("-remote and -coord are mutually exclusive")
	}
	if c.remote != "" && c.params {
		return fmt.Errorf("-params needs in-process devices or -coord: remote brokers probe without knob discovery")
	}
	if c.remote != "" || c.coord != "" {
		return nil // device IDs come from the remote handshakes / coordinator
	}
	valid := device.IDs()
	for _, id := range splitList(c.devices) {
		if !slices.Contains(valid, id) {
			return fmt.Errorf("unknown device model %q (valid: %s)",
				id, strings.Join(valid, ", "))
		}
	}
	return nil
}

// splitList splits a comma-separated flag, trimming blanks.
func splitList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}

func run(cfg fleetConfig) error {
	if err := cfg.validate(); err != nil {
		return err
	}
	if cfg.coord != "" {
		return runCoordinated(cfg)
	}
	d, remotes, err := newFleet(cfg)
	if err != nil {
		return err
	}
	mode := "in-process"
	if cfg.remote != "" {
		mode = "remote"
	}
	fmt.Printf("fleet: %s (%s, workers=%d pipeline=%d batch=%d)\n",
		strings.Join(d.Devices(), ", "), mode, cfg.workers, cfg.pipeline, cfg.batch)
	campaign(d, cfg.iters, cfg.rounds, func() { printStats(d) })
	printWireStats(remotes)
	return report(d, cfg)
}

// newFleet attaches the configured devices — in-process models or remote
// brokers — to a fresh daemon tuned by the execution flags.
func newFleet(cfg fleetConfig) (*daemon.Daemon, map[string]*adb.Resilient, error) {
	d := daemon.New()
	var remotes map[string]*adb.Resilient
	if cfg.remote != "" {
		var err error
		if remotes, err = attachRemotes(d, cfg); err != nil {
			return nil, nil, err
		}
	} else {
		for i, id := range splitList(cfg.devices) {
			if err := d.AddDevice(id, engine.Config{
				Seed: cfg.seed + int64(i), Params: cfg.params,
				Reset: cfg.reset, LineageK: cfg.lineage, LineageLen: cfg.lineageLen,
			}); err != nil {
				return nil, nil, err
			}
		}
	}
	if len(d.Devices()) == 0 {
		return nil, nil, fmt.Errorf("no devices configured")
	}
	d.SetMaxWorkers(cfg.workers)
	d.SetPipelineDepth(cfg.pipeline)
	d.SetBatchSize(cfg.batch)
	return d, remotes, nil
}

// campaign runs iters iterations on every engine in rounds slices, calling
// after at the end of each slice. Each engine carries its RNGs across
// slices, so a one-device campaign cut into rounds is still deterministic
// per seed.
func campaign(d *daemon.Daemon, iters, rounds int, after func()) {
	if rounds <= 0 {
		rounds = 1
	}
	per := iters / rounds
	if per == 0 {
		per, rounds = iters, 1
	}
	for r := 0; r < rounds; r++ {
		n := per
		if r == rounds-1 {
			n = iters - per*(rounds-1)
		}
		d.Run(n, true)
		after()
	}
}

// runCoordinated joins a droidcoordd fleet as one host: shard leases,
// work stealing, and federation epochs all come from the coordinator, and
// the local flags only tune this host's execution layer.
func runCoordinated(cfg fleetConfig) error {
	name := cfg.hostName
	if name == "" {
		name, _ = os.Hostname()
	}
	cl, err := coord.DialClient(cfg.coord, coord.ClientOptions{})
	if err != nil {
		return fmt.Errorf("coordinator %s: %w", cfg.coord, err)
	}
	defer cl.Close()
	h := coord.NewHost(cl, coord.HostOptions{
		Name:           name,
		Workers:        cfg.workers,
		Pipeline:       cfg.pipeline,
		Batch:          cfg.batch,
		HeartbeatEvery: time.Second,
		Engine: engine.Config{
			Params: cfg.params, Reset: cfg.reset,
			LineageK: cfg.lineage, LineageLen: cfg.lineageLen,
		},
	})
	fmt.Printf("fleet: coordinated host %q -> %s (workers=%d pipeline=%d batch=%d)\n",
		name, cfg.coord, cfg.workers, cfg.pipeline, cfg.batch)
	if err := h.Run(); err != nil {
		return err
	}
	d := h.Daemon()
	fmt.Printf("host %s done: %d shard steal(s), corpus fingerprint %#x\n",
		h.ID(), h.Steals(), h.Fingerprint())
	printStats(d)
	return report(d, cfg)
}

// report prints the crash and relation tables, then saves the corpora and
// writes the JSON status report when the flags ask for them.
func report(d *daemon.Daemon, cfg fleetConfig) error {
	fmt.Println()
	fmt.Println(crash.Table(d.Bugs()))
	fmt.Printf("relation table: %v\n", d.Graph())
	if cfg.corpusDir != "" {
		if err := d.SaveCorpora(cfg.corpusDir); err != nil {
			return err
		}
		fmt.Printf("corpora saved to %s\n", cfg.corpusDir)
	}
	if cfg.statusOut != "" {
		f, err := os.Create(cfg.statusOut)
		if err != nil {
			return err
		}
		if err := d.WriteStatus(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("status written to %s\n", cfg.statusOut)
	}
	return nil
}

// attachRemotes dials every broker address, runs the attach handshake, and
// wires a resilient engine per device into the daemon. The handshake
// delivers the broker's interface surface (rebuilt and hash-verified
// host-side) and its probing-pass seed programs, so the remote engine
// starts from the same corpus an in-process one would.
func attachRemotes(d *daemon.Daemon, cfg fleetConfig) (map[string]*adb.Resilient, error) {
	addrs := splitList(cfg.remote)
	if len(addrs) == 0 {
		return nil, fmt.Errorf("-remote given but no addresses parsed from %q", cfg.remote)
	}
	remotes := make(map[string]*adb.Resilient, len(addrs))
	seen := make(map[string]int)
	for i, addr := range addrs {
		r, err := adb.DialResilient(addr, adb.ResilientOptions{})
		if err != nil {
			return nil, fmt.Errorf("attach %s: %w", addr, err)
		}
		info, _ := r.Info()
		id := info.ModelID
		if id == "" {
			id = addr
		}
		// Several brokers may serve the same model; suffix duplicates so
		// each engine keys its own stats row.
		if n := seen[id]; n > 0 {
			id = fmt.Sprintf("%s#%d", id, n+1)
		}
		seen[info.ModelID]++
		seeds, err := parseSeeds(r.Target(), r.Seeds())
		if err != nil {
			return nil, fmt.Errorf("attach %s: %w", addr, err)
		}
		if err := d.AttachExecutor(id, r, seeds, engine.Config{
			Seed: cfg.seed + int64(i), Params: cfg.params,
			Reset: cfg.reset, LineageK: cfg.lineage, LineageLen: cfg.lineageLen,
		}); err != nil {
			return nil, err
		}
		remotes[id] = r
		fmt.Printf("attached %s: %s (%d interfaces, %d seeds)\n",
			addr, id, len(r.Target().Calls()), len(seeds))
	}
	return remotes, nil
}

// printWireStats reports the batched-uplink byte accounting per remote
// engine: how many coverage bytes the delta-coded, interesting-only uplink
// shipped versus the flat encoding the v1 protocol would have used.
func printWireStats(remotes map[string]*adb.Resilient) {
	ids := make([]string, 0, len(remotes))
	for id := range remotes {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		w := remotes[id].WireStats()
		if w.Execs == 0 {
			continue
		}
		fmt.Printf("  wire %-3s batched=%d elided=%d cov=%dB raw=%dB saved=%dB\n",
			id, w.Execs, w.Elided, w.CovWireBytes, w.CovRawBytes, w.Saved())
	}
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

func printStats(d *daemon.Daemon) {
	st := d.Stats()
	ids := make([]string, 0, len(st))
	for id := range st {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		s := st[id]
		fmt.Printf("  %-3s execs=%d cover=%d signal=%d corpus=%d crashes=%d execerrs=%d\n",
			id, s.Execs, s.KernelCov, s.TotalSignal, s.CorpusSize, s.Crashes, s.ExecErrors)
	}
}
