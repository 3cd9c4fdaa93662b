package main

import (
	"bufio"
	"fmt"
	"net"
	"os"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"droidfuzz/internal/adb"
	"droidfuzz/internal/daemon"
	"droidfuzz/internal/dsl"
	"droidfuzz/internal/engine"
)

// The tracer records spans around the calls the benchmark makes into the
// program's public boundaries: a wrapper adb.Executor around every executor
// the workload attaches (host side) or serves (broker side), and byte
// counters on the broker and coordinator listeners. Spans stay in memory,
// keyed by (device, seq), and are reduced to the per-layer ledger when the
// campaign ends. A nil *tracer is valid and records nothing, which is how
// untraced campaigns run.
type tracer struct {
	origin time.Time
	// from and to bound the timed campaign, as offsets from origin.
	from, to int64
	phases   [nPhases]atomic.Int64
	// linkIn/linkOut count bytes the listener side read and wrote;
	// linkMark holds their values when the campaign started and linkBytes
	// what moved, in and out, while it ran.
	linkIn, linkOut [nLinks]atomic.Int64
	linkMark        [nLinks][2]int64
	linkBytes       [nLinks][2]int64
	mu              sync.Mutex
	recs            []*recorder
}

// phase is a set-up step; the ledger reports each as setup.<phase>_s.
type phase int

const (
	pBoot phase = iota
	pProbe
	pSeed
	pDial
	nPhases
)

// Counted links: the broker transport and the coordinator transport.
type link int

const (
	linkWire link = iota
	linkCoord
	nLinks
)

// side says which end of the execution boundary a recorder wraps.
type side uint8

const (
	sideHost   side = iota // the executor an engine calls
	sideBroker             // the executor a transport server calls
)

type spanKind uint8

const (
	kExec spanKind = iota
	kBatch
	kReset
	kReboot
	kExport
	kImport
	nKinds
)

var (
	sideNames = [...]string{sideHost: "host", sideBroker: "broker"}
	kindNames = [nKinds]string{"exec", "batch", "reset", "reboot", "export", "import"}
)

// span is one timed call. start and dur are nanoseconds from the tracer
// origin; n is the batch size or checkpoint bytes.
type span struct {
	start, dur int64
	seq        uint32
	n          int32
	kind       spanKind
	restored   bool
}

// recorder holds one wrapped executor's spans; seq numbers them per device.
type recorder struct {
	t     *tracer
	dev   string
	side  side
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

func (t *tracer) phase(p phase, since time.Time) {
	if t != nil {
		t.phases[p].Add(int64(time.Since(since)))
	}
}

// begin and end mark the timed campaign.
func (t *tracer) begin() {
	t.from = int64(time.Since(t.origin))
	for l := range t.linkMark {
		t.linkMark[l] = [2]int64{t.linkIn[l].Load(), t.linkOut[l].Load()}
	}
}

func (t *tracer) end() {
	t.to = int64(time.Since(t.origin))
	for l := range t.linkBytes {
		t.linkBytes[l] = [2]int64{t.linkIn[l].Load() - t.linkMark[l][0], t.linkOut[l].Load() - t.linkMark[l][1]}
	}
}

func (r *recorder) add(kind spanKind, start time.Time, n int, restored bool) {
	end := time.Now()
	r.mu.Lock()
	r.spans = append(r.spans, span{
		start: int64(start.Sub(r.t.origin)), dur: int64(end.Sub(start)),
		seq: uint32(len(r.spans)), n: int32(n), kind: kind, restored: restored,
	})
	r.mu.Unlock()
}

// attach is daemon.AddDeviceAs's attach sequence (boot, probe, broker,
// engine, seed corpus) with the broker wrapped: the traced stand-in for
// AddDevice and for coord.HostOptions.Attach.
func (t *tracer) attach(d *daemon.Daemon, id, model string, cfg engine.Config) error {
	dev, target, pr, err := bootAndProbe(model, t)
	if err != nil {
		return err
	}
	t0 := time.Now()
	x := t.wrap(id, sideHost, adb.NewBroker(dev, target))
	t.phase(pDial, t0)
	t0 = time.Now()
	if err := d.AttachExecutor(id, x, pr.Seeds, cfg); err != nil {
		return err
	}
	t.phase(pSeed, t0)
	return nil
}

// wrap returns x behind a span-recording executor that implements exactly
// the optional interfaces (adb.BatchExecutor, adb.Cloner) x implements, so
// the engine and transport server take the same paths they would take
// without it. A nil tracer returns x itself.
func (t *tracer) wrap(dev string, sd side, x adb.Executor) adb.Executor {
	if t == nil {
		return x
	}
	r := &recorder{t: t, dev: dev, side: sd}
	t.mu.Lock()
	t.recs = append(t.recs, r)
	t.mu.Unlock()
	s := &spanExec{x: x, r: r}
	_, batch := x.(adb.BatchExecutor)
	_, clone := x.(adb.Cloner)
	switch {
	case batch && clone:
		return spanBatchCloner{s}
	case batch:
		return spanBatch{s}
	case clone:
		return spanCloner{s}
	}
	return s
}

// spanExec times every Executor call except the untimed Ping, Info and
// Target.
type spanExec struct {
	x adb.Executor
	r *recorder
}

func (s *spanExec) Exec(req adb.ExecRequest) (*adb.ExecResult, error) {
	t0 := time.Now()
	res, err := s.x.Exec(req)
	s.r.add(kExec, t0, 1, false)
	return res, err
}

func (s *spanExec) ExecProg(p *dsl.Prog) (*adb.ExecResult, error) {
	t0 := time.Now()
	res, err := s.x.ExecProg(p)
	s.r.add(kExec, t0, 1, false)
	return res, err
}

func (s *spanExec) Reboot() error {
	t0 := time.Now()
	err := s.x.Reboot()
	s.r.add(kReboot, t0, 0, false)
	return err
}

func (s *spanExec) Reset() (bool, error) {
	t0 := time.Now()
	restored, err := s.x.Reset()
	s.r.add(kReset, t0, 0, restored)
	return restored, err
}

func (s *spanExec) Ping() error             { return s.x.Ping() }
func (s *spanExec) Info() (adb.Info, error) { return s.x.Info() }
func (s *spanExec) Target() *dsl.Target     { return s.x.Target() }

func (s *spanExec) execBatch(req adb.ExecBatchRequest) ([]*adb.ExecResult, error) {
	t0 := time.Now()
	res, err := s.x.(adb.BatchExecutor).ExecBatch(req)
	s.r.add(kBatch, t0, len(req.Progs), false)
	return res, err
}

func (s *spanExec) exportCheckpoint() ([]byte, error) {
	t0 := time.Now()
	blob, err := s.x.(adb.Cloner).ExportCheckpoint()
	s.r.add(kExport, t0, len(blob), false)
	return blob, err
}

func (s *spanExec) importCheckpoint(blob []byte) error {
	t0 := time.Now()
	err := s.x.(adb.Cloner).ImportCheckpoint(blob)
	s.r.add(kImport, t0, len(blob), false)
	return err
}

type spanBatch struct{ *spanExec }

func (s spanBatch) ExecBatch(req adb.ExecBatchRequest) ([]*adb.ExecResult, error) {
	return s.execBatch(req)
}

type spanCloner struct{ *spanExec }

func (s spanCloner) ExportCheckpoint() ([]byte, error)  { return s.exportCheckpoint() }
func (s spanCloner) ImportCheckpoint(blob []byte) error { return s.importCheckpoint(blob) }

type spanBatchCloner struct{ *spanExec }

func (s spanBatchCloner) ExecBatch(req adb.ExecBatchRequest) ([]*adb.ExecResult, error) {
	return s.execBatch(req)
}
func (s spanBatchCloner) ExportCheckpoint() ([]byte, error)  { return s.exportCheckpoint() }
func (s spanBatchCloner) ImportCheckpoint(blob []byte) error { return s.importCheckpoint(blob) }

// countListener counts the bytes every accepted connection reads and
// writes. A nil tracer returns ln itself.
func (t *tracer) countListener(ln net.Listener, l link) net.Listener {
	if t == nil {
		return ln
	}
	return countingListener{Listener: ln, in: &t.linkIn[l], out: &t.linkOut[l]}
}

type countingListener struct {
	net.Listener
	in, out *atomic.Int64
}

func (l countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &countingConn{Conn: c, in: l.in, out: l.out}, nil
}

type countingConn struct {
	net.Conn
	in, out *atomic.Int64
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.in.Add(int64(n))
	return n, err
}

func (c *countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.out.Add(int64(n))
	return n, err
}

// kindStats summarizes the campaign-window spans of one kind on one side.
type kindStats struct {
	n, restored int
	busy, bytes int64
	durs        []int64
}

// percentileUS returns the q-quantile (nearest rank) of durs in
// microseconds; 0 when there are none.
func percentileUS(durs []int64, q float64) float64 {
	if len(durs) == 0 {
		return 0
	}
	slices.Sort(durs)
	return float64(durs[int(q*float64(len(durs)-1))]) / 1e3
}

func pct(part int64, campaignS float64) float64 { return float64(part) / 1e9 / campaignS * 100 }

// spanLedger reduces the campaign-window spans to the span-derived
// per-layer metrics.
func (t *tracer) spanLedger(m map[string]float64, campaignS float64) {
	var host, broker [nKinds]kindStats
	var hostBusy, brokerBusy, engineSelf int64
	hasBroker := false
	for _, r := range t.recs {
		st := &host
		if r.side == sideBroker {
			st, hasBroker = &broker, true
		}
		first, last, busy := int64(-1), int64(0), int64(0)
		for _, s := range r.spans {
			if s.start < t.from || s.start > t.to {
				continue
			}
			k := &st[s.kind]
			k.n++
			k.busy += s.dur
			k.bytes += int64(s.n)
			k.durs = append(k.durs, s.dur)
			if s.restored {
				k.restored++
			}
			busy += s.dur
			if first < 0 {
				first = s.start
			}
			last = max(last, s.start+s.dur)
		}
		if r.side == sideBroker {
			brokerBusy += busy
			continue
		}
		hostBusy += busy
		if first >= 0 {
			// Engine self time: the device's active interval minus the time
			// its engine spent inside executor calls.
			engineSelf += last - first - busy
		}
	}

	ex := &host[kExec]
	m["adb.exec.n"] = float64(ex.n)
	m["adb.exec.busy_s"] = float64(ex.busy) / 1e9
	m["adb.exec.p50_us"] = percentileUS(ex.durs, 0.50)
	m["adb.exec.p99_us"] = percentileUS(ex.durs, 0.99)
	m["engine.self_s"] = float64(engineSelf) / 1e9
	// In-process the wrapped executor is the broker itself, so broker time
	// is the host-side exec time and the wire costs nothing.
	m["broker.exec.busy_s"] = float64(ex.busy) / 1e9
	m["adb.wire.self_pct"] = 0
	if hasBroker {
		m["broker.exec.busy_s"] = float64(broker[kExec].busy) / 1e9
		m["adb.wire.self_pct"] = pct(hostBusy-brokerBusy, campaignS)
	}
	m["adb.batch.n"] = float64(host[kBatch].n)
	m["adb.batch.busy_pct"] = pct(host[kBatch].busy, campaignS)

	rs, rb := &host[kReset], &host[kReboot]
	resets := append(rs.durs, rb.durs...)
	m["adb.reset.restore_n"] = float64(rs.restored)
	m["adb.reset.reboot_n"] = float64(rs.n - rs.restored + rb.n)
	m["adb.reset.busy_s"] = float64(rs.busy+rb.busy) / 1e9
	m["adb.reset.p50_us"] = percentileUS(resets, 0.50)
	m["adb.reset.p99_us"] = percentileUS(resets, 0.99)

	for _, c := range []struct {
		name string
		k    *kindStats
	}{{"export", &host[kExport]}, {"import", &host[kImport]}} {
		m["adb.checkpoint."+c.name+"_n"] = float64(c.k.n)
		m["adb.checkpoint."+c.name+"_busy_pct"] = pct(c.k.busy, campaignS)
		m["adb.checkpoint."+c.name+"_bytes"] = 0
		if c.k.n > 0 {
			m["adb.checkpoint."+c.name+"_bytes"] = float64(c.k.bytes) / float64(c.k.n)
		}
	}

	m["setup.boot_s"] = float64(t.phases[pBoot].Load()) / 1e9
	m["setup.probe_s"] = float64(t.phases[pProbe].Load()) / 1e9
	m["setup.seed_s"] = float64(t.phases[pSeed].Load()) / 1e9
	m["setup.dial_s"] = float64(t.phases[pDial].Load()) / 1e9
}

// writeSpans writes every span as one TSV line: the (device, seq) key, the
// side, the kind, start and duration in nanoseconds from the tracer origin,
// the batch size or checkpoint bytes, and whether a reset restored.
func (t *tracer) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "device\tseq\tside\tkind\tstart_ns\tdur_ns\tn\trestored")
	for _, r := range t.recs {
		for _, s := range r.spans {
			fmt.Fprintf(w, "%s\t%d\t%s\t%s\t%d\t%d\t%d\t%t\n",
				r.dev, s.seq, sideNames[r.side], kindNames[s.kind], s.start, s.dur, s.n, s.restored)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
