package engine_test

import (
	"sort"
	"sync"
	"testing"

	"droidfuzz/internal/adb"
	"droidfuzz/internal/crash"
	"droidfuzz/internal/engine"
	"droidfuzz/internal/relation"
)

// rebootOnly forces the pre-PR-6 reset behavior: every crash fallout pays
// a full reboot. The golden-equivalence test runs the same campaign over a
// restoring broker and over this wrapper; the two must be bit-identical in
// everything except the Reboots/Restores split. The engine's resets ride
// its executor calls, so the wrapper reboots for the resets an ExecBatch
// carries as well as for each Reset.
type rebootOnly struct{ *adb.Broker }

func (r rebootOnly) Reset() (bool, error) { return false, r.Broker.Reboot() }

func (r rebootOnly) ExecBatch(req adb.ExecBatchRequest) ([]*adb.ExecResult, error) {
	for range req.Resets {
		r.Reset()
	}
	n, rebooted := req.Resets, req.Rebooted
	req.Resets, req.Rebooted = 0, nil
	out, err := r.Broker.ExecBatch(req)
	if rebooted != nil {
		*rebooted = n
	}
	return out, err
}

// bugTitles returns the deduplicated crash titles of a run, sorted.
func bugTitles(e *engine.Engine) []string {
	var out []string
	for _, r := range e.Dedup().Records() {
		out = append(out, r.Title)
	}
	sort.Strings(out)
	return out
}

// TestRestoreMatchesRebootGolden is the PR 6 equivalence gate: a serial
// campaign that resets via snapshot restore must replay bit-identically to
// the same campaign resetting via full reboot — same corpus content, same
// accumulated signal, same deduplicated bugs, same stats apart from which
// reset counter advanced. Restore skipping clean subsystems is only sound
// if the engine cannot tell the two paths apart.
func TestRestoreMatchesRebootGolden(t *testing.T) {
	for _, model := range []string{"A1", "B"} {
		restoring := engine.New(newBroker(t, model), relation.New(), crash.NewDedup(),
			engine.Config{Seed: 77})
		rebooting := engine.New(rebootOnly{newBroker(t, model)}, relation.New(), crash.NewDedup(),
			engine.Config{Seed: 77})
		restoring.Run(400)
		rebooting.Run(400)

		sa, sb := restoring.Stats(), rebooting.Stats()
		if sa.Restores == 0 {
			t.Fatalf("model %s: restore path never exercised (no crashes in 400 execs?)", model)
		}
		if sb.Restores != 0 {
			t.Fatalf("model %s: rebootOnly wrapper restored %d times", model, sb.Restores)
		}
		if total := sa.Restores + sa.Reboots; total != sb.Reboots {
			t.Fatalf("model %s: reset counts differ: %d restores+reboots vs %d reboots",
				model, total, sb.Reboots)
		}
		// Everything else must match exactly.
		sa.Reboots, sa.Restores = 0, 0
		sb.Reboots, sb.Restores = 0, 0
		if sa != sb {
			t.Fatalf("model %s: stats diverged:\n  restore %+v\n  reboot  %+v", model, sa, sb)
		}
		if ha, hb := corpusHash(restoring), corpusHash(rebooting); ha != hb {
			t.Fatalf("model %s: corpora diverged: %s vs %s", model, ha, hb)
		}
		ta, tb := bugTitles(restoring), bugTitles(rebooting)
		if len(ta) != len(tb) {
			t.Fatalf("model %s: bug sets differ: %v vs %v", model, ta, tb)
		}
		for i := range ta {
			if ta[i] != tb[i] {
				t.Fatalf("model %s: bug sets differ: %v vs %v", model, ta, tb)
			}
		}
	}
}

// TestFleetConcurrentResetVsStats races the status path against resets: a
// 4-engine fleet fuzzes crashing devices (every crash triggers a snapshot
// restore) while this goroutine hammers Stats and the device-level reset
// counters. Run under -race; the device counters are atomics precisely so
// this never trips it.
func TestFleetConcurrentResetVsStats(t *testing.T) {
	engines := make([]*engine.Engine, 4)
	for i := range engines {
		engines[i] = newEngine(t, "A1", engine.Config{Seed: int64(100 + i)})
	}
	var wg sync.WaitGroup
	for _, e := range engines {
		wg.Add(1)
		go func() {
			defer wg.Done()
			e.Run(200)
		}()
	}
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			default:
			}
			for _, e := range engines {
				st := e.Stats()
				_ = st.Restores + st.Reboots
				if b := e.Broker(); b != nil {
					dev := b.Device()
					_ = dev.Restores() + dev.Reboots()
				}
			}
		}
	}()
	wg.Wait()
	close(stop)
	<-done
	var restores int
	for _, e := range engines {
		restores += e.Stats().Restores
	}
	if restores == 0 {
		t.Fatal("fleet never restored; the race test exercised nothing")
	}
}

var _ adb.Executor = rebootOnly{}
