// Command droidfuzz runs a fuzzing campaign against one virtual embedded
// Android device model.
//
// Usage:
//
//	droidfuzz -device A1 -iters 20000 [-variant droidfuzz] [-seed 1]
//	          [-corpus DIR] [-stats-every 5000] [-pipeline 4]
//
// With -pipeline N the engine runs the pipelined schedule: program
// generation runs up to N programs ahead of device execution on a producer
// goroutine. Throughput improves, and campaigns remain reproducible for
// a fixed seed and depth, but the trajectory differs from serial mode
// (leave -pipeline at 0 when comparing coverage against recorded runs).
//
// Variants: droidfuzz (full system), norel (no relational generation),
// nohcov (no HAL directional coverage), dfd (ioctl-only gate), syzkaller
// (syscall-only baseline), difuze (generation-only ioctl baseline).
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"droidfuzz/internal/baseline"
	"droidfuzz/internal/crash"
	"droidfuzz/internal/device"
	"droidfuzz/internal/engine"
	"droidfuzz/internal/relation"
)

func main() {
	var (
		deviceID   = flag.String("device", "A1", "device model ID (A1, A2, B, C1, C2, D, E)")
		iters      = flag.Int("iters", 20000, "fuzzing iterations")
		seed       = flag.Int64("seed", 1, "RNG seed")
		variant    = flag.String("variant", "droidfuzz", "droidfuzz|norel|nohcov|dfd|syzkaller|difuze")
		corpusDir  = flag.String("corpus", "", "directory to save the final corpus (optional)")
		statsEvery = flag.Int("stats-every", 5000, "print stats every N iterations")
		pipeline   = flag.Int("pipeline", 0, "generation look-ahead depth (0 = serial deterministic mode)")
	)
	flag.Parse()

	if err := run(*deviceID, *iters, *seed, *variant, *corpusDir, *statsEvery, *pipeline); err != nil {
		fmt.Fprintln(os.Stderr, "droidfuzz:", err)
		os.Exit(1)
	}
}

func run(deviceID string, iters int, seed int64, variant, corpusDir string, statsEvery, pipeline int) error {
	model, err := device.ModelByID(deviceID)
	if err != nil {
		return err
	}
	dev := device.New(model)
	fmt.Printf("device %s: %s %s (%s, AOSP %d, kernel %s), %d drivers, %d HALs\n",
		model.ID, model.Vendor, model.Name, model.Arch, model.AOSP, model.Kernel,
		len(model.Drivers), len(model.HALs))

	cfg := engine.Config{Seed: seed}
	var eng *engine.Engine
	switch strings.ToLower(variant) {
	case "droidfuzz":
		eng, err = baseline.NewDroidFuzz(dev, relation.New(), crash.NewDedup(), cfg)
	case "norel":
		cfg.NoRelations = true
		eng, err = baseline.NewDroidFuzz(dev, relation.New(), crash.NewDedup(), cfg)
	case "nohcov":
		cfg.NoHALCov = true
		eng, err = baseline.NewDroidFuzz(dev, relation.New(), crash.NewDedup(), cfg)
	case "dfd":
		eng, err = baseline.NewDroidFuzzD(dev, cfg)
	case "syzkaller":
		eng, err = baseline.NewSyzkallerLike(dev, cfg)
	case "difuze":
		return runDifuze(dev, iters, seed)
	default:
		return fmt.Errorf("unknown variant %q", variant)
	}
	if err != nil {
		return err
	}

	if statsEvery <= 0 {
		statsEvery = iters
	}
	for done := 0; done < iters; {
		n := statsEvery
		if iters-done < n {
			n = iters - done
		}
		eng.RunSchedule(n, pipeline, 1)
		done += n
		st := eng.Stats()
		fmt.Printf("[%7d/%d] execs=%d cover=%d signal=%d corpus=%d crashes=%d bugs=%d restores=%d reboots=%d\n",
			done, iters, st.Execs, st.KernelCov, st.TotalSignal,
			st.CorpusSize, st.Crashes, st.UniqueBugs, st.Restores, st.Reboots)
	}

	fmt.Println()
	fmt.Println(crash.Table(eng.Dedup().Records()))
	fmt.Printf("relation table: %v\n", eng.Graph())
	if corpusDir != "" {
		if err := eng.Corpus().Save(corpusDir); err != nil {
			return err
		}
		fmt.Printf("corpus saved to %s (%d programs)\n", corpusDir, eng.Corpus().Len())
	}
	return nil
}

func runDifuze(dev *device.Device, iters int, seed int64) error {
	f, err := baseline.NewDifuze(dev, seed)
	if err != nil {
		return err
	}
	fmt.Printf("difuze: extracted %d ioctl interfaces\n", f.ExtractedInterfaces())
	f.Run(iters)
	fmt.Printf("execs=%d cover=%d bugs=%d\n",
		f.Execs(), f.Accumulator().KernelTotal(), f.Dedup().Len())
	fmt.Println(crash.Table(f.Dedup().Records()))
	return nil
}
