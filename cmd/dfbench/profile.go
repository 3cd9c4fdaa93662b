package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"runtime"
	"runtime/metrics"
	"strings"
)

// CPU and allocation attribution. Every sample is charged to the innermost
// droidfuzz/internal/<module> frame on its stack, so runtime work (malloc,
// map access, GC assists) counts against the module that caused it. Samples
// with no such frame are background GC when they run under
// runtime.gcBgMarkWorker and "other" otherwise (scheduler, this benchmark's
// own code). dsl is split by its nearest non-dsl caller: the coordinator
// host, the device-side broker, or everything else on the host.

// modules are the attribution buckets, reported as cpu.<bucket> and (all but
// gc) alloc.<bucket>.bytes_per_exec. Internal modules not listed here fold
// into "other".
var modules = []string{
	"engine", "gen", "relation", "corpus", "feedback", "crash",
	"dsl.host", "dsl.broker", "dsl.coord",
	"adb", "device", "vkernel", "drivers", "hal", "binder", "kasan", "kcov", "ebpf",
	"coord", "daemon", "probe", "gc", "other",
}

const modulePrefix = "droidfuzz/internal/"

// moduleOf returns the droidfuzz/internal module of a function name, or "".
func moduleOf(fn string) string {
	rest, ok := strings.CutPrefix(fn, modulePrefix)
	if !ok {
		return ""
	}
	if i := strings.IndexAny(rest, "./"); i >= 0 {
		return rest[:i]
	}
	return rest
}

// bucketOf attributes a stack, innermost frame first.
func bucketOf(stack []string) string {
	for i, fn := range stack {
		switch m := moduleOf(fn); m {
		case "":
			continue
		case "dsl":
			return "dsl." + dslCaller(stack[i+1:])
		default:
			for _, b := range modules {
				if b == m {
					return m
				}
			}
			return "other"
		}
	}
	for _, fn := range stack {
		if fn == "runtime.gcBgMarkWorker" {
			return "gc"
		}
	}
	return "other"
}

// dslCaller names the side that called into dsl from the frames outside
// it, innermost first.
func dslCaller(outer []string) string {
	for _, fn := range outer {
		switch moduleOf(fn) {
		case "", "dsl":
			continue
		case "coord":
			return "coord"
		case "adb":
			if strings.Contains(fn, "(*Broker)") || strings.Contains(fn, "(*Server)") {
				return "broker"
			}
		}
		return "host"
	}
	return "host"
}

// shares normalizes bucket weights to percentages of their total.
func shares(w map[string]float64) map[string]float64 {
	var total float64
	for _, v := range w {
		total += v
	}
	out := make(map[string]float64, len(modules))
	for _, b := range modules {
		if total > 0 {
			out[b] = w[b] / total * 100
		}
	}
	return out
}

// cpuShares attributes a CPU profile in the gzip-compressed protobuf form
// runtime/pprof writes, weighting each sample by its sample count.
func cpuShares(gz []byte) (map[string]float64, error) {
	w := make(map[string]float64)
	err := decodeProfile(gz, func(stack []string, count int64) {
		w[bucketOf(stack)] += float64(count)
	})
	return shares(w), err
}

// heapProfile is the heap profile's cumulative allocated bytes by stack.
type heapProfile map[[32]uintptr]float64

// readHeapProfile runs a GC, which publishes the profile up to now, and
// reads it. Each record's sampled bytes are scaled the way pprof scales
// them, undoing the size bias of sampling every MemProfileRate bytes.
func readHeapProfile() heapProfile {
	runtime.GC()
	var recs []runtime.MemProfileRecord
	n, _ := runtime.MemProfile(nil, true)
	for {
		recs = make([]runtime.MemProfileRecord, n+64)
		var ok bool
		if n, ok = runtime.MemProfile(recs, true); ok {
			recs = recs[:n]
			break
		}
	}
	rate := float64(runtime.MemProfileRate)
	p := make(heapProfile, len(recs))
	for _, r := range recs {
		if r.AllocObjects > 0 {
			avg := float64(r.AllocBytes) / float64(r.AllocObjects)
			p[r.Stack0] += float64(r.AllocBytes) / (1 - math.Exp(-avg/rate))
		}
	}
	return p
}

// allocShares attributes the bytes allocated between two heap profiles.
func allocShares(before, after heapProfile) map[string]float64 {
	w := make(map[string]float64)
	var stack []string
	for key, v := range after {
		d := v - before[key]
		if d <= 0 {
			continue
		}
		stack = stack[:0]
		frames := runtime.CallersFrames(stackPCs(key))
		for {
			f, more := frames.Next()
			stack = append(stack, f.Function)
			if !more {
				break
			}
		}
		w[bucketOf(stack)] += d
	}
	return shares(w)
}

// stackPCs trims a profile stack at its first zero PC.
func stackPCs(s [32]uintptr) []uintptr {
	for i, pc := range s {
		if pc == 0 {
			return s[:i]
		}
	}
	return s[:]
}

var errProfile = errors.New("malformed profile")

// decodeProfile walks a pprof profile (profile.proto), calling fn once per
// sample with its stack as function names, innermost first, and its first
// value. It reads only the messages attribution needs: samples, locations
// with their (possibly inlined) lines, functions and the string table.
func decodeProfile(gz []byte, fn func(stack []string, v int64)) error {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return err
	}
	type sample struct {
		locs []uint64
		v    int64
	}
	var (
		samples  []sample
		strs     []string
		funcName = make(map[uint64]uint64)   // function id -> string index
		locFuncs = make(map[uint64][]uint64) // location id -> function ids, innermost first
	)
	err = pbFields(raw, func(num, wt int, _ uint64, b []byte) error {
		if wt != 2 {
			return nil
		}
		switch num {
		case 2: // Sample
			var s sample
			var vals []uint64
			err := pbFields(b, func(num, wt int, v uint64, b []byte) (err error) {
				switch num {
				case 1:
					s.locs, err = pbUints(s.locs, wt, v, b)
				case 2:
					vals, err = pbUints(vals, wt, v, b)
				}
				return err
			})
			if len(vals) > 0 {
				s.v = int64(vals[0])
			}
			samples = append(samples, s)
			return err
		case 4: // Location
			var id uint64
			var fns []uint64
			err := pbFields(b, func(num, wt int, v uint64, b []byte) error {
				switch {
				case num == 1 && wt == 0:
					id = v
				case num == 4 && wt == 2: // Line
					return pbFields(b, func(num, wt int, v uint64, _ []byte) error {
						if num == 1 && wt == 0 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = fns
			return err
		case 5: // Function
			var id, name uint64
			err := pbFields(b, func(num, wt int, v uint64, _ []byte) error {
				switch {
				case num == 1 && wt == 0:
					id = v
				case num == 2 && wt == 0:
					name = v
				}
				return nil
			})
			funcName[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return err
	}
	var stack []string
	for _, s := range samples {
		stack = stack[:0]
		for _, loc := range s.locs {
			for _, f := range locFuncs[loc] {
				if i := funcName[f]; i < uint64(len(strs)) {
					stack = append(stack, strs[i])
				}
			}
		}
		fn(stack, s.v)
	}
	return nil
}

// pbFields calls fn for every field of a protobuf message: the varint or
// fixed value for wire types 0, 1 and 5, the payload for wire type 2.
func pbFields(b []byte, fn func(num, wt int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errProfile
		}
		b = b[n:]
		num, wt := int(key>>3), int(key&7)
		var v uint64
		var data []byte
		switch wt {
		case 0:
			if v, n = binary.Uvarint(b); n <= 0 {
				return errProfile
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errProfile
			}
			v, b = binary.LittleEndian.Uint64(b), b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || l > uint64(len(b)-n) {
				return errProfile
			}
			data, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errProfile
			}
			v, b = uint64(binary.LittleEndian.Uint32(b)), b[4:]
		default:
			return errProfile
		}
		if err := fn(num, wt, v, data); err != nil {
			return err
		}
	}
	return nil
}

// pbUints appends a repeated varint field, packed (wire type 2) or not.
func pbUints(out []uint64, wt int, v uint64, data []byte) ([]uint64, error) {
	if wt == 0 {
		return append(out, v), nil
	}
	for len(data) > 0 {
		x, n := binary.Uvarint(data)
		if n <= 0 {
			return out, errProfile
		}
		out, data = append(out, x), data[n:]
	}
	return out, nil
}

// goMetricNames are the runtime metrics the go.* ledger entries come from.
var goMetricNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/sched/latencies:seconds",
}

func readGoMetrics() []metrics.Sample {
	s := make([]metrics.Sample, len(goMetricNames))
	for i, name := range goMetricNames {
		s[i].Name = name
	}
	metrics.Read(s)
	return s
}

// goLedger fills the go.* metrics from runtime metrics read before and
// after the campaign.
func goLedger(m map[string]float64, before, after []metrics.Sample, execs uint64) {
	u := func(i int) float64 { return float64(after[i].Value.Uint64() - before[i].Value.Uint64()) }
	f := func(i int) float64 { return after[i].Value.Float64() - before[i].Value.Float64() }
	perExec := func(v float64) float64 {
		if execs == 0 {
			return 0
		}
		return v / float64(execs)
	}
	m["go.alloc_bytes_per_exec"] = perExec(u(0))
	m["go.allocs_per_exec"] = perExec(u(1))
	m["go.gc_cycles"] = u(2)
	m["go.gc_cpu_share"] = 0
	if total := f(4); total > 0 {
		m["go.gc_cpu_share"] = f(3) / total * 100
	}
	m["go.sched_wait_p99_us"] = histQuantile(before[5].Value.Float64Histogram(), after[5].Value.Float64Histogram(), 0.99) * 1e6
}

// histQuantile returns the q-quantile of the samples a runtime histogram
// gained between two reads, interpolated linearly inside the bucket it
// falls in (an open-ended bucket yields its finite bound).
func histQuantile(before, after *metrics.Float64Histogram, q float64) float64 {
	var total uint64
	for i := range after.Counts {
		total += after.Counts[i] - before.Counts[i]
	}
	if total == 0 {
		return 0
	}
	rank := q * float64(total)
	var seen float64
	for i := range after.Counts {
		n := float64(after.Counts[i] - before.Counts[i])
		if n == 0 || seen+n < rank {
			seen += n
			continue
		}
		lo, hi := after.Buckets[i], after.Buckets[i+1]
		switch {
		case math.IsInf(lo, -1):
			return hi
		case math.IsInf(hi, 1):
			return lo
		}
		return lo + (hi-lo)*(rank-seen)/n
	}
	return after.Buckets[len(after.Buckets)-1]
}
