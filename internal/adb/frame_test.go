package adb

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"io"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"droidfuzz/internal/dsl"
)

// fullResult is an execution result with every field set.
func fullResult() *ExecResult {
	r := GetResult()
	r.Calls = append(r.Calls,
		CallResult{Executed: true, Errno: "OK", Ret: 3, Cover: []uint32{0x10, 0x20, 0xfffffff0}},
		CallResult{Executed: false, Errno: "EINVAL", Ret: 1 << 40, Cover: []uint32{7}})
	r.KernelCov = append(r.KernelCov, 0x10, 0x20, 0xfffffff0, 7)
	r.HALTrace = append(r.HALTrace, TraceEvent{Seq: 9, PID: -2, NR: "ioctl", Path: "/dev/gpu0", Arg: 0xc0de})
	r.Crashes = append(r.Crashes, CrashRecord{Kind: "KASAN", Title: "t", Detail: "d", Component: "kernel"})
	r.Dmesg = []string{"line one", "line two"}
	r.Wedged = true
	r.HALDead = true
	return r
}

// fullDesc is a call description with every syntax field set.
func fullDesc() *dsl.CallDesc {
	return &dsl.CallDesc{
		Name: "hal$svc.m", Class: dsl.ClassHAL, Syscall: "ioctl", Service: "svc", Method: "m",
		MethodCode: 300, Param: "/sys/p", Ret: "fd_x", Weight: 0.25, CriticalArg: -1,
		Args: []dsl.Field{{Name: "a", Type: dsl.Type{
			Kind: dsl.KindFlags, Min: 1, Max: 200, Choices: []uint64{4, 5}, BufLen: 64,
			Res: "fd_x", StrChoices: []string{"x", "yz"}, StrWeights: []float64{0.5, 1.5},
			Val: 6, LenOf: "b", Hints: []uint64{130},
		}}},
	}
}

// fullFed is a federation delta with every section set.
func fullFed() *FedBatch {
	return &FedBatch{
		Progs: []string{"p()\n"},
		Verts: []FedVertex{{Name: "v", Weight: 2}},
		Learns: FedLearns{
			Names: []string{"a", "b"}, Devices: []string{"h1/A1"},
			A: []byte{1}, B: []byte{2}, Dev: []byte{0}, Seq: []byte{3}, Count: 1,
		},
	}
}

type golden struct {
	name string
	f    Frame
	hex  string // the whole frame, length prefix included
}

// goldenFrames is every message kind of both links with every optional
// field set, and the bytes each must encode to. A changed byte is a
// protocol change: both ends must change together.
func goldenFrames() []golden {
	return []golden{
		{"req/ping", &rpcRequest{Kind: reqPing, Tag: 1}, "000000020101"},
		{"req/reboot", &rpcRequest{Kind: reqReboot, Tag: 2}, "000000020202"},
		{"req/reset", &rpcRequest{Kind: reqReset, Tag: 3}, "000000020303"},
		{"req/info", &rpcRequest{Kind: reqInfo, Tag: 4}, "000000020404"},
		{"req/describe", &rpcRequest{Kind: reqDescribe, Tag: 5}, "000000020505"},
		{"req/export", &rpcRequest{Kind: reqExport, Tag: 6}, "000000020606"},
		{"req/import", &rpcRequest{Kind: reqImport, Tag: 7, Blob: []byte{0xca, 0xfe}}, "00000005070702cafe"},
		{"req/exec", &rpcRequest{Kind: reqExec, Tag: 8, Resets: 2, Progs: [][]byte{{1, 0, 2}}}, "0000000708080203010002"},
		{"req/batch", &rpcRequest{Kind: reqBatch, Tag: 300, Resets: 3, Summary: true, Progs: [][]byte{{1, 2}, {3}}}, "0000000b09ac020301020201020103"},

		{"rep/err", &rpcReply{Kind: repErr, Tag: 300, Err: "boom"}, "0000000811ac0204626f6f6d"},
		{"rep/pong", &rpcReply{Kind: repPong, Tag: 1}, "000000021201"},
		{"rep/reset", &rpcReply{Kind: repReset, Tag: 3, Restored: true}, "00000003130301"},
		{"rep/info", &rpcReply{Kind: repInfo, Tag: 4, Info: Info{
			ModelID: "A1", TargetHash: 0x0123456789abcdef, Reboots: 2, Restores: 3, Execs: 500}}, "000000121404024131ef9bafcdf8acd191010406f403"},
		{"rep/describe", &rpcReply{Kind: repDescribe, Tag: 5, Describe: &DescribeReply{
			Info:  Info{ModelID: "B", TargetHash: 1, Reboots: 1, Restores: 1, Execs: 1},
			Calls: []*dsl.CallDesc{fullDesc()},
			Seeds: []string{"s()\n"},
		}}, "0000006b1505014201020201010968616c247376632e6d0205696f63746c03737663016dac02062f7379732f700101610401c80102040580010466645f7802017802797a02000000000000e03f000000000000f83f0601620182010466645f78000000000000d03f0101047328290a"},
		{"rep/checkpoint", &rpcReply{Kind: repCheckpoint, Tag: 6, Blob: []byte{0xbe, 0xef}}, "00000005160602beef"},
		{"rep/imported", &rpcReply{Kind: repImported, Tag: 7}, "000000021707"},
		{"rep/result", &rpcReply{Kind: repResult, Tag: 8, Rebooted: 1, Result: fullResult()}, "0000006a180801030201024f4b03000645494e56414c808080808020072020a0ffffff1f010e0c2020a0ffffff1fd1ffffff1f01090305696f63746c092f6465762f67707530de810301054b4153414e01740164066b65726e656c02086c696e65206f6e65086c696e652074776f"},
		{"rep/batch", &rpcReply{Kind: repBatch, Tag: 9, Rebooted: 2, Batch: &batchReply{
			Results: []*ExecResult{fullResult(), nil, fullResult()},
			Elided:  []bool{false, false, true},
			Stats:   WireStats{Execs: 1, Elided: 2, CovRawBytes: 300, CovWireBytes: 4},
		}}, "000000ad1909020301030201024f4b03000645494e56414c808080808020072020a0ffffff1f010e0c2020a0ffffff1fd1ffffff1f01090305696f63746c092f6465762f67707530de810301054b4153414e01740164066b65726e656c02086c696e65206f6e65086c696e652074776f0001070201024f4b03000645494e56414c80808080802001054b4153414e01740164066b65726e656c02086c696e65206f6e65086c696e652074776f0102ac0204"},

		{"coord/register", &CoordRequest{Seq: 1, Register: &CoordRegister{Name: "alpha", Nonce: 99}}, "00000009210105616c70686163"},
		{"coord/heartbeat", &CoordRequest{Seq: 2, Heartbeat: &CoordHeartbeat{HostID: "h1", Execs: 1000}}, "000000072202026831e807"},
		{"coord/lease", &CoordRequest{Seq: 3, Lease: &CoordLeaseRequest{HostID: "h1"}}, "000000052303026831"},
		{"coord/progress", &CoordRequest{Seq: 4, Progress: &CoordProgress{
			HostID: "h1", ShardID: 5, ExecsDone: 600, Checkpoint: []byte{0xc0}, Batch: fullFed()}}, "0000003124040268310ab00901c00101047028290a01017600000000000000400201610162010568312f4131010101020100010302"},
		{"coord/complete", &CoordRequest{Seq: 5, Complete: &CoordComplete{HostID: "h1", ShardID: -1, Batch: fullFed()}}, "0000002d2505026831010101047028290a01017600000000000000400201610162010568312f4131010101020100010302"},
		{"coord/sync", &CoordRequest{Seq: 6, Sync: &CoordSync{HostID: "h1", Batch: fullFed()}}, "0000002c26060268310101047028290a01017600000000000000400201610162010568312f4131010101020100010302"},
		{"coord/sync-empty", &CoordRequest{Seq: 7, Sync: &CoordSync{HostID: "h1"}}, "00000006260702683100"},

		{"coord/err", &CoordReply{Err: "no"}, "0000000431026e6f"},
		{"coord/registered", &CoordReply{Registered: &CoordRegistered{HostID: "h1", EpochIters: 250}}, "0000000632026831f403"},
		{"coord/beat", &CoordReply{Beat: &CoordBeat{Health: 0.75}}, "0000000933000000000000e83f"},
		{"coord/shard", &CoordReply{Shard: &CoordShard{
			Done: true, Wait: true, Stolen: true, ID: 3, Model: "A1", Devices: 2, Iters: 400,
			Seed: -7, Checkpoint: []byte{1, 2}, Batch: fullFed()}}, "0000003434070602413104a0060d0201020101047028290a01017600000000000000400201610162010568312f4131010101020100010302"},
		{"coord/ack", &CoordReply{Ack: &CoordAck{Batch: fullFed()}}, "00000028350101047028290a01017600000000000000400201610162010568312f4131010101020100010302"},
	}
}

// TestGoldenFrames pins every frame kind byte for byte, and checks that
// the golden bytes decode to the message and re-encode to themselves.
func TestGoldenFrames(t *testing.T) {
	for _, g := range goldenFrames() {
		t.Run(g.name, func(t *testing.T) {
			b, err := marshalFrame(nil, g.f)
			if err != nil {
				t.Fatal(err)
			}
			if got := hex.EncodeToString(b); got != g.hex {
				t.Fatalf("frame bytes changed:\n got %s\nwant %s", got, g.hex)
			}
			back := reflect.New(reflect.TypeOf(g.f).Elem()).Interface().(Frame)
			if err := unmarshalFrame(b[4:], back, nil); err != nil {
				t.Fatalf("golden frame does not decode: %v", err)
			}
			again, err := marshalFrame(nil, back)
			if err != nil || !bytes.Equal(again, b) {
				t.Fatalf("decoded frame re-encodes to %x (err %v), want %x", again, err, b)
			}
			if !sameMessage(g.f, back) {
				t.Fatalf("decoded message differs:\n got %+v\nwant %+v", back, g.f)
			}
		})
	}
}

// sameMessage compares a message with its decoded copy. Results compare
// without their pool bookkeeping, and an elided result decodes without
// its traces.
func sameMessage(want, got Frame) bool {
	w, ok := want.(*rpcReply)
	if !ok {
		return reflect.DeepEqual(want, got)
	}
	g := got.(*rpcReply)
	wc, gc := *w, *g
	wc.Result, gc.Result, wc.Batch, gc.Batch = nil, nil, nil, nil
	if !reflect.DeepEqual(wc, gc) || !sameResult(w.Result, g.Result, false) {
		return false
	}
	if (w.Batch == nil) != (g.Batch == nil) {
		return false
	}
	if w.Batch == nil {
		return true
	}
	if w.Batch.Stats != g.Batch.Stats || !reflect.DeepEqual(w.Batch.Elided, g.Batch.Elided) ||
		len(w.Batch.Results) != len(g.Batch.Results) {
		return false
	}
	for i, res := range w.Batch.Results {
		if !sameResult(res, g.Batch.Results[i], w.Batch.Elided[i]) {
			return false
		}
	}
	return true
}

func sameResult(want, got *ExecResult, elided bool) bool {
	if want == nil || got == nil {
		return want == got
	}
	w, g := *want, *got
	w.san, g.san = sanState{}, sanState{}
	if elided {
		w.Calls = append([]CallResult(nil), w.Calls...)
		for i := range w.Calls {
			w.Calls[i].Cover = g.Calls[i].Cover
		}
		w.KernelCov, w.HALTrace = g.KernelCov, g.HALTrace
		if len(g.KernelCov)+len(g.HALTrace) != 0 {
			return false
		}
	}
	return reflect.DeepEqual(w, g)
}

// TestResetsBounded: a request carries at most maxResets resets. One
// over the cap does not encode, so nothing goes out, and a frame that
// claims more does not decode.
func TestResetsBounded(t *testing.T) {
	for _, kind := range []byte{reqExec, reqBatch} {
		req := &rpcRequest{Kind: kind, Tag: 1, Resets: maxResets, Progs: [][]byte{{0}}}
		b, err := marshalFrame(nil, req)
		if err != nil {
			t.Fatalf("kind %#x: %d resets do not encode: %v", kind, maxResets, err)
		}
		var back rpcRequest
		if err := unmarshalFrame(b[4:], &back, nil); err != nil || back.Resets != maxResets {
			t.Fatalf("kind %#x: decoded %d resets (err %v), want %d", kind, back.Resets, err, maxResets)
		}
		req.Resets = maxResets + 1
		if _, err := marshalFrame(nil, req); !errors.Is(err, errUnencodable) {
			t.Fatalf("kind %#x: %d resets: err = %v, want errUnencodable", kind, req.Resets, err)
		}
		over := append([]byte{kind, 1}, binary.AppendUvarint(nil, maxResets+1)...)
		if err := unmarshalFrame(append(over, 1, 0), &back, nil); !errors.Is(err, errCorrupt) {
			t.Fatalf("kind %#x: a frame over the cap decoded: err = %v", kind, err)
		}
	}
}

// TestGoldenFramesCoverEveryField fails when a field is added to any type
// a frame carries without the goldens setting it: the codec must grow the
// field, and the golden bytes with it.
func TestGoldenFramesCoverEveryField(t *testing.T) {
	set := make(map[reflect.Type]map[string]bool)
	var walk func(v reflect.Value)
	walk = func(v reflect.Value) {
		switch v.Kind() {
		case reflect.Pointer, reflect.Interface:
			if !v.IsNil() {
				walk(v.Elem())
			}
		case reflect.Slice:
			for i := 0; i < v.Len(); i++ {
				walk(v.Index(i))
			}
		case reflect.Struct:
			ty := v.Type()
			if set[ty] == nil {
				set[ty] = make(map[string]bool)
			}
			for i := 0; i < ty.NumField(); i++ {
				f := ty.Field(i)
				if !f.IsExported() {
					continue
				}
				if !v.Field(i).IsZero() {
					set[ty][f.Name] = true
				}
				walk(v.Field(i))
			}
		}
	}
	for _, g := range goldenFrames() {
		walk(reflect.ValueOf(g.f))
	}
	for ty, seen := range set {
		for i := 0; i < ty.NumField(); i++ {
			if f := ty.Field(i); f.IsExported() && !seen[f.Name] {
				t.Errorf("%s.%s is set in no golden frame", ty, f.Name)
			}
		}
	}
}

// TestTraceLengthWidens: a trace of 128 or more delta bytes moves its
// length prefix to two bytes and still decodes.
func TestTraceLengthWidens(t *testing.T) {
	for _, n := range []int{0, 25, 26, 27, 40, 5000} {
		trace := make([]uint32, n)
		for i := range trace {
			trace[i] = uint32(i) * 0x9e3779b9
		}
		b := appendTrace([]byte{0xaa}, trace)
		d := decoder{b: b[1:]}
		got, err := decodeTrace(&d, nil, nil)
		if err != nil || d.finish() != nil || !slices.Equal(got, trace) {
			t.Fatalf("%d PCs: decoded %d (err %v, %v)", n, len(got), err, d.err)
		}
	}
}

// TestReadFrameBounds: a length over the cap or zero is corrupt, a stream
// that ends inside a frame is an unexpected EOF, and a hostile length
// allocates only for the bytes that arrive.
func TestReadFrameBounds(t *testing.T) {
	for name, in := range map[string][]byte{
		"zero length": {0, 0, 0, 0},
		"over cap":    {0x04, 0, 0, 1},
	} {
		if _, err := readFrame(bytes.NewReader(in), nil); !errors.Is(err, errCorrupt) {
			t.Errorf("%s: err = %v, want errCorrupt", name, err)
		}
	}
	for name, in := range map[string][]byte{
		"cut header": {0, 0},
		"cut body":   {0, 0, 0, 9, 1, 2},
	} {
		if _, err := readFrame(bytes.NewReader(in), nil); !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Errorf("%s: err = %v, want io.ErrUnexpectedEOF", name, err)
		}
	}
	hostile := append([]byte{0x03, 0xff, 0xff, 0xff}, make([]byte, 100)...)
	if got := allocated(func() { readFrame(bytes.NewReader(hostile), nil) }); got > 64<<10 {
		t.Fatalf("a 64 MiB length prefix with 100 bytes behind it allocated %d bytes", got)
	}
}

// allocated reports the bytes f allocates.
func allocated(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// FuzzDecodeFrame feeds arbitrary frame bodies to the broker's and the
// coordinator's request decoders and to the client's reply decoders: no
// input panics, no input allocates more than a fixed multiple of its own
// bytes (and so none past the frame cap), and an accepted request or
// coordinator reply re-encodes to its own bytes.
func FuzzDecodeFrame(f *testing.F) {
	for _, g := range goldenFrames() {
		b, err := marshalFrame(nil, g.f)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b[4:])
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		for _, fr := range []Frame{&rpcRequest{}, &rpcReply{}, &CoordRequest{}, &CoordReply{}} {
			var err error
			n := allocated(func() { err = unmarshalFrame(body, fr, nil) })
			if bound := uint64(64*len(body) + 64<<10); n > bound || n > maxFrame {
				t.Fatalf("%T: %d-byte body allocated %d bytes", fr, len(body), n)
			}
			if rep, ok := fr.(*rpcReply); ok {
				rep.release()
				continue // a corrupt trace drops its result, not the frame
			}
			if err != nil {
				continue
			}
			again, err := fr.appendFrame(nil)
			if err != nil || !bytes.Equal(again, body) {
				t.Fatalf("%T: accepted body re-encodes to %x (err %v), want %x", fr, again, err, body)
			}
		}
	})
}

// TestFrameKindsDistinct: no two message kinds share a byte, so a frame
// sent to the wrong peer cannot decode.
func TestFrameKindsDistinct(t *testing.T) {
	seen := make(map[byte]reflect.Type)
	for _, g := range goldenFrames() {
		b, _ := marshalFrame(nil, g.f)
		ty := reflect.TypeOf(g.f)
		if prev, ok := seen[b[4]]; ok && prev != ty {
			t.Errorf("kind %#x used by %s and %s", b[4], prev, ty)
		}
		seen[b[4]] = ty
	}
	for _, fr := range []Frame{&rpcRequest{}, &rpcReply{}, &CoordRequest{}, &CoordReply{}} {
		accepted := 0
		for _, g := range goldenFrames() {
			b, _ := marshalFrame(nil, g.f)
			if unmarshalFrame(b[4:], fr, nil) == nil {
				accepted++
			}
			if rep, ok := fr.(*rpcReply); ok {
				rep.release()
			}
		}
		if accepted == 0 || accepted == len(goldenFrames()) {
			t.Errorf("%T accepted %d of %d golden frames", fr, accepted, len(goldenFrames()))
		}
	}
}
