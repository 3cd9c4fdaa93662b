package dsl_test

import (
	"sync"
	"testing"

	"droidfuzz/internal/device"
	"droidfuzz/internal/dsl"
	"droidfuzz/internal/probe"
)

// probed is model A1's target (HAL interfaces and knobs included) and the
// probing pass's seed programs: the texts a broker parses first.
var probed = sync.OnceValues(func() (*dsl.Target, []*dsl.Prog) {
	m, err := device.ModelByID("A1")
	if err != nil {
		panic(err)
	}
	target, pr, err := probe.Target(device.New(m), probe.Options{Params: true})
	if err != nil {
		panic(err)
	}
	return target, pr.Seeds
})

// seedProg returns the first probing seed of 5 to 8 calls, a representative
// program for the codec's costs.
func seedProg(tb testing.TB) (*dsl.Target, *dsl.Prog) {
	target, seeds := probed()
	for _, p := range seeds {
		if p.Len() >= 5 && p.Len() <= 8 {
			return target, p
		}
	}
	tb.Fatal("no probing seed of 5 to 8 calls")
	return nil, nil
}

func BenchmarkParseProg(b *testing.B) {
	target, p := seedProg(b)
	text := p.String()
	b.SetBytes(int64(len(text)))
	b.ReportAllocs()
	for b.Loop() {
		if _, err := dsl.ParseProg(target, text); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkProgString(b *testing.B) {
	_, p := seedProg(b)
	b.SetBytes(int64(len(p.String())))
	b.ReportAllocs()
	for b.Loop() {
		_ = p.String()
	}
}

func BenchmarkExecEncode(b *testing.B) {
	target, p := seedProg(b)
	buf, err := dsl.AppendExec(nil, target, p)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(buf)))
	b.ReportAllocs()
	for b.Loop() {
		buf, _ = dsl.AppendExec(buf[:0], target, p)
	}
}

func BenchmarkExecDecode(b *testing.B) {
	target, p := seedProg(b)
	buf, err := dsl.AppendExec(nil, target, p)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(buf)))
	b.ReportAllocs()
	var x dsl.ExecDecoder
	for b.Loop() {
		if _, err := x.Decode(target, buf); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkParseDescs(b *testing.B) {
	target, _ := probed()
	text := dsl.FormatDescs(target.Calls())
	b.SetBytes(int64(len(text)))
	b.ReportAllocs()
	for b.Loop() {
		if _, err := dsl.ParseDescs(text); err != nil {
			b.Fatal(err)
		}
	}
}

// TestParseProgAllocBound keeps a parse's allocation in proportion to its
// text: a per-parse line buffer (once 1 MiB) would break the bound.
func TestParseProgAllocBound(t *testing.T) {
	target, p := seedProg(t)
	text := p.String()
	res := testing.Benchmark(func(b *testing.B) {
		for b.Loop() {
			if _, err := dsl.ParseProg(target, text); err != nil {
				b.Fatal(err)
			}
		}
	})
	const bound = 64 << 10
	t.Logf("%d-call, %d-byte program: %d B/op, %d allocs/op",
		p.Len(), len(text), res.AllocedBytesPerOp(), res.AllocsPerOp())
	if got := res.AllocedBytesPerOp(); got >= bound {
		t.Fatalf("parsing a %d-byte program allocates %d B, want < %d", len(text), got, bound)
	}
}

// FuzzParseProg: no text makes ParseProg panic, and an accepted text's
// canonical form parses back to itself.
func FuzzParseProg(f *testing.F) {
	target, seeds := probed()
	for _, p := range seeds {
		f.Add(p.String())
	}
	f.Add("# comment\r\n\r\nparam$gpu.devfreq_governor(value=\"a\\\\\")")
	f.Add(`param$gpu.devfreq_governor(value="q\"\\", extra=0x1)`)
	f.Fuzz(func(t *testing.T, text string) {
		p, err := dsl.ParseProg(target, text)
		if err != nil {
			return
		}
		canon := p.String()
		q, err := dsl.ParseProg(target, canon)
		if err != nil {
			t.Fatalf("canonical form of %q does not parse: %v\n%s", text, err, canon)
		}
		if again := q.String(); again != canon {
			t.Fatalf("canonical form is not a fixed point:\n%s\nvs\n%s", canon, again)
		}
	})
}
