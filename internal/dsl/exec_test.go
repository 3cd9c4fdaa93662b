package dsl_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"sync"
	"testing"

	"droidfuzz/internal/device"
	"droidfuzz/internal/dsl"
	"droidfuzz/internal/gen"
	"droidfuzz/internal/probe"
	"droidfuzz/internal/relation"
)

// allProbed is every model's probed target with its probing seeds.
var allProbed = sync.OnceValue(func() map[string]probedModel {
	out := make(map[string]probedModel)
	for _, m := range device.Models() {
		target, pr, err := probe.Target(device.New(m), probe.Options{Params: true})
		if err != nil {
			panic(err)
		}
		out[m.ID] = probedModel{target, pr.Seeds}
	}
	return out
})

type probedModel struct {
	target *dsl.Target
	seeds  []*dsl.Prog
}

// checkExecMatchesText holds the exec encoding to the text form: p's
// exec bytes decode exactly when its text parses, and to the same
// program. It reports whether p was accepted.
func checkExecMatchesText(t *testing.T, target *dsl.Target, p *dsl.Prog) bool {
	t.Helper()
	text := p.String()
	want, werr := dsl.ParseProg(target, text)
	b, err := dsl.AppendExec(nil, target, p)
	if err != nil {
		t.Fatalf("AppendExec: %v\n%s", err, text)
	}
	got, gerr := dsl.DecodeExec(target, b)
	if (werr == nil) != (gerr == nil) {
		t.Fatalf("text parse err = %v, exec decode err = %v\n%s", werr, gerr, text)
	}
	if werr != nil {
		return false
	}
	if g, w := got.String(), want.String(); g != w {
		t.Fatalf("exec round trip differs from the text one:\n got %s\nwant %s", g, w)
	}
	return true
}

// TestExecEncodingMatchesText: for every probing seed of every model, and
// for a few thousand generated and mutated programs (some with forward or
// foreign resource references the decoder must reject), DecodeExec of
// AppendExec gives what ParseProg of String gives.
func TestExecEncodingMatchesText(t *testing.T) {
	models := allProbed()
	if len(models) != 7 {
		t.Fatalf("%d models probed, want 7", len(models))
	}
	accepted, rejected := 0, 0
	for id, m := range models {
		if len(m.seeds) == 0 {
			t.Fatalf("model %s has no probing seeds", id)
		}
		for _, p := range m.seeds {
			if !checkExecMatchesText(t, m.target, p) {
				t.Fatalf("model %s probing seed rejected:\n%s", id, p)
			}
			accepted++
		}
		graph := relation.New()
		for _, d := range m.target.Calls() {
			graph.AddVertex(d.Name, d.Weight)
		}
		rng := rand.New(rand.NewSource(int64(len(id)) + 41))
		g := gen.New(m.target, graph, rng, gen.Options{})
		pool := append([]*dsl.Prog(nil), m.seeds...)
		for i := 0; i < 500; i++ {
			var p *dsl.Prog
			if i%2 == 0 {
				p = g.Generate()
			} else {
				p, _ = g.Mutate(pool[rng.Intn(len(pool))], pool[rng.Intn(len(pool))])
			}
			pool = append(pool, p)
			if i%10 == 9 {
				p = p.Clone()
				breakRef(p, rng)
			}
			if checkExecMatchesText(t, m.target, p) {
				accepted++
			} else {
				rejected++
			}
		}
	}
	t.Logf("accepted %d, rejected %d", accepted, rejected)
	if rejected == 0 {
		t.Fatal("no invalid program was tried")
	}
}

// breakRef points one resource argument of p at its own call or a later
// one, a reference both codecs must refuse.
func breakRef(p *dsl.Prog, rng *rand.Rand) {
	for i, c := range p.Calls {
		for j, f := range c.Desc.Args {
			if f.Type.Kind == dsl.KindResource {
				c.Args[j].Ref = i + rng.Intn(3)
				return
			}
		}
	}
}

// TestExecRejectsMalformed: truncations, a call index outside the target,
// an overlong varint and trailing bytes are all errors.
func TestExecRejectsMalformed(t *testing.T) {
	target, p := seedProg(t)
	b, err := dsl.AppendExec(nil, target, p)
	if err != nil {
		t.Fatal(err)
	}
	for n := 0; n < len(b); n++ {
		if _, err := dsl.DecodeExec(target, b[:n]); err == nil {
			t.Fatalf("truncation to %d of %d bytes decoded", n, len(b))
		}
	}
	for name, bad := range map[string][]byte{
		"trailing byte":    append(append([]byte(nil), b...), 0),
		"index past table": binary.AppendUvarint([]byte{1}, uint64(len(target.Calls()))),
		"overlong count":   append([]byte{0x80 | b[0], 0}, b[1:]...),
		"count past bytes": {0x7f, 0},
	} {
		if _, err := dsl.DecodeExec(target, bad); !errors.Is(err, dsl.ErrExecCorrupt) {
			t.Errorf("%s: err = %v, want ErrExecCorrupt", name, err)
		}
	}
}

// TestExecDecoderReuse: one ExecDecoder decodes programs of every size,
// with rejected bytes in between, each to what ParseProg of its text gives;
// once its arrays have grown, a decode allocates only for string arguments.
func TestExecDecoderReuse(t *testing.T) {
	var x dsl.ExecDecoder
	for id, m := range allProbed() {
		for i, p := range m.seeds {
			b, err := dsl.AppendExec(nil, m.target, p)
			if err != nil {
				t.Fatal(err)
			}
			got, err := x.Decode(m.target, b)
			if err != nil {
				t.Fatalf("model %s seed %d: %v", id, i, err)
			}
			if g, w := got.String(), p.String(); g != w {
				t.Fatalf("model %s seed %d: reused decode differs:\n got %s\nwant %s", id, i, g, w)
			}
			if _, err := x.Decode(m.target, b[:len(b)-1]); err == nil {
				t.Fatalf("model %s seed %d: truncated program decoded", id, i)
			}
		}
	}
	target, p := seedProg(t)
	b, err := dsl.AppendExec(nil, target, p)
	if err != nil {
		t.Fatal(err)
	}
	strs := 0
	for _, c := range p.Calls {
		for j, f := range c.Desc.Args {
			if k := f.Type.Kind; (k == dsl.KindString || k == dsl.KindFilename) && c.Args[j].Str != "" {
				strs++
			}
		}
	}
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := x.Decode(target, b); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > float64(strs) {
		t.Fatalf("reused decode made %.0f allocations, want at most %d (one per string argument)", allocs, strs)
	}
}

// TestAppendExecForeignDesc: a description from another target with the
// same name encodes against this one, as the text form resolves names; an
// unknown one is an error.
func TestAppendExecForeignDesc(t *testing.T) {
	target, p := seedProg(t)
	var copies []*dsl.CallDesc
	for _, d := range target.Calls() {
		c := *d
		copies = append(copies, &c)
	}
	twin, err := dsl.NewTarget(copies...)
	if err != nil {
		t.Fatal(err)
	}
	other, err := dsl.ParseProg(twin, p.String())
	if err != nil {
		t.Fatal(err)
	}
	checkExecMatchesText(t, target, other)
	d := *p.Calls[0].Desc
	d.Name = "no$such.call"
	q := p.Clone()
	q.Calls[0].Desc = &d
	if _, err := dsl.AppendExec(nil, target, q); err == nil {
		t.Fatal("a call outside the target encoded")
	}
}

// FuzzDecodeExec: no input makes DecodeExec panic, and accepted bytes
// re-encode to themselves.
func FuzzDecodeExec(f *testing.F) {
	target, seeds := probed()
	for _, p := range seeds {
		b, err := dsl.AppendExec(nil, target, p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		p, err := dsl.DecodeExec(target, b)
		if err != nil {
			return
		}
		again, err := dsl.AppendExec(nil, target, p)
		if err != nil {
			t.Fatalf("decoded program does not encode: %v", err)
		}
		if !bytes.Equal(again, b) {
			t.Fatalf("re-encoding differs:\n got %x\nwant %x", again, b)
		}
	})
}
