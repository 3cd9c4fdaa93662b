package kcov

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
)

func roundTrip(t *testing.T, trace []uint32) []byte {
	t.Helper()
	enc := AppendDelta(nil, trace)
	if n := DeltaLen(trace); n != len(enc) {
		t.Fatalf("DeltaLen(%v) = %d, encoding is %d bytes", trace, n, len(enc))
	}
	dec, err := DecodeDelta(nil, enc)
	if err != nil {
		t.Fatalf("decode(%v): %v", trace, err)
	}
	if len(dec) != len(trace) {
		t.Fatalf("round trip length: got %d, want %d", len(dec), len(trace))
	}
	for i := range trace {
		if dec[i] != trace[i] {
			t.Fatalf("round trip[%d]: got %#x, want %#x (trace %v)", i, dec[i], trace[i], trace)
		}
	}
	return enc
}

func TestDeltaRoundTrip(t *testing.T) {
	cases := map[string][]uint32{
		"empty":      nil,
		"single":     {0xc0de0040},
		"single-0":   {0},
		"max-u32":    {math.MaxUint32},
		"all-max":    {math.MaxUint32, math.MaxUint32, math.MaxUint32},
		"ascending":  {1, 2, 3, 100, 1000, 1 << 30},
		"unsorted":   {0xc0de0400, 0xc0de0040, 0, math.MaxUint32, 7, 7},
		"zigzag":     {100, 0, math.MaxUint32, 0, math.MaxUint32},
		"dense-loop": {0x1000, 0x1004, 0x1008, 0x1004, 0x1008, 0x1004, 0x1008},
	}
	for name, trace := range cases {
		t.Run(name, func(t *testing.T) {
			if enc := roundTrip(t, trace); len(trace) == 0 && len(enc) != 0 {
				t.Fatalf("empty trace encoded to %d bytes", len(enc))
			}
		})
	}
}

func TestDeltaRoundTripRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for iter := 0; iter < 200; iter++ {
		trace := make([]uint32, rng.Intn(500))
		base := uint32(rng.Uint64())
		for i := range trace {
			if rng.Intn(4) == 0 {
				trace[i] = uint32(rng.Uint64()) // far jump
			} else {
				trace[i] = base + uint32(rng.Intn(64))*4 // clustered, like kcov
			}
		}
		roundTrip(t, trace)
	}
}

// Clustered traces are what the codec exists for: consecutive PCs within a
// driver should cost one or two bytes, far below the 4-byte flat encoding.
func TestDeltaCompressesClusteredTraces(t *testing.T) {
	trace := make([]uint32, 256)
	for i := range trace {
		trace[i] = 0xc0de0000 + uint32(i%96)*4
	}
	enc := roundTrip(t, trace)
	if flat := 4 * len(trace); len(enc) >= flat/2 {
		t.Fatalf("clustered trace: %d delta bytes vs %d flat, want < half", len(enc), flat)
	}
}

func TestDeltaAppendsOntoDst(t *testing.T) {
	prefix := []byte{0xaa, 0xbb}
	enc := AppendDelta(prefix, []uint32{5, 6})
	if !bytes.Equal(enc[:2], prefix[:2]) {
		t.Fatalf("prefix clobbered: %x", enc)
	}
	dec, err := DecodeDelta([]uint32{1}, enc[2:])
	if err != nil {
		t.Fatal(err)
	}
	if len(dec) != 3 || dec[0] != 1 || dec[1] != 5 || dec[2] != 6 {
		t.Fatalf("decode onto dst: %v", dec)
	}
}

func TestDeltaDecodeErrors(t *testing.T) {
	// Truncated varint: continuation bit set on the final byte.
	if _, err := DecodeDelta(nil, []byte{0x80}); err == nil {
		t.Fatal("truncated stream accepted")
	}
	// Over-long varint (11 continuation bytes can't happen for uint64).
	long := bytes.Repeat([]byte{0x80}, 11)
	if _, err := DecodeDelta(nil, append(long, 0x01)); err == nil {
		t.Fatal("over-long varint accepted")
	}
	// A delta walking below zero is corrupt (first value negative).
	if _, err := DecodeDelta(nil, AppendDelta(nil, nil)); err != nil {
		t.Fatalf("empty stream rejected: %v", err)
	}
	neg := []byte{0x01} // zigzag(-1) as first delta -> PC -1
	if _, err := DecodeDelta(nil, neg); err == nil {
		t.Fatal("negative PC accepted")
	}
}
