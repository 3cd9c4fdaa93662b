package kcov

import (
	"errors"
	"math/bits"
)

// Delta codec for PC traces crossing the executor wire (transport v2).
//
// A kcov trace is an ordered sequence of 32-bit PCs. On a real kernel,
// consecutive PCs cluster tightly — loops revisit neighbouring driver
// blocks — so encoding each PC as the zigzag-mapped difference from its
// predecessor in LEB128 varint form shrinks the common case to one or two
// bytes per hit. This substrate's PCs are FNV-32a hashes of cover sites
// (see PC), so their deltas spread over the whole 32-bit range and code to
// about 5 bytes each, against 4 in the flat form; here the summary uplink
// saves bytes only by eliding traces. The codec is lossless for arbitrary
// (including unsorted) traces and preserves order: the decoder reproduces
// the exact input sequence, so per-call attribution and directional
// feedback survive the round trip.

var (
	// ErrDeltaTruncated reports a varint cut off mid-value.
	ErrDeltaTruncated = errors.New("kcov: truncated delta stream")
	// ErrDeltaCorrupt reports a decoded value outside the uint32 PC range
	// or an over-long varint.
	ErrDeltaCorrupt = errors.New("kcov: corrupt delta stream")
)

// AppendDelta appends the delta-zigzag-varint encoding of trace onto dst,
// reusing dst's capacity, and returns the extended slice. The empty trace
// encodes to zero bytes.
func AppendDelta(dst []byte, trace []uint32) []byte {
	prev := int64(0)
	for _, pc := range trace {
		d := int64(pc) - prev
		u := uint64(d<<1) ^ uint64(d>>63) // zigzag: small magnitudes stay small
		for u >= 0x80 {
			dst = append(dst, byte(u)|0x80)
			u >>= 7
		}
		dst = append(dst, byte(u))
		prev = int64(pc)
	}
	return dst
}

// DeltaLen is len(AppendDelta(nil, trace)), computed without encoding.
func DeltaLen(trace []uint32) int {
	n := 0
	prev := int64(0)
	for _, pc := range trace {
		d := int64(pc) - prev
		u := uint64(d<<1) ^ uint64(d>>63)
		n += (bits.Len64(u|1) + 6) / 7
		prev = int64(pc)
	}
	return n
}

// DecodeDelta appends the PCs encoded in data onto dst, reusing dst's
// capacity, and returns the extended slice. It fails on truncated varints
// and on streams that decode outside the 32-bit PC range.
func DecodeDelta(dst []uint32, data []byte) ([]uint32, error) {
	prev := int64(0)
	for i := 0; i < len(data); {
		var u uint64
		shift := uint(0)
		for {
			if i >= len(data) {
				return dst, ErrDeltaTruncated
			}
			b := data[i]
			i++
			if shift == 63 && b > 1 {
				return dst, ErrDeltaCorrupt
			}
			u |= uint64(b&0x7f) << shift
			if b < 0x80 {
				break
			}
			shift += 7
			if shift > 63 {
				return dst, ErrDeltaCorrupt
			}
		}
		d := int64(u>>1) ^ -int64(u&1)
		v := prev + d
		if v < 0 || v > int64(^uint32(0)) {
			return dst, ErrDeltaCorrupt
		}
		dst = append(dst, uint32(v))
		prev = v
	}
	return dst, nil
}
