package device

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"reflect"

	"droidfuzz/internal/binder"
	"droidfuzz/internal/ebpf"
	"droidfuzz/internal/snap"
)

// Portable checkpoints. A checkpoint is a device snapshot in transit: the
// Checkpoint payload of every subsystem, in the device's deterministic
// subsystem order, gob-encoded together with the model ID. Payloads are
// portable by the snap.Subsystem contract — exported fields, no maps, no
// pointers into the device — so the bytes can be re-materialized onto any
// booted device of the same model: locally via ImportCheckpoint or Clone,
// remotely via the adb Export/ImportCheckpoint RPCs. That is what makes
// fork-style corpus fan-out and remote cloning possible.
//
// A checkpoint is outside input (it arrives over the adb Import RPC and
// from other hosts), so an import decodes and validates every payload
// against the receiver before it restores any: a mismatched checkpoint is
// an error that leaves the device untouched, never a panic or a partial
// import. Decoded payloads are immutable like any snapshot payload —
// Restore copies, never aliases — so one decode may seed any number of
// twins.

// Checkpoint is the portable form of a device snapshot.
type Checkpoint struct {
	Model    string
	Payloads []any
}

// encodeCheckpoint captures every subsystem's payload in order and
// gob-encodes them.
func (d *Device) encodeCheckpoint() ([]byte, error) {
	payloads := make([]any, len(d.subs))
	for i, sub := range d.subs {
		payloads[i] = sub.Checkpoint()
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&Checkpoint{Model: d.Model.ID, Payloads: payloads}); err != nil {
		return nil, fmt.Errorf("device: encode checkpoint: %w", err)
	}
	return buf.Bytes(), nil
}

// decodeCheckpoint decodes a checkpoint meant for this device and checks
// every payload against it: the model and subsystem count, each payload's
// type against the device's own snapshot payload, and whatever a
// snap.Validator subsystem requires beyond its type.
func (d *Device) decodeCheckpoint(data []byte) ([]any, error) {
	var ck Checkpoint
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&ck); err != nil {
		return nil, fmt.Errorf("device: decode checkpoint: %w", err)
	}
	if ck.Model != d.Model.ID {
		return nil, fmt.Errorf("device: checkpoint is for model %s, this device is %s", ck.Model, d.Model.ID)
	}
	if len(ck.Payloads) != len(d.subs) {
		return nil, fmt.Errorf("device: checkpoint has %d subsystems, device has %d", len(ck.Payloads), len(d.subs))
	}
	for i, sub := range d.subs {
		p, want := ck.Payloads[i], d.snap.entries[i].state
		if reflect.TypeOf(p) != reflect.TypeOf(want) {
			return nil, fmt.Errorf("device: checkpoint subsystem %d holds %T, %T takes %T", i, p, sub, want)
		}
		if v, ok := sub.(snap.Validator); ok {
			if err := v.Validate(p); err != nil {
				return nil, err
			}
		}
	}
	return ck.Payloads, nil
}

// ExportCheckpoint serializes the device's current state into a portable
// checkpoint. The blob and the subsystem generations at export time are
// remembered so an immediate self-import (the lineage scheduler's
// post-prefix fork point) can skip the decode — see ImportCheckpoint.
func (d *Device) ExportCheckpoint() ([]byte, error) {
	data, err := d.encodeCheckpoint()
	if err != nil {
		return nil, err
	}
	d.exportBlob = data
	if d.exportGens = d.exportGens[:0]; cap(d.exportGens) < len(d.subs) {
		d.exportGens = make([]uint64, 0, len(d.subs))
	}
	for _, sub := range d.subs {
		d.exportGens = append(d.exportGens, sub.Gen())
	}
	return data, nil
}

// ImportCheckpoint re-materializes a checkpoint exported from a same-model
// device onto this one. The imported state also becomes the device's new
// reset point: a subsequent Restore winds back to it, which is exactly
// what a lineage wants when a mid-lineage crash must return to the
// post-prefix state rather than to boot.
//
// Two byte-identity fast paths keep the lineage scheduler's hot loop off
// the gob decoder (sanitize builds skip both so every import stays fully
// cross-verified):
//
//   - Re-importing a blob whose snapshot is still in the import cache is
//     a generation-checked restore against that snapshot — O(dirty), no
//     decode. Sound because generations are monotonic: a subsystem whose
//     generation still equals the one a snapshot recorded has exactly the
//     recorded state, no matter what was restored in between.
//   - Importing a blob the device itself just exported, with no subsystem
//     dirtied since, only needs the reset point moved: the live state
//     already equals the blob, so a snapshot recapture replaces the
//     decode-and-import entirely.
func (d *Device) ImportCheckpoint(data []byte) error {
	if !SanitizeEnabled {
		for i := range d.snapCache {
			c := d.snapCache[i]
			if c.snap == nil || !bytes.Equal(data, c.blob) {
				continue
			}
			prev := d.snap
			d.snap = c.snap
			if d.Restore() {
				d.snapPristine = false
				d.cacheSnap(c.blob, c.snap) // move to front
				return nil
			}
			d.snap = prev
		}
		if d.exportBlob != nil && bytes.Equal(data, d.exportBlob) && gensMatch(d.subs, d.exportGens) {
			d.snap = captureSnapshot(d.subs)
			d.snapPristine = false
			d.cacheSnap(data, d.snap)
			return nil
		}
	}
	payloads, err := d.decodeCheckpoint(data)
	if err != nil {
		return err
	}
	restorePayloads(d.subs, payloads)
	d.snap = captureSnapshot(d.subs)
	d.snapPristine = false
	verifyImport(d, payloads)
	d.cacheSnap(data, d.snap)
	return nil
}

// snapCacheEntry pairs an imported checkpoint's exact bytes with the
// snapshot captured when it was materialized.
type snapCacheEntry struct {
	blob []byte
	snap *Snapshot
}

// cacheSnap records blob→snapshot most-recently-used; the two slots cover
// the lineage scheduler's alternation between a post-prefix and a pristine
// checkpoint.
func (d *Device) cacheSnap(blob []byte, s *Snapshot) {
	if d.snapCache[0].snap == s || (d.snapCache[0].snap != nil && bytes.Equal(d.snapCache[0].blob, blob)) {
		d.snapCache[0] = snapCacheEntry{blob: blob, snap: s}
		return
	}
	d.snapCache[1] = d.snapCache[0]
	d.snapCache[0] = snapCacheEntry{blob: blob, snap: s}
}

// gensMatch reports whether no subsystem's dirty generation moved since
// gens was recorded.
func gensMatch(subs []snap.Subsystem, gens []uint64) bool {
	if len(gens) != len(subs) {
		return false
	}
	for i, sub := range subs {
		if sub.Gen() != gens[i] {
			return false
		}
	}
	return true
}

// restorePayloads restores one decoded payload per subsystem and marks
// each restored subsystem dirty: its state changed without passing its own
// touch points, and no earlier snapshot or export may still match its
// generation. The framework and eBPF hub are stateless and have no
// generation to bump.
func restorePayloads(subs []snap.Subsystem, payloads []any) {
	for i, sub := range subs {
		sub.Restore(payloads[i])
		if t, ok := sub.(interface{ Touch() }); ok {
			t.Touch()
		}
	}
}

// Clone stamps out n twins of this device in its *current* state,
// amortizing boot and probe cost: the subsystem trees are constructed
// fresh (object identity never crosses devices) but the captured snapshot
// payloads are shared copy-on-write — they are immutable by the snapshot
// contract and identical across twins, so one deep copy serves the whole
// fan-out. Each twin gets its own eBPF hub; brokers attach probes and
// syscall gates per twin as usual.
func (d *Device) Clone(n int) []*Device {
	if n <= 0 {
		return nil
	}
	// A pristine source with nothing dirtied since boot is bit-identical to
	// a fresh boot of the same model (boot is deterministic, and every
	// state mutation bumps a subsystem generation), so twins are plain
	// boots — no export, no imports. This is the fleet-standup case: probe
	// once, clone the probed device N ways. Sanitize builds take the full
	// import path so every clone stays cross-verified.
	if !SanitizeEnabled && d.snapPristine && gensClean(d.snap) {
		twins := make([]*Device, n)
		twins[0] = New(d.Model)
		for i := 1; i < n; i++ {
			// Boot is deterministic, so twin 0's captured payloads describe
			// every sibling's pristine state; share them copy-on-write just
			// like the hot-clone path does.
			t := &Device{Model: d.Model, Hub: ebpf.NewHub()}
			t.bootTree()
			t.snap = rebindSnapshot(twins[0].snap, t.subs)
			t.snapPristine = true
			twins[i] = t
		}
		return twins
	}
	// The source's payloads go through the same encode and decode as a
	// remote checkpoint: that strips the device-local binder registry, and
	// the one decoded set seeds every twin.
	data, err := d.encodeCheckpoint()
	if err != nil {
		panic(err)
	}
	payloads, err := d.decodeCheckpoint(data)
	if err != nil {
		panic(err)
	}
	twins := make([]*Device, n)
	var shared *Snapshot
	for i := range twins {
		t := &Device{Model: d.Model, Hub: ebpf.NewHub()}
		t.bootTree()
		restorePayloads(t.subs, payloads)
		if i == 0 {
			shared = captureSnapshot(t.subs)
			t.snap = shared
		} else {
			// Twins restored identical payloads, so twin 0's captured
			// payloads describe every twin's state; only the subsystem
			// pointers and generation bookkeeping are per-twin.
			t.snap = rebindSnapshot(shared, t.subs)
		}
		t.snapPristine = false
		verifyImport(t, payloads)
		twins[i] = t
	}
	return twins
}

// gensClean reports whether no subsystem was dirtied since the snapshot
// was captured.
func gensClean(s *Snapshot) bool {
	if s == nil {
		return false
	}
	for i := range s.entries {
		e := &s.entries[i]
		if e.sub.Gen() != e.gen {
			return false
		}
	}
	return true
}

// rebindSnapshot builds a twin's snapshot from a sibling's captured
// payloads: shared immutable state, own subsystem pointers, own
// generations. The binder registry is the one subsystem whose payload
// carries device-local identity (registered services point into their own
// device), so it is re-checkpointed per twin instead of shared.
func rebindSnapshot(src *Snapshot, subs []snap.Subsystem) *Snapshot {
	s := &Snapshot{entries: make([]snapEntry, len(subs))}
	for i, sub := range subs {
		state := src.entries[i].state
		if _, local := sub.(*binder.ServiceManager); local {
			state = sub.Checkpoint()
		}
		s.entries[i] = snapEntry{sub: sub, state: state, gen: sub.Gen()}
	}
	return s
}
