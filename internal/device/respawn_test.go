package device

import (
	"fmt"
	"slices"
	"sync"
	"testing"

	"droidfuzz/internal/binder"
	"droidfuzz/internal/hal"
	"droidfuzz/internal/vkernel"
)

// halCall invokes a method by name on the device's HAL with the given
// descriptor, resolving the transaction code by reflection as framework
// client stubs do.
func halCall(d *Device, desc, method string, marshal func(*binder.Parcel)) (uint64, binder.Status, error) {
	var p *hal.Process
	for _, q := range d.Procs {
		if q.Descriptor() == desc {
			p = q
		}
	}
	if p == nil {
		return 0, 0, fmt.Errorf("%s has no HAL %s", d.Model.ID, desc)
	}
	refl := binder.NewParcel()
	if st := p.Transact(binder.InterfaceTransaction, binder.NewParcel(), refl); st != binder.StatusOK {
		return 0, st, fmt.Errorf("reflect %s: %v", desc, st)
	}
	methods, err := binder.UnmarshalMethods(refl)
	if err != nil {
		return 0, 0, err
	}
	for _, m := range methods {
		if m.Name == method {
			in, out := binder.NewParcel(), binder.NewParcel()
			if marshal != nil {
				marshal(in)
			}
			st := p.Transact(m.Code, in, out)
			v, _ := out.ReadUint64()
			return v, st, nil
		}
	}
	return 0, 0, fmt.Errorf("%s has no method %s", desc, method)
}

// driveComposerAndCodec creates two composer layers and one media codec,
// presents, queues a buffer and destroys the second layer. It returns the
// handles the HALs handed out and the kernel trace the sequence produced.
func driveComposerAndCodec(d *Device) ([]uint64, []vkernel.Event, error) {
	probe := d.Hub.Attach(nil, 0)
	defer probe.Detach()
	layer := func(p *binder.Parcel) { p.WriteUint64(640); p.WriteUint64(480); p.WriteUint64(1) }
	var ids []uint64
	for _, c := range []struct {
		desc, method string
		marshal      func(*binder.Parcel)
	}{
		{hal.GraphicsDescriptor, "createLayer", layer},
		{hal.GraphicsDescriptor, "createLayer", layer},
		{hal.GraphicsDescriptor, "presentDisplay", nil},
		{hal.GraphicsDescriptor, "destroyLayer", func(p *binder.Parcel) { p.WriteUint64(2) }},
		{hal.MediaDescriptor, "createCodec", func(p *binder.Parcel) {
			p.WriteString("audio/aac")
			p.WriteUint64(0)
			p.WriteUint64(1024)
		}},
		{hal.MediaDescriptor, "queueBuffer", func(p *binder.Parcel) {
			p.WriteUint64(1)
			p.WriteBytes(make([]byte, 256))
		}},
	} {
		v, st, err := halCall(d, c.desc, c.method, c.marshal)
		if err != nil {
			return nil, nil, err
		}
		if st != binder.StatusOK {
			return nil, nil, fmt.Errorf("%s.%s: %v", c.desc, c.method, st)
		}
		ids = append(ids, v)
	}
	return ids, probe.Take(), nil
}

// checkIsolation drives the composer and codec of device a while device b
// of the same model watches, then drives b the same way. The HALs of both
// devices share one transaction table per service type; their state and
// kernel traces must not.
func checkIsolation(a, b *Device) error {
	watch := b.Hub.Attach(nil, 0)
	defer watch.Detach()
	gens := make([]uint64, len(b.Procs))
	for i, p := range b.Procs {
		gens[i] = p.Gen()
	}
	calls := b.K.SyscallCount()

	idsA, traceA, err := driveComposerAndCodec(a)
	if err != nil {
		return fmt.Errorf("device a: %w", err)
	}
	if len(traceA) == 0 {
		return fmt.Errorf("device a: HALs issued no syscalls")
	}
	if ev := watch.Take(); len(ev) != 0 {
		return fmt.Errorf("device b traced %d syscalls of device a", len(ev))
	}
	if n := b.K.SyscallCount(); n != calls {
		return fmt.Errorf("device b syscall count moved %d -> %d", calls, n)
	}
	for i, p := range b.Procs {
		if p.Gen() != gens[i] {
			return fmt.Errorf("device b HAL %s dirtied by device a", p.Descriptor())
		}
	}

	// b's services start from their own pristine state: the same handles,
	// the same syscalls, as a saw from the same sequence.
	idsB, traceB, err := driveComposerAndCodec(b)
	if err != nil {
		return fmt.Errorf("device b: %w", err)
	}
	if !slices.Equal(idsA, idsB) {
		return fmt.Errorf("handles a %v != b %v", idsA, idsB)
	}
	if !slices.Equal(traceA, traceB) {
		return fmt.Errorf("kernel traces differ:\na %v\nb %v", traceA, traceB)
	}

	// A respawn rebuilds per-instance state only: after Restore, a replays
	// the sequence exactly.
	if !a.Restore() {
		return fmt.Errorf("device a: restore fell back")
	}
	idsR, traceR, err := driveComposerAndCodec(a)
	if err != nil {
		return fmt.Errorf("device a after restore: %w", err)
	}
	if !slices.Equal(idsA, idsR) || !slices.Equal(traceA, traceR) {
		return fmt.Errorf("device a after restore: handles %v trace %v, want %v %v", idsR, traceR, idsA, traceA)
	}
	return nil
}

func bootPair(t *testing.T) (*Device, *Device) {
	t.Helper()
	m, err := ModelByID("A1")
	if err != nil {
		t.Fatal(err)
	}
	return New(m), New(m)
}

func TestHALInstancesIsolatedAcrossDevices(t *testing.T) {
	a, b := bootPair(t)
	if err := checkIsolation(a, b); err != nil {
		t.Fatal(err)
	}
}

// TestHALInstancesIsolatedConcurrently runs the isolation check on N
// device pairs at once, so the race detector sees every goroutine reading
// the package-level transaction tables while respawning services.
func TestHALInstancesIsolatedConcurrently(t *testing.T) {
	const n = 4
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := range n {
		a, b := bootPair(t)
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = checkIsolation(a, b)
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("pair %d: %v", i, err)
		}
	}
}

// BenchmarkDeviceRestore measures one pristine reset with every HAL
// dirty: each iteration issues one diagnostic transaction per HAL process
// and then restores, so every process respawns its service.
func BenchmarkDeviceRestore(b *testing.B) {
	for _, m := range Models() {
		b.Run(m.ID, func(b *testing.B) {
			d := New(m)
			codes := make([]uint32, len(d.Procs))
			for i, p := range d.Procs {
				out := binder.NewParcel()
				p.Transact(binder.InterfaceTransaction, binder.NewParcel(), out)
				methods, err := binder.UnmarshalMethods(out)
				if err != nil {
					b.Fatal(err)
				}
				for _, sig := range methods {
					if sig.Name == "getInterfaceVersion" {
						codes[i] = sig.Code
					}
				}
			}
			b.ReportAllocs()
			for b.Loop() {
				for i, p := range d.Procs {
					p.Transact(codes[i], binder.NewParcel(), binder.NewParcel())
				}
				if !d.Restore() {
					b.Fatal("restore fell back")
				}
			}
		})
	}
}
