package device

import (
	"testing"

	"droidfuzz/internal/bugs"
	"droidfuzz/internal/dsl"
	"droidfuzz/internal/kcov"
	"droidfuzz/internal/vkernel"
)

func TestModelsMatchTableI(t *testing.T) {
	ms := Models()
	if len(ms) != 7 {
		t.Fatalf("models = %d, want 7", len(ms))
	}
	wantIDs := []string{"A1", "A2", "B", "C1", "C2", "D", "E"}
	for i, m := range ms {
		if m.ID != wantIDs[i] {
			t.Fatalf("model %d id = %s, want %s", i, m.ID, wantIDs[i])
		}
		if m.Vendor == "" || m.Name == "" || m.Arch == "" || m.Kernel == "" {
			t.Fatalf("model %s incomplete: %+v", m.ID, m)
		}
		if len(m.Drivers) == 0 || len(m.HALs) == 0 {
			t.Fatalf("model %s has empty driver/HAL set", m.ID)
		}
	}
	// Only E is amd64, as in Table I.
	for _, m := range ms {
		want := "aarch64"
		if m.ID == "E" {
			want = "amd64"
		}
		if m.Arch != want {
			t.Fatalf("%s arch = %s", m.ID, m.Arch)
		}
	}
}

func TestBugMappingMatchesTableII(t *testing.T) {
	want := map[string][]bugs.ID{
		"A1": {bugs.TCPCProbe, bugs.GraphicsHALCrash, bugs.LockdepSubclass, bugs.TCPCVbus, bugs.TCPCContractOVP},
		"A2": {bugs.AudioHang, bugs.MediaHALCrash, bugs.HCICodecs},
		"B":  {bugs.L2capDisconn},
		"C1": {bugs.CameraHALCrash},
		"C2": {bugs.RateInit},
		"D":  {bugs.BTAcceptUnlink},
		"E":  {bugs.V4LQuerycap},
	}
	total := 0
	for _, m := range Models() {
		ids := want[m.ID]
		if len(m.Bugs) != len(ids) {
			t.Fatalf("%s has %d bugs, want %d", m.ID, len(m.Bugs), len(ids))
		}
		for _, id := range ids {
			if !m.Bugs.Has(id) {
				t.Fatalf("%s missing bug %v", m.ID, id)
			}
		}
		total += len(ids)
	}
	if total != 13 {
		t.Fatalf("total injected bugs = %d, want 13", total)
	}
}

func TestModelByID(t *testing.T) {
	if _, err := ModelByID("A1"); err != nil {
		t.Fatal(err)
	}
	if _, err := ModelByID("Z9"); err == nil {
		t.Fatal("unknown model accepted")
	}
}

func TestBootAndHealth(t *testing.T) {
	m, _ := ModelByID("A1")
	d := New(m)
	if !d.Healthy() {
		t.Fatal("fresh device unhealthy")
	}
	if len(d.K.DevicePaths()) != len(m.Drivers) {
		t.Fatalf("dev nodes = %d, want %d", len(d.K.DevicePaths()), len(m.Drivers))
	}
	if len(d.SM.List()) != len(m.HALs) {
		t.Fatalf("services = %d, want %d", len(d.SM.List()), len(m.HALs))
	}
	if len(d.Procs) != len(m.HALs) {
		t.Fatalf("processes = %d", len(d.Procs))
	}
}

func TestRebootClearsWedge(t *testing.T) {
	m, _ := ModelByID("A1")
	d := New(m)
	// Wedge the kernel via an invalid lockdep subclass.
	fd, err := d.K.Open(NativePID, vkernel.OriginNative, "/dev/gpu0", 0)
	if err != nil {
		t.Fatal(err)
	}
	_ = fd
	// Simulate a fatal incident directly through the heap: UAF.
	obj := d.K.Heap.Alloc(8, "a")
	d.K.Heap.Free(obj, "f")
	// Wedge via the lock validator.
	d.K.LockAcquire(nil /* ctx unused on success path */, "x", 0)
	// Direct wedge: watchdog through a spin is complex here; use Bug path
	// via lockdep invalid subclass with a real ctx is already covered in
	// vkernel tests. Reboot must always produce a healthy device.
	d.Reboot()
	if !d.Healthy() {
		t.Fatal("rebooted device unhealthy")
	}
	if d.Reboots() != 1 {
		t.Fatalf("reboots = %d", d.Reboots())
	}
	// The new kernel is distinct and fresh.
	if d.K.OpenFDs() != 0 {
		t.Fatal("fds survived reboot")
	}
}

func TestHubSurvivesReboot(t *testing.T) {
	m, _ := ModelByID("B")
	d := New(m)
	probe := d.Hub.Attach(nil, 0)
	d.Reboot()
	// Events from the new kernel still reach the old probe.
	d.K.Open(NativePID, vkernel.OriginNative, "/dev/hci0", 0)
	if len(probe.Events()) == 0 {
		t.Fatal("probe detached by reboot")
	}
}

func TestSyscallDescsFormValidTarget(t *testing.T) {
	for _, m := range Models() {
		d := New(m)
		target, err := dsl.NewTarget(d.SyscallDescs()...)
		if err != nil {
			t.Fatalf("%s: %v", m.ID, err)
		}
		if len(target.Calls()) < 20 {
			t.Fatalf("%s: only %d calls", m.ID, len(target.Calls()))
		}
		// Every device path referenced by an open$ desc must exist.
		paths := make(map[string]bool)
		for _, p := range d.K.DevicePaths() {
			paths[p] = true
		}
		for _, desc := range target.Calls() {
			if desc.Syscall != "open" {
				continue
			}
			for _, p := range desc.Args[0].Type.StrChoices {
				if !paths[p] {
					t.Fatalf("%s: %s references missing %s", m.ID, desc.Name, p)
				}
			}
		}
	}
}

func TestPCIndexCoversDriverModules(t *testing.T) {
	m, _ := ModelByID("A1")
	d := New(m)
	idx := d.PCIndex(512)
	if idx[kcov.PC("tcpc", 10)] != "tcpc" {
		t.Fatal("tcpc site missing from index")
	}
	if idx[kcov.PC("gpu", 54)] != "gpu" {
		t.Fatal("gpu site missing from index")
	}
	if _, ok := idx[kcov.PC("nonexistent", 1)]; ok {
		t.Fatal("phantom module in index")
	}
}

func TestHALCrashDrain(t *testing.T) {
	m, _ := ModelByID("A1")
	d := New(m)
	if got := d.TakeHALCrashes(); len(got) != 0 {
		t.Fatalf("fresh device has crashes: %v", got)
	}
}

// TestHALCrashDrainAllocatesNothingWhenClean pins the broker's per-exec
// drain: a device with no crashed HAL returns nil without allocating.
func TestHALCrashDrainAllocatesNothingWhenClean(t *testing.T) {
	m, _ := ModelByID("A1")
	d := New(m)
	if n := testing.AllocsPerRun(100, func() { d.TakeHALCrashes() }); n != 0 {
		t.Fatalf("TakeHALCrashes on a clean device: %v allocs, want 0", n)
	}
}
