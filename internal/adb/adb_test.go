package adb

import (
	"io"
	"net"
	"strings"
	"sync"
	"testing"

	"droidfuzz/internal/device"
	"droidfuzz/internal/drivers"
	"droidfuzz/internal/dsl"
)

func newBrokerRig(t testing.TB, modelID string) (*Broker, *dsl.Target) {
	t.Helper()
	m, err := device.ModelByID(modelID)
	if err != nil {
		t.Fatal(err)
	}
	dev := device.New(m)
	target, err := dsl.NewTarget(dev.SyscallDescs()...)
	if err != nil {
		t.Fatal(err)
	}
	return NewBroker(dev, target), target
}

func TestExecNativeProgram(t *testing.T) {
	b, _ := newBrokerRig(t, "A1")
	prog := `r0 = open$tcpc(path="/dev/tcpc0")
ioctl$TCPC_SET_MODE(fd=r0, req=0xa102, mode=0x3)
ioctl$TCPC_SET_VOLTAGE(fd=r0, req=0xa103, mv=0x1388)
close$tcpc(fd=r0)
`
	res, err := b.Exec(ExecRequest{ProgText: prog})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Calls) != 4 {
		t.Fatalf("calls = %d", len(res.Calls))
	}
	for i, c := range res.Calls {
		if !c.Executed || c.Errno != "OK" {
			t.Fatalf("call %d = %+v", i, c)
		}
	}
	if len(res.KernelCov) == 0 {
		t.Fatal("no kernel coverage")
	}
	// Coverage is attributed per call.
	if len(res.Calls[1].Cover) == 0 {
		t.Fatal("per-call coverage missing")
	}
	if res.Crashed() || res.NeedsReboot() {
		t.Fatal("benign program flagged")
	}
}

func TestExecResourceFlowAndErrors(t *testing.T) {
	b, _ := newBrokerRig(t, "A1")
	prog := `r0 = open$gpu(path="/dev/gpu0")
r1 = ioctl$GPU_ALLOC(fd=r0, req=0xa601, size=0x1000)
ioctl$GPU_MAP(fd=r0, req=0xa603, handle=r1)
ioctl$GPU_MAP(fd=r0, req=0xa603, handle=nil)
`
	res, err := b.Exec(ExecRequest{ProgText: prog})
	if err != nil {
		t.Fatal(err)
	}
	if res.Calls[2].Errno != "OK" {
		t.Fatalf("mapped handle failed: %+v", res.Calls[2])
	}
	if res.Calls[3].Errno != "ENOENT" {
		t.Fatalf("bogus handle = %s, want ENOENT", res.Calls[3].Errno)
	}
}

func TestExecBadProgram(t *testing.T) {
	b, _ := newBrokerRig(t, "A1")
	if _, err := b.Exec(ExecRequest{ProgText: "nonsense(x=1)\n"}); err == nil {
		t.Fatal("bad program accepted")
	}
}

func TestExecStopsAfterWedge(t *testing.T) {
	b, _ := newBrokerRig(t, "A1") // A1 has LockdepSubclass enabled
	// Drive the lockdep BUG via a handcrafted gpu submit (magic + depth 9).
	stream := []byte{0x47, 0x50, 0x55, 0x43, 9, 0, 0, 0}
	progText := "r0 = open$gpu(path=\"/dev/gpu0\")\n" +
		"r1 = ioctl$GPU_ALLOC(fd=r0, req=0xa601, size=0x1000)\n" +
		"r2 = ioctl$GPU_SUBMIT(fd=r0, req=0xa604, handle=r1, stream=b\"" +
		hexEncode(stream) + "\")\n" +
		"ioctl$GPU_MAP(fd=r0, req=0xa603, handle=r1)\n"
	res, err := b.Exec(ExecRequest{ProgText: progText})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Wedged || !res.NeedsReboot() {
		t.Fatal("wedge not reported")
	}
	if res.Calls[3].Executed {
		t.Fatal("call after wedge executed")
	}
	found := false
	for _, cr := range res.Crashes {
		if strings.Contains(cr.Title, "invalid subclass") {
			found = true
		}
	}
	if !found {
		t.Fatalf("crash missing: %+v", res.Crashes)
	}
	b.Reboot()
	res, err = b.Exec(ExecRequest{ProgText: "r0 = open$gpu(path=\"/dev/gpu0\")\n"})
	if err != nil || res.Calls[0].Errno != "OK" {
		t.Fatal("device unusable after reboot")
	}
}

func hexEncode(b []byte) string {
	const digits = "0123456789abcdef"
	out := make([]byte, 0, len(b)*2)
	for _, x := range b {
		out = append(out, digits[x>>4], digits[x&0xf])
	}
	return string(out)
}

func TestIoctlOnlyGate(t *testing.T) {
	b, _ := newBrokerRig(t, "A1")
	b.SetIoctlOnly(true)
	prog := `r0 = open$hci(path="/dev/hci0")
ioctl$HCI_UP(fd=r0, req=0xa201)
write$hci(fd=r0, data=b"0104")
read$hci(fd=r0, n=0x10)
`
	res, err := b.Exec(ExecRequest{ProgText: prog})
	if err != nil {
		t.Fatal(err)
	}
	if res.Calls[1].Errno != "OK" {
		t.Fatalf("ioctl gated: %+v", res.Calls[1])
	}
	if res.Calls[2].Errno != "BLOCKED" || res.Calls[3].Errno != "BLOCKED" {
		t.Fatalf("read/write not blocked: %+v %+v", res.Calls[2], res.Calls[3])
	}
	// The gate survives a reboot.
	b.Reboot()
	res, _ = b.Exec(ExecRequest{ProgText: prog})
	if res.Calls[2].Errno != "BLOCKED" {
		t.Fatal("gate lost after reboot")
	}
	b.SetIoctlOnly(false)
	res, _ = b.Exec(ExecRequest{ProgText: prog})
	if res.Calls[2].Errno != "OK" {
		t.Fatalf("write still blocked: %+v", res.Calls[2])
	}
}

func TestHALTraceCapturedViaBluetoothHAL(t *testing.T) {
	m, _ := device.ModelByID("A1")
	dev := device.New(m)
	target, err := dsl.NewTarget(dev.SyscallDescs()...)
	if err != nil {
		t.Fatal(err)
	}
	// Extend with a minimal hand-rolled HAL interface description
	// matching the Bluetooth service's "enable" method (code 1).
	enable := &dsl.CallDesc{
		Name: "hal$bluetooth.enable", Class: dsl.ClassHAL,
		Service: "android.hardware.bluetooth", Method: "enable", MethodCode: 1,
		CriticalArg: -1,
	}
	target, err = target.Extend(enable)
	if err != nil {
		t.Fatal(err)
	}
	b := NewBroker(dev, target)
	res, err := b.Exec(ExecRequest{ProgText: "hal$bluetooth.enable()\n"})
	if err != nil {
		t.Fatal(err)
	}
	if res.Calls[0].Errno != "OK" {
		t.Fatalf("enable = %+v", res.Calls[0])
	}
	if len(res.HALTrace) == 0 {
		t.Fatal("no HAL-origin syscall trace")
	}
	// The trace must show the HCI_UP ioctl from the HAL pid.
	found := false
	for _, ev := range res.HALTrace {
		if ev.NR == "ioctl" && ev.Arg == drivers.HCIUp {
			found = true
		}
	}
	if !found {
		t.Fatalf("HCI_UP missing from trace: %+v", res.HALTrace)
	}
	// Native-origin syscalls never appear in the HAL trace.
	res, _ = b.Exec(ExecRequest{ProgText: "r0 = open$hci(path=\"/dev/hci0\")\n"})
	if len(res.HALTrace) != 0 {
		t.Fatal("native syscall leaked into HAL trace")
	}
}

// pipeDialer returns a dial function that serves srv on the device end of
// a fresh net.Pipe for every (re)connection.
func pipeDialer(srv *Server) func() (io.ReadWriteCloser, error) {
	return func() (io.ReadWriteCloser, error) {
		host, devSide := net.Pipe()
		go srv.Serve(devSide)
		return host, nil
	}
}

// dialPipe attaches a Resilient client to srv over net.Pipe.
func dialPipe(t *testing.T, srv *Server, opts ResilientOptions) *Resilient {
	t.Helper()
	r, err := NewResilient(pipeDialer(srv), opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.Close() })
	return r
}

func TestTransportRoundTrip(t *testing.T) {
	b, _ := newBrokerRig(t, "B")
	done := make(chan error, 1)
	r, err := NewResilient(func() (io.ReadWriteCloser, error) {
		host, devSide := net.Pipe()
		go func() { done <- (&Server{X: b}).Serve(devSide) }()
		return host, nil
	}, ResilientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Ping(); err != nil {
		t.Fatal(err)
	}
	res, err := r.Exec(ExecRequest{ProgText: "r0 = open$hci(path=\"/dev/hci0\")\n"})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Calls) != 1 || res.Calls[0].Errno != "OK" {
		t.Fatalf("remote exec = %+v", res.Calls)
	}
	// Errors cross the transport as errors, not panics.
	if _, err := r.Exec(ExecRequest{ProgText: "garbage(\n"}); err == nil {
		t.Fatal("bad program accepted remotely")
	}
	r.Close()
	if err := <-done; err != nil {
		t.Fatalf("serve: %v", err)
	}
}

func TestTransportTCP(t *testing.T) {
	b, _ := newBrokerRig(t, "B")
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go (&Server{X: b}).ServeTCP(ln)
	defer ln.Close()

	r, err := DialResilient(ln.Addr().String(), ResilientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if err := r.Ping(); err != nil {
		t.Fatal(err)
	}
	res, err := r.Exec(ExecRequest{ProgText: "r0 = open$l2cap(path=\"/dev/l2cap0\")\n"})
	if err != nil || res.Calls[0].Errno != "OK" {
		t.Fatalf("tcp exec = %v/%v", res, err)
	}
}

// TestExecsCountAdvances: every execution path counts, as Execs and as
// Info.Execs — text, a parsed program in-process, and a remote batch.
func TestExecsCountAdvances(t *testing.T) {
	const prog = "r0 = open$hci(path=\"/dev/hci0\")\n"
	b, target := newBrokerRig(t, "B")
	want := b.Execs()
	check := func(path string, n uint64) {
		t.Helper()
		want += n
		if got := b.Execs(); got != want {
			t.Fatalf("after %s: Execs = %d, want %d", path, got, want)
		}
		if info, err := b.Info(); err != nil || info.Execs != want {
			t.Fatalf("after %s: Info.Execs = %d (err %v), want %d", path, info.Execs, err, want)
		}
	}
	b.Exec(ExecRequest{ProgText: prog})
	check("Exec", 1)
	b.ExecProg(parseAll(t, target, prog)[0])
	check("ExecProg", 1)

	r := dialPipe(t, &Server{X: b}, ResilientOptions{})
	if _, err := r.ExecBatch(ExecBatchRequest{Progs: parseAll(t, r.Target(), prog, prog, prog)}); err != nil {
		t.Fatal(err)
	}
	check("a remote ExecBatch", 3)
	if info, err := r.Info(); err != nil || info.Execs != want {
		t.Fatalf("remote Info.Execs = %d (err %v), want %d", info.Execs, err, want)
	}
}

func TestDmesgAttachedOnCrash(t *testing.T) {
	b, _ := newBrokerRig(t, "B") // carries the shallow l2cap bug
	prog := `r0 = open$l2cap(path="/dev/l2cap0")
ioctl$L2CAP_DISCONNECT(fd=r0, req=0xa302)
`
	res, err := b.Exec(ExecRequest{ProgText: prog})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Crashed() {
		t.Fatal("expected crash")
	}
	if len(res.Dmesg) == 0 {
		t.Fatal("dmesg tail missing from crash result")
	}
	found := false
	for _, line := range res.Dmesg {
		if strings.Contains(line, "l2cap_send_disconn_req") {
			found = true
		}
	}
	if !found {
		t.Fatalf("splat missing from dmesg: %v", res.Dmesg)
	}
	// Benign executions carry no dmesg payload.
	b.Reboot()
	res, _ = b.Exec(ExecRequest{ProgText: "r0 = open$hci(path=\"/dev/hci0\")\n"})
	if len(res.Dmesg) != 0 {
		t.Fatal("dmesg attached to clean execution")
	}
}

func TestTransportConcurrentClients(t *testing.T) {
	b, _ := newBrokerRig(t, "B")
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go (&Server{X: b}).ServeTCP(ln)
	defer ln.Close()

	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r, err := DialResilient(ln.Addr().String(), ResilientOptions{})
			if err != nil {
				errs <- err
				return
			}
			defer r.Close()
			for i := 0; i < 25; i++ {
				res, err := r.Exec(ExecRequest{ProgText: "r0 = open$hci(path=\"/dev/hci0\")\n"})
				if err != nil {
					errs <- err
					return
				}
				if res.Calls[0].Errno != "OK" {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
