package adb

import (
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"droidfuzz/internal/dsl"
)

// entryCounter is an Executor that records how many of its calls ever ran
// at the same time. Each call lingers briefly so that two connections
// served without a lock overlap reliably.
type entryCounter struct {
	Executor
	cur, max atomic.Int32
}

func (c *entryCounter) enter() func() {
	n := c.cur.Add(1)
	for m := c.max.Load(); n > m && !c.max.CompareAndSwap(m, n); m = c.max.Load() {
	}
	time.Sleep(200 * time.Microsecond)
	return func() { c.cur.Add(-1) }
}

func (c *entryCounter) ExecProg(p *dsl.Prog) (*ExecResult, error) {
	defer c.enter()()
	return c.Executor.ExecProg(p)
}

func (c *entryCounter) Reset() (bool, error) {
	defer c.enter()()
	return c.Executor.Reset()
}

func (c *entryCounter) Info() (Info, error) {
	defer c.enter()()
	return c.Executor.Info()
}

// TestServerRunsOneRequestAtATime: two connections to one server — a host
// that redialed while its old connection is still served — never run
// executor calls on the device at the same time.
func TestServerRunsOneRequestAtATime(t *testing.T) {
	b, _ := newBrokerRig(t, "B")
	x := &entryCounter{Executor: b}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go (&Server{X: x}).ServeTCP(ln)

	var wg sync.WaitGroup
	errs := make(chan error, 2)
	for range 2 {
		r, err := DialResilient(ln.Addr().String(), ResilientOptions{})
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range 20 {
				if _, err := r.Exec(ExecRequest{ProgText: "r0 = open$hci(path=\"/dev/hci0\")\n"}); err != nil {
					errs <- err
					return
				}
				if _, err := r.Reset(); err != nil {
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
	if m := x.max.Load(); m != 1 {
		t.Fatalf("%d executor calls ran at once on one device, want 1", m)
	}
}
