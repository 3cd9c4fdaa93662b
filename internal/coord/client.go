package coord

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"droidfuzz/internal/adb"
)

// ClientOptions tune the reconnecting coordinator client. The retry
// discipline mirrors adb.Resilient: typed errors split transport failures
// (redial and retry) from coordinator rejections (*adb.RemoteError, stream
// healthy, surface to the caller), and redials back off on the shared
// full-jitter envelope.
type ClientOptions struct {
	// DialTimeout bounds one connection attempt (default 2s).
	DialTimeout time.Duration
	// CallTimeout bounds one RPC round trip (default 10s).
	CallTimeout time.Duration
	// MaxAttempts is how many reconnect-and-retry cycles one call performs
	// before giving up (default 3 — coordinator calls are rare and losing
	// one strands shard state, so the client tries harder than a per-exec
	// device link would).
	MaxAttempts int
	// BackoffBase/BackoffMax bound the full-jitter redial envelope
	// (defaults 50ms and 2s).
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// Dialer overrides how a stream is opened; nil dials TCP to Addr.
	// Tests hand in net.Pipe factories.
	Dialer func() (io.ReadWriteCloser, error)
}

func (o *ClientOptions) defaults() {
	if o.DialTimeout <= 0 {
		o.DialTimeout = 2 * time.Second
	}
	if o.CallTimeout <= 0 {
		o.CallTimeout = 10 * time.Second
	}
	if o.MaxAttempts <= 0 {
		o.MaxAttempts = 3
	}
	if o.BackoffBase <= 0 {
		o.BackoffBase = 50 * time.Millisecond
	}
	if o.BackoffMax <= 0 {
		o.BackoffMax = 2 * time.Second
	}
}

// Client is a host's reconnecting connection to the coordinator, run over
// the same lock-step adb.Stream as the broker link. One logical call is in
// flight at a time, serialized by the mutex across all its retries: the
// coordinator caches only the reply to a host's last Seq.
type Client struct {
	addr string
	opts ClientOptions

	mu         sync.Mutex
	stream     *adb.Stream
	failStreak int
	rng        *rand.Rand
	sleep      func(time.Duration) // test seam; nil means time.Sleep
	// seq numbers every logical call; retries of one call resend the same
	// value, which is how the coordinator tells a retry after a lost reply
	// from a fresh request (and answers it from its reply cache).
	seq uint64
	// nonce is this client instance's random registration identity; a
	// retried Register with the same nonce gets the original host ID back.
	nonce uint64
}

// DialClient connects to a coordinator at addr (or via opts.Dialer).
func DialClient(addr string, opts ClientOptions) (*Client, error) {
	opts.defaults()
	c := &Client{addr: addr, opts: opts}
	if err := c.connectLocked(); err != nil {
		return nil, err
	}
	return c, nil
}

// connectLocked opens a fresh stream. Callers hold c.mu (or own c
// exclusively, as DialClient does).
func (c *Client) connectLocked() error {
	var (
		rwc io.ReadWriteCloser
		err error
	)
	if c.opts.Dialer != nil {
		rwc, err = c.opts.Dialer()
	} else {
		rwc, err = net.DialTimeout("tcp", c.addr, c.opts.DialTimeout)
	}
	if err != nil {
		return fmt.Errorf("%w: coord dial %s: %v", adb.ErrTransport, c.addr, err)
	}
	c.stream = adb.NewStream(rwc, c.opts.CallTimeout)
	return nil
}

// Close drops the connection; a later call redials.
func (c *Client) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.dropLocked()
	return nil
}

func (c *Client) dropLocked() {
	if c.stream != nil {
		c.stream.Close()
		c.stream = nil
	}
}

// jitterLocked lazily seeds the redial jitter source from the wall clock so
// every host draws an independent reconnect schedule.
func (c *Client) jitterLocked() *rand.Rand {
	if c.rng == nil {
		c.rng = rand.New(rand.NewSource(time.Now().UnixNano())) //droidvet:nondet per-client jitter seed
	}
	return c.rng
}

// call performs one lock-step round trip with reconnect-and-retry. A
// coordinator-side rejection comes back as *adb.RemoteError without a
// retry; stream failures redial after a full-jitter backoff sleep (the
// client has nothing better to do — unlike Resilient's non-blocking
// cooldown, a host cannot make progress without its coordinator).
func (c *Client) call(req adb.CoordRequest) (adb.CoordReply, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	// One Seq per logical call, shared by every retry attempt: the
	// coordinator uses it to return the cached reply when the previous
	// attempt was processed but its reply got lost in the hangup.
	c.seq++
	req.Seq = c.seq
	var err error
	for attempt := 0; attempt <= c.opts.MaxAttempts; attempt++ {
		if attempt > 0 {
			d := adb.BackoffJitter(c.jitterLocked(), c.opts.BackoffBase, c.opts.BackoffMax, c.failStreak)
			if c.failStreak < 30 {
				c.failStreak++
			}
			c.sleepLocked(d)
		}
		if c.stream == nil {
			if err = c.connectLocked(); err != nil {
				continue
			}
		}
		var rep adb.CoordReply
		if rep, err = c.roundTripLocked(req); err != nil {
			if errors.Is(err, adb.ErrTransport) {
				c.dropLocked()
				continue
			}
			return adb.CoordReply{}, err // coordinator rejection; stream healthy
		}
		c.failStreak = 0
		return rep, nil
	}
	return adb.CoordReply{}, err
}

// nonceCounter disambiguates nonces of clients in one process: even if two
// clients' wall-clock-seeded RNGs collided, the counter xor keeps their
// registration identities distinct.
var nonceCounter atomic.Uint64

// regNonce lazily draws this client's registration nonce (never 0, so the
// coordinator always dedups it).
func (c *Client) regNonce() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	for c.nonce == 0 {
		c.nonce = c.jitterLocked().Uint64() ^ nonceCounter.Add(1)
	}
	return c.nonce
}

// sleepLocked pauses between redials (droppable in tests).
func (c *Client) sleepLocked(d time.Duration) {
	if d <= 0 {
		return
	}
	if c.sleep != nil {
		c.sleep(d)
		return
	}
	time.Sleep(d)
}

// roundTripLocked performs one exchange on the current stream, bounded by
// the call timeout.
func (c *Client) roundTripLocked(req adb.CoordRequest) (adb.CoordReply, error) {
	var rep adb.CoordReply
	if err := c.stream.Call(&req, &rep); err != nil {
		return adb.CoordReply{}, err
	}
	if rep.Err != "" {
		return adb.CoordReply{}, &adb.RemoteError{Msg: rep.Err}
	}
	return rep, nil
}

// Register announces a host and returns its assigned identity.
func (c *Client) Register(name string) (*adb.CoordRegistered, error) {
	rep, err := c.call(adb.CoordRequest{Register: &adb.CoordRegister{Name: name, Nonce: c.regNonce()}})
	if err != nil {
		return nil, err
	}
	if rep.Registered == nil {
		return nil, &adb.RemoteError{Msg: "coord: empty register reply"}
	}
	return rep.Registered, nil
}

// Heartbeat refreshes liveness and reports cumulative executions.
func (c *Client) Heartbeat(hostID string, execs uint64) (*adb.CoordBeat, error) {
	rep, err := c.call(adb.CoordRequest{Heartbeat: &adb.CoordHeartbeat{HostID: hostID, Execs: execs}})
	if err != nil {
		return nil, err
	}
	if rep.Beat == nil {
		return nil, &adb.RemoteError{Msg: "coord: empty heartbeat reply"}
	}
	return rep.Beat, nil
}

// Lease requests the next shard (or Wait/Done).
func (c *Client) Lease(hostID string) (*adb.CoordShard, error) {
	rep, err := c.call(adb.CoordRequest{Lease: &adb.CoordLeaseRequest{HostID: hostID}})
	if err != nil {
		return nil, err
	}
	if rep.Shard == nil {
		return nil, &adb.RemoteError{Msg: "coord: empty lease reply"}
	}
	return rep.Shard, nil
}

// Progress reports in-flight shard state and exchanges federation deltas.
func (c *Client) Progress(p *adb.CoordProgress) (*adb.CoordAck, error) {
	rep, err := c.call(adb.CoordRequest{Progress: p})
	if err != nil {
		return nil, err
	}
	if rep.Ack == nil {
		return nil, &adb.RemoteError{Msg: "coord: empty progress reply"}
	}
	return rep.Ack, nil
}

// Complete marks a shard finished with its final uplink.
func (c *Client) Complete(q *adb.CoordComplete) (*adb.CoordAck, error) {
	rep, err := c.call(adb.CoordRequest{Complete: q})
	if err != nil {
		return nil, err
	}
	if rep.Ack == nil {
		return nil, &adb.RemoteError{Msg: "coord: empty complete reply"}
	}
	return rep.Ack, nil
}

// Sync performs a shard-free federation exchange.
func (c *Client) Sync(s *adb.CoordSync) (*adb.CoordAck, error) {
	rep, err := c.call(adb.CoordRequest{Sync: s})
	if err != nil {
		return nil, err
	}
	if rep.Ack == nil {
		return nil, &adb.RemoteError{Msg: "coord: empty sync reply"}
	}
	return rep.Ack, nil
}
