// Package client is the small wire-protocol client for livesimd, shared
// by the livesim shell's -connect remote mode, the gateway's backend
// hop, the replication shipper, the benchmarks and the tests. It speaks
// the newline-delimited JSON protocol of internal/wire: requests carry
// an id, responses echo it, and subscribed span events (objects with an
// "ev" field and no id) are demultiplexed onto a separate channel.
//
// Dial gives the plain fail-fast client. DialOptions with Reconnect set
// adds transparent recovery from a dropped connection (a restarted
// daemon, a flaky network): the client redials with capped exponential
// backoff and resends the idempotent requests that were in flight.
// Non-idempotent requests — anything that mutates the session or the
// server — are never resent, because the client cannot know whether the
// daemon applied them before the connection died; those calls fail with
// ErrDisconnected and the caller decides.
//
// Overload rejections are different: the server's admission controller
// rejects before executing, so Do transparently retries any verb the
// daemon answered with code "overloaded", honoring the response's
// retry_after_ms hint with jitter (see Options.OverloadRetries).
package client

import (
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"livesim/internal/command"
	"livesim/internal/govern"
	"livesim/internal/obs"
	"livesim/internal/wire"
)

// ErrDisconnected is returned for calls that cannot survive a dropped
// connection: every call on a fail-fast client, and non-idempotent
// calls on a reconnecting one.
var ErrDisconnected = errors.New("connection lost")

// Options tunes DialOptions.
type Options struct {
	// Reconnect enables transparent redial-and-resend. Off, the client
	// behaves exactly like Dial: any disconnect fails all calls.
	Reconnect bool
	// MaxAttempts bounds consecutive redial attempts before the client
	// gives up for good. Default 8.
	MaxAttempts int
	// BackoffBase is the first redial delay, doubling per attempt up to
	// BackoffCap. Defaults 50ms and 2s.
	BackoffBase time.Duration
	BackoffCap  time.Duration
	// OnReconnect, when set, is called after each successful redial with
	// the attempt count it took (for logging). Called off the caller's
	// goroutine.
	OnReconnect func(attempts int)
	// OverloadRetries bounds Do's automatic retries of requests the
	// server rejected with CodeOverloaded. An overload rejection happens
	// before the verb executes, so retrying is safe for any verb —
	// mutations included. Each retry sleeps the server's retry_after_ms
	// hint with ±20% jitter so rejected callers spread out. Default 4;
	// negative disables (the caller sees the overloaded response).
	OverloadRetries int
	// FollowMoves makes Do follow CodeMoved redirects: when a backend
	// answers that the session migrated (code "moved" + moved_to), the
	// client dials the new address, retargets the connection there, and
	// resends the request. Like overload, a moved rejection happens
	// before the verb executes, so the resend is safe for any verb.
	// Retargeting moves the whole connection: calls in flight to the old
	// backend are resent if idempotent and failed with ErrDisconnected
	// otherwise — the same contract a reconnect gives. Without this, a
	// client camped on a drained backend would retry the same address
	// forever. Redirect chains are bounded (four hops per call).
	FollowMoves bool
}

// maxMovedHops bounds redirect chains per Do call so two backends
// pointing at each other cannot loop a request forever.
const maxMovedHops = 4

// dialTimeout bounds every connect (first dial, redial, moved-follow):
// a peer that accepts nothing must cost a caller seconds, not forever.
const dialTimeout = 2 * time.Second

// redialJitter is the ±fraction applied to every redial backoff and
// overload-retry sleep: N clients cut off by one daemon restart must
// not reconnect (or re-send) in lockstep.
const redialJitter = 0.2

type connState int

const (
	stConnected connState = iota
	stReconnecting
	stClosed
)

// Client is a connection to a livesimd. Safe for concurrent use: calls
// from multiple goroutines interleave on the wire and are matched back
// to callers by request id.
type Client struct {
	opts Options
	addr string

	writeMu sync.Mutex
	nextID  atomic.Uint64

	mu       sync.Mutex
	nc       net.Conn
	state    connState
	pending  map[uint64]*pendingCall
	readErr  error
	explicit bool // Close was called; don't reconnect

	closed chan struct{}
	events chan json.RawMessage

	// rng is this client's private jitter source (seeded off govern's
	// shared source): two clients created in the same instant still
	// draw divergent backoff schedules. Guarded by rngMu — Do's
	// overload-retry path and the redial loop both draw from it.
	rngMu sync.Mutex
	rng   *rand.Rand
}

// jitter applies ±redialJitter to a delay using the client's source.
func (c *Client) jitter(d time.Duration) time.Duration {
	c.rngMu.Lock()
	defer c.rngMu.Unlock()
	return govern.Jitter(d, redialJitter, c.rng)
}

// pendingCall is one request awaiting its response. The encoded line is
// kept so a reconnect can resend idempotent calls verbatim.
type pendingCall struct {
	line []byte
	idem bool
	ch   chan callResult
}

type callResult struct {
	resp *wire.Response
	err  error
}

// Dial connects to addr: "unix:<path>", "tcp:<host:port>", or bare —
// a bare address containing a path separator is treated as a unix
// socket, anything else as TCP. The returned client fails fast on
// disconnect; use DialOptions for auto-reconnect.
func Dial(addr string) (*Client, error) {
	return DialOptions(addr, Options{})
}

// DialOptions connects with explicit reconnect behaviour.
func DialOptions(addr string, opts Options) (*Client, error) {
	if opts.MaxAttempts <= 0 {
		opts.MaxAttempts = 8
	}
	if opts.BackoffBase <= 0 {
		opts.BackoffBase = 50 * time.Millisecond
	}
	if opts.BackoffCap <= 0 {
		opts.BackoffCap = 2 * time.Second
	}
	if opts.OverloadRetries == 0 {
		opts.OverloadRetries = 4
	}
	nc, err := dial(addr)
	if err != nil {
		return nil, err
	}
	c := &Client{
		opts:    opts,
		addr:    addr,
		nc:      nc,
		pending: make(map[uint64]*pendingCall),
		closed:  make(chan struct{}),
		events:  make(chan json.RawMessage, 256),
		rng:     govern.NewRand(),
	}
	go c.readLoop(nc)
	return c, nil
}

func dial(addr string) (net.Conn, error) {
	network, target := wire.SplitAddr(addr)
	return net.DialTimeout(network, target, dialTimeout)
}

// Idempotent reports whether a verb can safely be sent twice: read-only
// session verbs (from the shared command table's Mutates flag) and
// read-only server and gateway verbs, each named here on purpose — the
// server and gateway tests fail on a verb this switch does not know.
// Mutations and one-shot verbs (create, close, subscribe, migrate, …)
// are not resendable: the daemon may have applied them before the
// connection died. Verbs that change only observability state (profile
// start/stop/reset) are deliberately marked non-mutating in the table:
// resending one after a reconnect is harmless, so they stay on the
// resend path.
func Idempotent(verb string) bool {
	switch strings.ToLower(verb) {
	case "ping", "help", "metricz", "sessions", "events", "top", "spans", "backends":
		return true
	case "create", "close", "subscribe", "unquarantine", "import", "drain",
		"replicate", "replapply", "promote", "migrate":
		return false
	}
	if cmd, ok := command.Lookup(verb); ok {
		return !cmd.Mutates
	}
	return false
}

// Do sends one request and waits for its response. The request's ID is
// assigned by the client, and a TraceID is stamped if the caller didn't
// set one — the id the server's request span and the session's
// live-loop spans inherit, so one client call reads as one span tree
// end to end. The stamp happens before the line is encoded, so a
// reconnect resend carries the same id.
//
// Overload rejections (code "overloaded") are retried automatically up
// to Options.OverloadRetries times, sleeping the server's
// retry_after_ms hint with ±20% jitter between attempts. This is safe
// for every verb: an admission rejection happens before the request
// executes, so nothing was applied. A still-overloaded daemon after the
// retry budget returns the overloaded response to the caller.
func (c *Client) Do(req *wire.Request) (*wire.Response, error) { return c.DoTimeout(req, 0) }

// DoTimeout is Do with an upper bound d (when positive) on each
// exchange: a call still unanswered after d fails with an error wrapping
// os.ErrDeadlineExceeded and is unregistered, so a late response is
// dropped. The connection stays usable; a caller that concludes the
// peer is wedged closes the client.
func (c *Client) DoTimeout(req *wire.Request, d time.Duration) (*wire.Response, error) {
	retries := c.opts.OverloadRetries
	if retries < 0 {
		retries = 0
	}
	hops := 0
	for attempt := 0; ; attempt++ {
		resp, err := c.doOnce(req, d)
		if err != nil || resp == nil {
			return resp, err
		}
		if c.opts.FollowMoves && resp.Code == wire.CodeMoved && resp.MovedTo != "" && hops < maxMovedHops {
			if ferr := c.follow(resp.MovedTo); ferr != nil {
				// The new backend is unreachable; the moved response (with
				// its forwarding address) is the most useful answer we have.
				return resp, nil
			}
			hops++
			attempt = -1 // fresh overload budget on the new backend
			continue
		}
		if resp.Code != wire.CodeOverloaded || attempt >= retries {
			return resp, err
		}
		hint := time.Duration(resp.RetryAfterMs) * time.Millisecond
		if hint <= 0 {
			hint = 25 * time.Millisecond
		}
		time.Sleep(c.jitter(hint))
	}
}

// follow retargets the connection to addr after a CodeMoved redirect:
// dial the new backend, swap it in, resend registered idempotent calls
// there and fail the rest — the disconnect contract, applied on
// purpose. The old connection is closed; its read loop exits and sees
// itself superseded.
func (c *Client) follow(addr string) error {
	nc, err := dial(addr)
	if err != nil {
		return err
	}
	c.mu.Lock()
	if c.state == stClosed {
		c.mu.Unlock()
		nc.Close()
		return ErrDisconnected
	}
	old := c.nc
	c.addr = addr
	c.nc = nc
	c.state = stConnected // also halts any redial loop aimed at the old address
	resend := make([][]byte, 0, len(c.pending))
	for id, pc := range c.pending {
		if pc.idem {
			resend = append(resend, pc.line)
			continue
		}
		delete(c.pending, id)
		pc.ch <- callResult{nil, fmt.Errorf("connection retargeted to %s: %w", addr, ErrDisconnected)}
	}
	c.mu.Unlock()
	if old != nil {
		old.Close()
	}
	c.writeMu.Lock()
	for _, line := range resend {
		if _, werr := nc.Write(line); werr != nil {
			break // the new read loop will notice and the redial path takes over
		}
	}
	c.writeMu.Unlock()
	go c.readLoop(nc)
	return nil
}

// doOnce runs one request/response exchange on the wire.
func (c *Client) doOnce(req *wire.Request, d time.Duration) (*wire.Response, error) {
	id := c.nextID.Add(1)
	req.ID = id
	if req.TraceID == "" {
		req.TraceID = obs.NewTraceID()
	}
	line, err := wire.EncodeLine(req)
	if err != nil {
		return nil, fmt.Errorf("%s request not sent: %w", req.Verb, err)
	}
	pc := &pendingCall{line: line, idem: Idempotent(req.Verb), ch: make(chan callResult, 1)}
	var expired <-chan time.Time
	if d > 0 {
		timer := time.NewTimer(d)
		defer timer.Stop()
		expired = timer.C
	}

	c.mu.Lock()
	switch c.state {
	case stClosed:
		err := c.readErr
		c.mu.Unlock()
		if err == nil {
			err = ErrDisconnected
		}
		return nil, err
	case stReconnecting:
		if !pc.idem {
			c.mu.Unlock()
			return nil, fmt.Errorf("%s: %w", req.Verb, ErrDisconnected)
		}
		// Register only: the redial's resend pass sends it when the
		// connection comes back.
		c.pending[id] = pc
		c.mu.Unlock()
	default:
		c.pending[id] = pc
		nc := c.nc
		c.mu.Unlock()
		c.writeMu.Lock()
		if d > 0 {
			// The timer below only bounds the wait for the answer; a peer
			// that stopped reading must not wedge the write either.
			nc.SetWriteDeadline(time.Now().Add(d))
		}
		_, err = nc.Write(line)
		if d > 0 {
			nc.SetWriteDeadline(time.Time{})
		}
		c.writeMu.Unlock()
		if err != nil && !(c.opts.Reconnect && pc.idem) {
			c.mu.Lock()
			delete(c.pending, id)
			c.mu.Unlock()
			nc.Close() // the line may be torn: nothing more can be framed on this conn
			return nil, err
		}
		// A failed write on a reconnecting client leaves the call
		// registered: the read loop is about to notice the dead conn and
		// the redial will resend it.
	}

	select {
	case r := <-pc.ch:
		return r.resp, r.err
	case <-expired:
		c.mu.Lock()
		delete(c.pending, id)
		c.mu.Unlock()
		return nil, fmt.Errorf("%s: no response within %v: %w", req.Verb, d, os.ErrDeadlineExceeded)
	case <-c.closed:
		c.mu.Lock()
		err := c.readErr
		c.mu.Unlock()
		if err == nil {
			err = fmt.Errorf("connection closed")
		}
		return nil, err
	}
}

// Events returns the stream of subscribed span events (raw JSON lines).
// The channel is buffered; events overflowing a slow consumer are
// dropped rather than stalling the reader. Subscriptions do not survive
// a reconnect — resubscribe after OnReconnect fires.
func (c *Client) Events() <-chan json.RawMessage { return c.events }

// Close tears the connection down; in-flight Do calls fail and no
// reconnect is attempted.
func (c *Client) Close() error {
	c.mu.Lock()
	c.explicit = true
	nc := c.nc
	wasReconnecting := c.state == stReconnecting
	c.mu.Unlock()
	if wasReconnecting {
		// No live conn and no read loop to observe the close: shut down
		// directly (the redial loop exits when it sees stClosed).
		c.shutdown(fmt.Errorf("client closed"))
		return nil
	}
	return nc.Close()
}

// shutdown moves the client to its terminal state exactly once: fails
// every pending call, closes the signal channels.
func (c *Client) shutdown(err error) {
	c.mu.Lock()
	if c.state == stClosed {
		c.mu.Unlock()
		return
	}
	c.state = stClosed
	c.readErr = err
	for id, pc := range c.pending {
		delete(c.pending, id)
		pc.ch <- callResult{nil, err}
	}
	// Channels close under the same lock that gates every event send, so
	// a superseded read loop can never write a closed channel.
	close(c.closed)
	close(c.events)
	c.mu.Unlock()
}

// disconnected handles the end of one connection's read loop.
func (c *Client) disconnected(nc net.Conn, err error) {
	c.mu.Lock()
	if c.state != stConnected || c.nc != nc {
		// A stale read loop (already superseded by a reconnect) or an
		// already-terminal client: nothing to do.
		c.mu.Unlock()
		return
	}
	if c.explicit || !c.opts.Reconnect {
		c.mu.Unlock()
		c.shutdown(err)
		return
	}
	c.state = stReconnecting
	// Fail the calls that cannot be resent; keep the idempotent ones
	// registered for the resend pass.
	for id, pc := range c.pending {
		if !pc.idem {
			delete(c.pending, id)
			pc.ch <- callResult{nil, fmt.Errorf("%w: %v", ErrDisconnected, err)}
		}
	}
	c.mu.Unlock()
	go c.redial()
}

// backoffDelays computes the first n redial sleeps for opts drawing
// jitter from rng: base doubling up to cap, each ±redialJitter. Split
// out so tests can assert two clients' schedules diverge.
func backoffDelays(opts Options, rng *rand.Rand, n int) []time.Duration {
	out := make([]time.Duration, 0, n)
	backoff := opts.BackoffBase
	for i := 0; i < n; i++ {
		out = append(out, govern.Jitter(backoff, redialJitter, rng))
		backoff *= 2
		if backoff > opts.BackoffCap {
			backoff = opts.BackoffCap
		}
	}
	return out
}

// redial reconnects with capped exponential backoff (jittered so a
// daemon restart doesn't herd every client back at once), then resends
// every registered idempotent call on the new connection.
func (c *Client) redial() {
	backoff := c.opts.BackoffBase
	var lastErr error
	for attempt := 1; attempt <= c.opts.MaxAttempts; attempt++ {
		c.mu.Lock()
		if c.state != stReconnecting {
			c.mu.Unlock()
			return
		}
		addr := c.addr
		c.mu.Unlock()

		nc, err := dial(addr)
		if err == nil {
			c.mu.Lock()
			if c.state != stReconnecting {
				c.mu.Unlock()
				nc.Close()
				return
			}
			c.nc = nc
			c.state = stConnected
			resend := make([][]byte, 0, len(c.pending))
			for _, pc := range c.pending {
				resend = append(resend, pc.line)
			}
			c.mu.Unlock()

			c.writeMu.Lock()
			for _, line := range resend {
				if _, werr := nc.Write(line); werr != nil {
					break // the new read loop will notice and come back here
				}
			}
			c.writeMu.Unlock()
			go c.readLoop(nc)
			if c.opts.OnReconnect != nil {
				c.opts.OnReconnect(attempt)
			}
			return
		}
		lastErr = err
		time.Sleep(c.jitter(backoff))
		backoff *= 2
		if backoff > c.opts.BackoffCap {
			backoff = c.opts.BackoffCap
		}
	}
	c.shutdown(fmt.Errorf("reconnect: gave up after %d attempts: %w", c.opts.MaxAttempts, lastErr))
}

func (c *Client) readLoop(nc net.Conn) {
	sc := wire.NewScanner(nc)
	for sc.Scan() {
		// One decode per line. Span events have an "ev" discriminator and
		// no request id; responses always carry their id (the outer ID
		// shadows the embedded one, so its absence is visible).
		var in struct {
			Ev string  `json:"ev"`
			ID *uint64 `json:"id"`
			wire.Response
		}
		if err := json.Unmarshal(sc.Bytes(), &in); err != nil {
			continue
		}
		if in.Ev != "" || in.ID == nil {
			ev := json.RawMessage(append([]byte(nil), sc.Bytes()...))
			c.mu.Lock()
			if c.state != stClosed {
				select {
				case c.events <- ev:
				default:
				}
			}
			c.mu.Unlock()
			continue
		}
		resp := in.Response
		resp.ID = *in.ID
		c.mu.Lock()
		pc := c.pending[resp.ID]
		delete(c.pending, resp.ID)
		c.mu.Unlock()
		if pc != nil {
			pc.ch <- callResult{&resp, nil}
		}
	}
	err := sc.Err()
	switch {
	case err == nil:
		err = fmt.Errorf("connection closed by server")
	case errors.Is(err, wire.ErrTooLong):
		// Nothing after an unframeable line can be trusted to be a line.
		err = fmt.Errorf("%w: response line exceeds the %d-byte wire limit: %w", ErrDisconnected, wire.MaxLine, err)
	}
	c.disconnected(nc, err)
}
