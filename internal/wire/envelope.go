package wire

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"time"

	"livesim/internal/obs"
)

// ErrDraining answers every request read once a stop began.
var ErrDraining = errors.New("server is draining")

// Daemon is what a speaker plugs into its Envelope. T is what its
// handlers take: the request itself (lsgate), or a task of the
// speaker's own that carries the Call (livesimd).
type Daemon[T any] struct {
	// Name prefixes the envelope's metrics: <Name>_requests,
	// <Name>_request_seconds, <Name>_conns_opened, <Name>_conns_closed,
	// and <Name>_refused_<code> for every answer that carries a code.
	Name    string
	Tel     *obs.Telemetry
	Metrics *obs.Registry
	// Handlers answers each verb the speaker knows, by lower-case name;
	// Exec answers any other with bad_request.
	Handlers map[string]func(T) *Response
	// Admit, when set, weighs each request the drain gate let through: a
	// non-nil reject is its answer, and release (if any) runs when the
	// answer is written.
	Admit func(*Call) (release func(), reject *Response)
	// Place runs an admitted call: Exec and Finish inline on the
	// connection's reader, or hand it to a forwarder or worker that will.
	Place func(*Call)
	// Done, when set, observes every answer before it is written.
	Done func(c *Call, resp *Response, dur time.Duration)
	// Hold, when set, is how long each answer waits on its connection's
	// write path before it is written (the slow-client fault); the
	// goroutine that answers does not wait.
	Hold func() time.Duration
}

// Envelope is the one request life livesimd and lsgate share, around
// the Acceptor that reads the requests. Each request is admitted or
// refused under the envelope's lock — once a stop began it is refused
// draining and never counted in flight — gets a `request` span (under a
// minted trace id when the client sent none) annotated with ok and code
// when it ends, is recorded in the span store and the request
// histogram, and is answered exactly once. Exec turns a handler panic
// into a CodePanic answer and a verb without a handler into bad_request.
// Every answer with a code, the Acceptor's own included, is counted by
// its code.
type Envelope[T any] struct {
	*Acceptor
	d        Daemon[T]
	requests *obs.Counter
	seconds  *obs.Histogram

	mu       sync.Mutex
	draining bool
	inflight sync.WaitGroup
}

// NewEnvelope builds the envelope and its Acceptor.
func NewEnvelope[T any](d Daemon[T]) *Envelope[T] {
	e := &Envelope[T]{d: d, requests: d.Metrics.Counter(d.Name + "_requests"),
		seconds: d.Metrics.Histogram(d.Name+"_request_seconds", nil)}
	e.Acceptor = NewAcceptor(e.conn)
	e.Acceptor.refused = e.refused
	return e
}

// refused counts one answer with code, under <Name>_refused_<code>: the
// one count of refusals, whichever layer refused.
func (e *Envelope[T]) refused(code string) {
	e.d.Metrics.Counter(e.d.Name + "_refused_" + code).Inc()
}

// Call is one request on its way through an Envelope, from the moment
// it is read until Finish writes its answer.
type Call struct {
	Req  *Request
	Verb string // Req.Verb, lower-cased
	Conn *Conn
	// N is the call's position among the requests read on Conn, from 1.
	N int
	// Span is the request span. Req.TraceID names its trace and
	// Req.ParentSpan is now its sid, so whatever the speaker does on the
	// call's behalf — spans, forwarded requests — joins its tree.
	Span *obs.Span

	start   time.Time
	release func()
	counted bool // in the envelope's inflight
	env     interface{ finish(*Call, *Response) }
}

// Finish writes the call's answer, or queues it behind its connection's
// backlog, and ends its life: it never waits on the client. Call it
// once.
func (c *Call) Finish(resp *Response) { c.env.finish(c, resp) }

// Elapsed is how long the call has been in flight.
func (c *Call) Elapsed() time.Duration { return time.Since(c.start) }

// Refuse is the answer that rejects req with code.
func Refuse(req *Request, code string, err error) *Response {
	return &Response{ID: req.ID, OK: false, Error: err.Error(), Code: code}
}

// conn is the acceptor's per-connection hook.
func (e *Envelope[T]) conn(c *Conn) func(*Request) {
	e.d.Metrics.Counter(e.d.Name + "_conns_opened").Inc()
	c.OnClose(e.d.Metrics.Counter(e.d.Name + "_conns_closed").Inc)
	read := 0
	return func(req *Request) {
		read++
		e.enter(c, req, read)
	}
}

func (e *Envelope[T]) enter(conn *Conn, req *Request, n int) {
	// Checked with the Add under the lock Stop takes: once Shutdown waits
	// on inflight, no request can add to it.
	e.mu.Lock()
	draining := e.draining
	if !draining {
		e.inflight.Add(1)
	}
	e.mu.Unlock()
	e.requests.Inc()
	if req.TraceID == "" {
		req.TraceID = obs.NewTraceID() // unstamped client: still one correlatable tree
	}
	sp := e.d.Tel.Tracer.StartRemote(req.TraceID, req.ParentSpan, "request",
		obs.Str("verb", req.Verb), obs.Str("session", req.Session))
	req.ParentSpan = sp.SID()
	c := &Call{Req: req, Verb: strings.ToLower(req.Verb), Conn: conn, N: n, Span: sp,
		start: time.Now(), counted: !draining, env: e}
	if draining {
		c.Finish(Refuse(req, CodeDraining, ErrDraining))
		return
	}
	if e.d.Admit != nil {
		release, reject := e.d.Admit(c)
		if reject != nil {
			c.Finish(reject)
			return
		}
		c.release = release
	}
	e.d.Place(c)
}

func (e *Envelope[T]) finish(c *Call, resp *Response) {
	if c.release != nil {
		c.release()
	}
	c.Span.Annotate(obs.Bool("ok", resp.OK), obs.Str("code", resp.Code))
	c.Span.End()
	dur := c.Elapsed()
	// The request span just emitted, so the store has the whole local
	// tree in hand — the tail keep/drop decision happens here.
	e.d.Tel.Store.Complete(c.Req.TraceID, dur.Microseconds(), resp.OK)
	e.seconds.Observe(dur.Seconds())
	if resp.Code != "" {
		e.refused(resp.Code)
	}
	if e.d.Done != nil {
		e.d.Done(c, resp, dur)
	}
	var hold time.Duration
	if e.d.Hold != nil {
		hold = e.d.Hold()
	}
	c.Conn.reply(resp, hold) // a failed write is the client's loss; it closed the conn
	if c.counted {
		e.inflight.Done()
	}
}

// Exec runs the handler of c's verb on arg — inline for the caller, or
// on the worker Place handed c to — and answers a verb without one with
// bad_request and a panic with CodePanic, never a dead daemon.
func (e *Envelope[T]) Exec(c *Call, arg T) (resp *Response) {
	defer func() {
		if r := recover(); r != nil {
			e.d.Tel.Blackbox("panic", c.Req.Session, c.Req.TraceID, fmt.Sprintf("recovered request panic: %v", r))
			resp = Refuse(c.Req, CodePanic, fmt.Errorf("request panic: %v", r))
		}
	}()
	run := e.d.Handlers[c.Verb]
	if run == nil {
		return Refuse(c.Req, CodeBadRequest, fmt.Errorf("unknown verb %q (try help)", c.Req.Verb))
	}
	return run(arg)
}

// Stop refuses every request read from now on; false if a stop already
// began.
func (e *Envelope[T]) Stop() (first bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	first, e.draining = !e.draining, true
	return first
}

// Draining reports whether a stop began. The flag only ever turns on,
// so a caller that reads it false under a lock of its own, and acts
// under that lock, is ordered before any sweep the stopping side makes
// under the same lock afterwards.
func (e *Envelope[T]) Draining() bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.draining
}

// Shutdown stops the envelope if Stop has not, closes the listeners and
// waits for the requests in flight, until ctx ends: then it returns
// ctx's error. Open connections stay open; Close severs them.
func (e *Envelope[T]) Shutdown(ctx context.Context) error {
	e.Stop()
	e.StopAccepting()
	done := make(chan struct{})
	go func() {
		e.inflight.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
