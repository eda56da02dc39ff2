package server

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"livesim/internal/catalogue"
	"livesim/internal/command"
	"livesim/internal/core"
	"livesim/internal/govern"
	"livesim/internal/liveparser"
	"livesim/internal/obs"
	"livesim/internal/replica"
	"livesim/internal/wal"
	"livesim/internal/wire"
)

// hosted is one session under server management: the core session, its
// private metrics registry and span fanout, the bounded request queue
// its dedicated worker drains, and the bookkeeping the janitor and the
// drain path read.
type hosted struct {
	name string
	// sess is the live session: set by launch, replaced only by its own
	// worker when a refused append rebuilds it (rewind), read anywhere.
	sess atomic.Pointer[core.Session]
	reg  *obs.Registry // per-session registry (always on)
	fan  *obs.Fanout   // live-loop span subscribers
	out  *boundedBuf   // captured $display text
	win  *obs.Window   // rolling request latencies for top and /metrics

	// requests (session_requests) and memGauge (session_mem_bytes) are
	// reg's per-request instruments, resolved once.
	requests *obs.Counter
	memGauge *obs.Gauge

	queue   *taskQueue
	stopped chan struct{} // closed when the worker exits

	dirty    atomic.Bool
	lastUsed atomic.Int64 // unix nanos

	// wal is the session's durable change journal (nil without StateDir).
	// Only the worker goroutine (and the way in before launch, and
	// persist after stop) touch it.
	wal *wal.WAL
	// brk is the session's quarantine breaker.
	brk breaker
	// mutations counts journaled mutations since the last watermark
	// (worker goroutine only).
	mutations int
	// recovering is set while journal replay is rebuilding the session
	// after a restart, or landing an imported seed; every request gets
	// CodeRecovering until it clears.
	recovering atomic.Bool
	// importing marks an `import` placeholder: a standby's seed landing,
	// which no client reads, so it does not hold the daemon's health at
	// "recovering" the way a boot-time replay does.
	importing bool
	// markSeq/markCycle describe the last checkpoint watermark (journal
	// sequence of the marks, highest pipe cycle they cover) — surfaced
	// by `sessions`.
	markSeq   atomic.Uint64
	markCycle atomic.Uint64

	// memCkpt/memState/memWAL are the session's byte-estimate components
	// (checkpoint history, live pipe state, journal tail), refreshed by
	// the worker after mutations and read by the memory governor.
	memCkpt  atomic.Uint64
	memState atomic.Uint64
	memWAL   atomic.Uint64

	// Replication (internal/replica). epoch is the fencing token the
	// session serves under — bumped by promote, stamped on forwarded
	// mutations by the gateway, checked in the mutation gate. follower
	// marks a standby: mutations arrive only through the primary's
	// replapply stream, direct ones get CodeFollower. fenced marks a
	// stale primary whose replica was promoted under a newer epoch;
	// mutations get CodeFenced forever after. shipper streams this
	// session's WAL tail to its standby (nil when unreplicated); it is
	// an atomic pointer so the hot read paths (sessions listing, lag
	// gauges) never contend with the worker.
	epoch    atomic.Uint64
	follower atomic.Bool
	fenced   atomic.Bool
	shipper  atomic.Pointer[replica.Shipper]
}

// memBytes sums the session's footprint estimate.
func (h *hosted) memBytes() govern.MemEstimate {
	return govern.MemEstimate{
		Checkpoints: h.memCkpt.Load(),
		State:       h.memState.Load(),
		WAL:         h.memWAL.Load(),
	}
}

// task is one request in flight: its envelope call, plus, for a worker
// verb, the session it was queued on, the deadline it is held to and
// the timer that answers it when the deadline passes first. answered is
// the claim on its one answer (see Server.claim); a Conn verb's task
// has none of these.
type task struct {
	*wire.Call
	h        *hosted
	deadline time.Time
	timer    *time.Timer
	answered atomic.Bool
	execSID  string // exec span's sid: parent for live-loop + shipping spans
}

func (s *Server) newHosted(name string) *hosted {
	h := &hosted{
		name:    name,
		reg:     obs.NewRegistry(),
		fan:     obs.NewFanout(),
		out:     &boundedBuf{max: 1 << 16},
		win:     obs.NewWindow(256),
		queue:   newTaskQueue(s.cfg.QueueDepth),
		stopped: make(chan struct{}),
	}
	h.requests = h.reg.Counter("session_requests")
	h.memGauge = h.reg.Gauge("session_mem_bytes")
	// The session's live-loop spans flow into the fleet span store and
	// the flight recorder alongside any `subscribe` clients.
	s.tel.AttachSinks(h.fan)
	h.touch()
	return h
}

func (h *hosted) touch() { h.lastUsed.Store(time.Now().UnixNano()) }

func (h *hosted) idle() time.Duration {
	return time.Since(time.Unix(0, h.lastUsed.Load()))
}

// enqueue is the backpressure gate: a full queue rejects immediately
// instead of blocking the caller (the connection reader goroutine).
func (h *hosted) enqueue(t *task) error {
	if err := h.queue.push(t); err != nil {
		return err
	}
	h.touch()
	return nil
}

// taskQueue is a session's bounded request queue. A task leaves it when
// the worker takes it or when its deadline answers it first, so the
// queue holds only unanswered tasks: a burst of deadline misses frees
// the slots that live requests need.
type taskQueue struct {
	mu     sync.Mutex
	added  sync.Cond // on mu: a push or the close
	tasks  []*task   // never longer than its capacity, the queue depth
	closed bool
}

func newTaskQueue(depth int) *taskQueue {
	q := &taskQueue{tasks: make([]*task, 0, depth)}
	q.added.L = &q.mu
	return q
}

// push appends t, or refuses with ErrBackpressure when the queue is full
// or closed.
func (q *taskQueue) push(t *task) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed || len(q.tasks) == cap(q.tasks) {
		return ErrBackpressure
	}
	q.tasks = append(q.tasks, t)
	q.added.Signal()
	return nil
}

// take waits for the oldest task; false once the queue is closed and
// empty. One goroutine takes at a time.
func (q *taskQueue) take() (*task, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for len(q.tasks) == 0 && !q.closed {
		q.added.Wait()
	}
	if len(q.tasks) == 0 {
		return nil, false
	}
	t := q.tasks[0]
	q.tasks = slices.Delete(q.tasks, 0, 1)
	return t, true
}

// drop takes t out of the queue and reports whether it was still there.
func (q *taskQueue) drop(t *task) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	i := slices.Index(q.tasks, t)
	if i >= 0 {
		q.tasks = slices.Delete(q.tasks, i, i+1)
	}
	return i >= 0
}

// close refuses every later push; take still returns what is queued.
func (q *taskQueue) close() {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.closed = true
	q.added.Broadcast()
}

func (q *taskQueue) len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.tasks)
}

// worker serializes all operations on one session and answers each
// task itself. It exits when the queue is closed (eviction, close verb,
// or drain), after draining any tasks that were already accepted. A
// session that keeps blowing deadlines is failing even if each
// individual verb eventually succeeds, so every missed deadline counts
// against the breaker once: here, or in the deadline timer when it takes
// a task out of the queue.
func (s *Server) worker(h *hosted) {
	defer close(h.stopped)
	for t, ok := h.queue.take(); ok; t, ok = h.queue.take() {
		if time.Now().After(t.deadline) {
			// Its deadline passed in the queue (the timer may have answered
			// it already and not yet taken it out): it is never executed.
			s.answer(t, wire.Refuse(t.Req, wire.CodeTimeout, ErrDeadline))
			s.noteFailure(h, "request deadline exceeded")
			continue
		}
		resp := s.env.Exec(t.Call, t)
		if resp.Code == wire.CodePanic {
			s.noteFailure(h, resp.Error) // a panic counts against the breaker
		}
		h.touch()
		if !s.answer(t, resp) {
			// The deadline answered while we worked: the result is unroutable.
			s.reg.Counter("server_results_discarded").Inc()
			s.noteFailure(h, "request deadline exceeded")
		}
	}
}

// runCommand is every shared verb's handler: it runs the catalogue's
// body against the session, and for a mutation also the gates before
// (fencing, quarantine, disk) and the bookkeeping after (journal, dirty
// flag, breaker, memory estimate). A mutation is acked only once its
// journal holds it.
func (s *Server) runCommand(t *task) *Response {
	h := t.h
	cmd, _ := catalogue.Lookup(t.Verb)
	if cmd.Mutates {
		if resp := s.replGate(h, t.Req); resp != nil {
			return resp
		}
		if q, reason := h.brk.quarantined(); q {
			return wire.Refuse(t.Req, wire.CodeQuarantined, fmt.Errorf("%s: %w", reason, ErrQuarantined))
		}
		if s.diskLevelNow() >= govern.LevelEmergency {
			// Emergency rung: no room left to journal or checkpoint what
			// this mutation would produce — refusing it is the only honest
			// answer. Reads keep working.
			return wire.Refuse(t.Req, wire.CodeDiskFull, ErrDiskFull)
		}
	}

	sp := t.Span.Child("exec")
	defer sp.End()
	t.execSID = sp.SID()

	// Hand the session tracer the request's wire trace context for the
	// duration of this verb: every live-loop span it starts (swap,
	// reload, verify, …) joins the request's tree, parented under this
	// exec span. The worker serializes the session, so the bracketing
	// cannot interleave with another request — except verify spans ended
	// by background workers, which captured the context at Child() time
	// and keep it.
	sess := h.sess.Load()
	sess.SetTraceContext(t.Req.TraceID, t.execSID)
	defer sess.SetTraceContext("", "")

	var out bytes.Buffer
	env := &command.Env{
		Session: sess,
		Metrics: h.reg,
		Out:     &out,
	}
	if t.Req.Files != nil {
		files := t.Req.Files
		env.ApplySource = func() (liveparser.Source, error) {
			return liveparser.Source{Files: files}, nil
		}
	}
	err := command.Dispatch(env, t.Verb, t.Req.Args)
	if cmd.Mutates {
		switch {
		case err == nil:
			if jerr := s.journalMutation(h, t); jerr != nil {
				// Durable or refused: the journal would not take the
				// mutation, so it is undone — the session is rebuilt from
				// what the journal holds — and refused. A full disk is the
				// daemon's condition, not the session's fault: the breaker
				// does not hear of it.
				s.rewind(h, jerr)
				return wire.Refuse(t.Req, wire.CodeDiskFull,
					fmt.Errorf("journal append failed, mutation undone (%v): %w", jerr, ErrDiskFull))
			}
			h.dirty.Store(true)
			h.brk.success()
			s.updateMemUsage(h)
			if h.fenced.Load() {
				// The ship-on-commit hook just learned the standby was
				// promoted under a newer epoch: the mutation is applied
				// locally, but this branch of the session is dead — acking
				// it would claim a write the promoted replica never saw.
				return wire.Refuse(t.Req, wire.CodeFenced,
					fmt.Errorf("session %q: %w", h.name, ErrFenced))
			}
		case errors.Is(err, core.ErrRunCancelled):
			// The session actively failed — a cancelled runaway run — as
			// opposed to merely rejecting bad arguments; those streaks are
			// what quarantine watches.
			s.tel.Blackbox("watchdog_cancel", h.name, t.Req.TraceID, err.Error())
			s.noteFailure(h, err.Error())
		case errors.Is(err, core.ErrRolledBack):
			s.tel.Event("rollback", h.name, t.Req.TraceID, err.Error())
			s.noteFailure(h, err.Error())
		}
	}

	output := out.String()
	if disp := h.out.Drain(); disp != "" {
		output = disp + output
	}
	if err != nil {
		r := wire.Refuse(t.Req, wire.CodeError, err)
		r.Output = output
		return r
	}
	h.requests.Inc()
	return &Response{ID: t.Req.ID, OK: true, Output: output}
}

// boundedBuf captures a session's $display output between requests. It
// is written by the simulation (possibly from verification workers) and
// drained into the next response; past max bytes it drops and counts.
type boundedBuf struct {
	mu      sync.Mutex
	buf     []byte
	max     int
	dropped int
}

func (b *boundedBuf) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	room := b.max - len(b.buf)
	if room > len(p) {
		room = len(p)
	}
	if room > 0 {
		b.buf = append(b.buf, p[:room]...)
	}
	b.dropped += len(p) - room
	return len(p), nil
}

func (b *boundedBuf) Drain() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	if len(b.buf) == 0 && b.dropped == 0 {
		return ""
	}
	out := string(b.buf)
	if b.dropped > 0 {
		out += fmt.Sprintf("... (%d bytes of output dropped)\n", b.dropped)
	}
	b.buf = b.buf[:0]
	b.dropped = 0
	return out
}
