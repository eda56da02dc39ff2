package server

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

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
	sess *core.Session
	reg  *obs.Registry // per-session registry (always on)
	fan  *obs.Fanout   // live-loop span subscribers
	out  *boundedBuf   // captured $display text
	win  *obs.Window   // rolling request latencies for top and /metrics

	queue   chan *task
	stopped chan struct{} // closed when the worker exits

	dirty    atomic.Bool
	lastUsed atomic.Int64 // unix nanos

	// wal is the session's durable change journal (nil without StateDir).
	// Only the worker goroutine (and createSession/recoverSession before
	// the worker starts, and drain/evict after it stops) touch it.
	wal *wal.WAL
	// brk is the session's quarantine breaker.
	brk breaker
	// mutations counts journaled mutations since the last watermark
	// (worker goroutine only).
	mutations int
	// recovering is set while journal replay is rebuilding the session
	// after a restart; every request gets CodeRecovering until it clears.
	recovering atomic.Bool
	// markSeq/markCycle describe the last checkpoint watermark (journal
	// sequence of the marks, highest pipe cycle they cover) — surfaced
	// by `sessions`.
	markSeq   atomic.Uint64
	markCycle atomic.Uint64

	// journalPaused is set when durability is suspended — disk pressure
	// reached the critical rung, or the journal append path kept failing
	// past its retries. The session keeps serving from memory
	// (nondurable, surfaced in sessions/top/healthz); the worker resumes
	// the journal via a reanchor record once pressure clears.
	journalPaused atomic.Bool
	// pausedAt is when the pause engaged (unix nanos), gating the resume
	// cooldown; missedAppends counts mutations committed while paused —
	// zero means the journal can resume without a reanchor.
	pausedAt      atomic.Int64
	missedAppends atomic.Int64
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

// task is one session-verb request in flight. reply is buffered so the
// worker can always deliver (or abandon) a result without blocking on a
// client that gave up.
type task struct {
	req       *Request
	deadline  time.Time
	reply     chan *Response
	abandoned atomic.Bool
	span      *obs.Span
	trace     string // wire trace id the session's live-loop spans inherit
	execSID   string // exec span's sid: parent for live-loop + shipping spans
	// special, when set, replaces command-table dispatch: the worker
	// runs it instead of looking the verb up. It is how the replication
	// verbs run on the session's own goroutine — serialized against every
	// other operation — without entering the shared verb table.
	special func(h *hosted, t *task) *Response
}

func (s *Server) newHosted(name string) *hosted {
	h := &hosted{
		name:    name,
		reg:     obs.NewRegistry(),
		fan:     obs.NewFanout(),
		out:     &boundedBuf{max: 1 << 16},
		win:     obs.NewWindow(256),
		queue:   make(chan *task, s.cfg.QueueDepth),
		stopped: make(chan struct{}),
	}
	// The session's live-loop spans flow into the fleet span store and
	// the flight recorder alongside any `subscribe` clients.
	s.tel.AttachSinks(h.fan)
	h.brk.threshold = s.cfg.QuarantineAfter
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
	select {
	case h.queue <- t:
		h.touch()
		return nil
	default:
		return ErrBackpressure
	}
}

// worker serializes all operations on one session. It exits when the
// queue is closed (eviction, close verb, or drain), after draining any
// tasks that were already accepted.
func (s *Server) worker(h *hosted) {
	defer close(h.stopped)
	for t := range h.queue {
		resp := s.execSession(h, t)
		if t.abandoned.Load() {
			// The client's deadline expired while we worked: the result is
			// unroutable, and a session that keeps blowing deadlines is
			// failing even if each individual verb eventually succeeds.
			s.reg.Counter("server_results_discarded").Inc()
			s.noteFailure(h, "request deadline exceeded")
			continue
		}
		t.reply <- resp
	}
}

// execSession runs one session verb with deadline enforcement and
// panic-to-error recovery (the same shape as core/health.go's safeRun:
// a panic in command code becomes an error response, never a dead
// daemon).
func (s *Server) execSession(h *hosted, t *task) (resp *Response) {
	defer func() {
		if r := recover(); r != nil {
			s.reg.Counter("server_panics_recovered").Inc()
			s.blackbox("panic", h.name, t.trace, fmt.Sprintf("recovered request panic: %v", r))
			s.noteFailure(h, fmt.Sprintf("panic: %v", r))
			resp = errResp(t.req, wire.CodePanic, fmt.Errorf("request panic: %v", r))
		}
	}()
	if !t.deadline.IsZero() && time.Now().After(t.deadline) {
		s.reg.Counter("server_timeouts").Inc()
		return errResp(t.req, wire.CodeTimeout, ErrDeadline)
	}
	if t.special != nil {
		resp = t.special(h, t)
		h.touch()
		return resp
	}

	cmd, ok := command.Lookup(t.req.Verb)
	if !ok {
		return errResp(t.req, wire.CodeBadRequest, fmt.Errorf("unknown verb %q (try help)", t.req.Verb))
	}
	if cmd.Mutates {
		if resp := s.replGate(h, t.req); resp != nil {
			return resp
		}
		if q, reason := h.brk.quarantined(); q {
			s.reg.Counter("server_quarantine_rejects").Inc()
			return errResp(t.req, wire.CodeQuarantined, fmt.Errorf("%s: %w", reason, ErrQuarantined))
		}
		if s.diskLevelNow() >= govern.LevelEmergency {
			// Emergency rung: no room left to journal or checkpoint what
			// this mutation would produce — refusing it is the only honest
			// answer. Reads keep working.
			s.reg.Counter("server_diskfull_rejects").Inc()
			return errResp(t.req, wire.CodeDiskFull, ErrDiskFull)
		}
	}

	sp := t.span.Child("exec")
	defer sp.End()
	t.execSID = sp.SID()

	// Hand the session tracer the request's wire trace context for the
	// duration of this verb: every live-loop span it starts (swap,
	// reload, verify, …) joins the request's tree, parented under this
	// exec span. The worker serializes the session, so the bracketing
	// cannot interleave with another request — except verify spans ended
	// by background workers, which captured the context at Child() time
	// and keep it.
	h.sess.SetTraceContext(t.trace, t.execSID)
	defer h.sess.SetTraceContext("", "")

	var out bytes.Buffer
	env := &command.Env{
		Session: h.sess,
		Metrics: h.reg,
		Out:     &out,
	}
	if t.req.Files != nil {
		files := t.req.Files
		env.ApplySource = func() (liveparser.Source, error) {
			return liveparser.Source{Files: files}, nil
		}
	}
	err := command.Dispatch(env, t.req.Verb, t.req.Args)
	if cmd.Mutates {
		switch {
		case err == nil:
			h.dirty.Store(true)
			h.brk.success()
			s.journalMutation(h, t)
			s.updateMemUsage(h)
			if h.fenced.Load() {
				// The ship-on-commit hook just learned the standby was
				// promoted under a newer epoch: the mutation is applied
				// locally, but this branch of the session is dead — acking
				// it would claim a write the promoted replica never saw.
				return errResp(t.req, wire.CodeFenced,
					fmt.Errorf("session %q: %w", h.name, ErrFenced))
			}
		case errors.Is(err, core.ErrRunCancelled):
			// The session actively failed — a cancelled runaway run — as
			// opposed to merely rejecting bad arguments; those streaks are
			// what quarantine watches.
			s.blackbox("watchdog_cancel", h.name, t.trace, err.Error())
			s.noteFailure(h, err.Error())
		case errors.Is(err, core.ErrRolledBack):
			s.tel.Events.AddT("rollback", h.name, t.trace, err.Error())
			s.noteFailure(h, err.Error())
		}
	}
	h.touch()

	output := out.String()
	if disp := h.out.Drain(); disp != "" {
		output = disp + output
	}
	if err != nil {
		r := errResp(t.req, wire.CodeError, err)
		r.Output = output
		return r
	}
	h.reg.Counter("session_requests").Inc()
	return &Response{ID: t.req.ID, OK: true, Output: output}
}

func errResp(req *Request, code string, err error) *Response {
	return &Response{ID: req.ID, OK: false, Error: err.Error(), Code: code}
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
