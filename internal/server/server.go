package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"livesim/internal/command"
	"livesim/internal/core"
	"livesim/internal/faultinject"
	"livesim/internal/frame"
	"livesim/internal/govern"
	"livesim/internal/obs"
	"livesim/internal/wal"
	"livesim/internal/wire"
)

// Config tunes a Server.
type Config struct {
	// QueueDepth bounds each session's request queue; a full queue
	// rejects with ErrBackpressure. Default 8.
	QueueDepth int
	// RequestTimeout is the per-request deadline: queued requests that
	// miss it are never executed, running ones have their result
	// discarded and the client gets CodeTimeout. Default 30s; negative
	// disables.
	RequestTimeout time.Duration
	// IdleTimeout evicts sessions with no traffic for this long (dirty
	// ones are checkpointed into DrainDir first). 0 disables eviction.
	IdleTimeout time.Duration
	// MaxSessions caps concurrently hosted sessions. Default 64.
	MaxSessions int
	// CheckpointEvery is the default checkpoint interval for created
	// sessions (requests can override). Default 10_000.
	CheckpointEvery uint64
	// DrainDir receives checkpoints of dirty sessions on drain and
	// eviction, plus the drain.json manifest. Empty skips the saves.
	DrainDir string
	// StateDir enables durability: every session journals its committed
	// mutations to <StateDir>/<name>.wal and watermark checkpoints to
	// <StateDir>/<name>.<pipe>.lscp, and Recover rebuilds journaled
	// sessions on the next boot. Empty disables journaling entirely.
	StateDir string
	// RunBudget arms the hung-run watchdog in every hosted session: runs
	// and change re-executions past this wall-clock budget are cancelled
	// at a cycle-batch boundary and rolled back. 0 disables.
	RunBudget time.Duration
	// QuarantineAfter trips a session's failure breaker after this many
	// consecutive failures (rollbacks, panics, blown deadlines, durability
	// IO failures). 0 uses the default (3); negative disables quarantine.
	QuarantineAfter int
	// WALSyncEvery tunes journal fsync batching: negative = fsync inline
	// on every append (maximum durability, the crash-test setting), 0 =
	// default 100ms group commit, positive = that flush interval.
	WALSyncEvery time.Duration
	// WALOnWrite, when set, observes the journal's durable size after
	// every append (the crash matrix uses it to die at chosen offsets).
	WALOnWrite func(size int64)
	// JournalCheckpointEvery saves watermark checkpoints after this many
	// journaled mutations, bounding replay work after a crash. 0 saves
	// watermarks only on drain and eviction.
	JournalCheckpointEvery int
	// Faults injects deterministic failures: the connection faults are
	// consulted by the server itself, and the whole plan is passed into
	// every created session so the fault matrix can kill a session
	// mid-request and assert the server stays up. Nil costs nothing.
	Faults *faultinject.Plan
	// Metrics is the server-level registry (requests, rejects, drains).
	// Nil creates a private one; it is always collected.
	Metrics *obs.Registry
	// TraceOut, when set, receives the server's per-request span JSONL in
	// addition to any `subscribe` clients.
	TraceOut io.Writer
	// Log receives structured JSONL operational logs (see obs.Logger);
	// nil discards them.
	Log *obs.Logger
	// SlowRequest, when positive, logs a warning and records an event for
	// every request slower than this threshold, with its trace id — the
	// paper's latency claim made greppable per offending request.
	SlowRequest time.Duration
	// EventRingCap bounds the in-memory operational event ring (rollbacks,
	// quarantine trips, recoveries, watchdog cancels, evictions, WAL
	// fallbacks) served by the `events` verb and /eventsz. Default 256.
	EventRingCap int

	// TelemetryConfig tunes fleet tracing and the crash flight recorder.
	// Two defaults are livesimd's own: TraceSlow falls back to
	// SlowRequest when that is set, BlackboxDir to StateDir.
	obs.TelemetryConfig

	// AdmitBudget is the process-wide in-flight admission budget in verb
	// cost units (see command.Command.Cost), layered on top of the
	// per-session queues. Requests past the budget are rejected with
	// CodeOverloaded and a retry_after_ms hint. 0 uses the default (256);
	// negative disables admission control.
	AdmitBudget int64
	// DiskPollEvery is the resource governor's probe cadence (disk
	// pressure ladder, memory gauges, journal-resume sweep). Default 2s.
	DiskPollEvery time.Duration
	// DiskProbe overrides the free-space probe (tests); nil uses Statfs
	// on StateDir. A Faults plan's ForceDiskFree always wins over both.
	DiskProbe govern.DiskProbe
	// MemBudget caps the summed per-session memory estimate (checkpoint
	// history + pipe state + journal tails); past it the governor sheds
	// the idlest evictable sessions (checkpointing dirty ones first,
	// exactly like idle eviction). 0 disables.
	MemBudget uint64
	// JournalResumeDelay is the cooldown between a journal pause and the
	// first resume attempt, so a flapping disk doesn't thrash
	// pause/reanchor cycles. Default 250ms.
	JournalResumeDelay time.Duration
}

// Server hosts sessions and serves connections. Create one with New,
// feed it listeners with Serve, stop it with Shutdown.
type Server struct {
	cfg   Config
	reg   *obs.Registry
	log   *obs.Logger
	start time.Time

	// tel is the tracing + crash-forensics plane: request spans, the
	// span store behind `spans` and /tracez, the flight recorder dumped
	// to blackbox-<ts>.jsonl on abnormal exits, the event ring.
	tel *obs.Telemetry
	// acc owns the listeners and client connections.
	acc *wire.Acceptor

	winMu    sync.Mutex
	verbWins map[string]*obs.Window // per-verb rolling request latencies

	mu       sync.Mutex
	sessions map[string]*hosted
	draining bool
	// moved holds forwarding tombstones for migrated-away sessions:
	// name -> new backend address, served as CodeMoved redirects.
	moved map[string]movedEntry

	// drainReq is closed by the drain verb; host processes select on it
	// (via DrainRequested) alongside SIGTERM.
	drainReq  chan struct{}
	drainOnce sync.Once

	inflight    sync.WaitGroup // every request from read to response write
	recoveryWG  sync.WaitGroup // outstanding Recover goroutines
	bgWG        sync.WaitGroup // janitor, governor
	janitorStop chan struct{}
	stopOnce    sync.Once

	// Resource governance (internal/govern): the global admission
	// budget, the disk-pressure monitor (nil without a StateDir), the
	// cached rung the request path reads, and the checkpoint-cadence
	// widening factor the elevated rung applies.
	admit      *govern.Admission
	disk       *govern.DiskMonitor
	diskLevel  atomic.Int32
	ckptFactor atomic.Int32
}

// New builds a Server from cfg, applying defaults, and starts the idle
// janitor when eviction is enabled.
func New(cfg Config) *Server {
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 8
	}
	if cfg.RequestTimeout == 0 {
		cfg.RequestTimeout = 30 * time.Second
	}
	if cfg.MaxSessions <= 0 {
		cfg.MaxSessions = 64
	}
	if cfg.CheckpointEvery == 0 {
		cfg.CheckpointEvery = 10_000
	}
	if cfg.QuarantineAfter == 0 {
		cfg.QuarantineAfter = defaultQuarantineAfter
	}
	if cfg.AdmitBudget == 0 {
		cfg.AdmitBudget = defaultAdmitBudget
	}
	if cfg.DiskPollEvery <= 0 {
		cfg.DiskPollEvery = defaultDiskPollEvery
	}
	if cfg.JournalResumeDelay <= 0 {
		cfg.JournalResumeDelay = defaultJournalResumeDelay
	}
	if cfg.StateDir != "" {
		// Best-effort here; a dir that still can't be written surfaces as a
		// create-time journal error with the real cause attached.
		os.MkdirAll(cfg.StateDir, 0o755)
	}
	reg := cfg.Metrics
	if reg == nil {
		reg = obs.NewRegistry()
	}
	if cfg.TraceSlow == 0 && cfg.SlowRequest > 0 {
		cfg.TraceSlow = cfg.SlowRequest
	}
	if cfg.BlackboxDir == "" {
		cfg.BlackboxDir = cfg.StateDir
	}
	s := &Server{
		cfg:   cfg,
		reg:   reg,
		log:   cfg.Log, // nil discards: obs.Logger methods are nil-safe
		start: time.Now(),
		tel: obs.NewTelemetry(cfg.TelemetryConfig, "livesimd", cfg.TraceOut, cfg.EventRingCap,
			reg.Counter("server_blackbox_dumps"), cfg.Log),
		verbWins:    make(map[string]*obs.Window),
		sessions:    make(map[string]*hosted),
		moved:       make(map[string]movedEntry),
		drainReq:    make(chan struct{}),
		janitorStop: make(chan struct{}),
	}
	s.acc = wire.NewAcceptor(s.serveConn)
	s.admit = govern.NewAdmission(cfg.AdmitBudget)
	s.ckptFactor.Store(1)
	if cfg.StateDir != "" {
		s.disk = govern.NewDiskMonitor(cfg.StateDir, s.diskProbe(), govern.Watermarks{})
	}
	if cfg.IdleTimeout > 0 {
		s.background(s.janitor)
	}
	if s.disk != nil || cfg.MemBudget > 0 {
		s.background(s.governor)
	}
	return s
}

// background starts a housekeeping goroutine that runs until janitorStop
// closes. Shutdown and Halt wait for all of them: an eviction in progress
// must not land in the state dir after the caller has been told the
// server is down.
func (s *Server) background(f func()) {
	s.bgWG.Add(1)
	go func() {
		defer s.bgWG.Done()
		f()
	}()
}

// Metrics returns the server-level registry.
func (s *Server) Metrics() *obs.Registry { return s.reg }

// Events returns the server's operational event ring.
func (s *Server) Events() *obs.EventRing { return s.tel.Events }

// event records one operational incident in the ring, mirrors it to the
// structured log, and copies it into the black-box ring — the event ring
// is the queryable recent history, the log the durable trail, and the
// flight recorder what survives an abnormal exit.
func (s *Server) event(typ, session, msg string) { s.eventT(typ, session, "", msg) }

// eventT is event with the trace id the incident happened under, so
// operators can pivot from an /eventsz row to its assembled span tree.
func (s *Server) eventT(typ, session, trace, msg string) {
	s.tel.Event(typ, session, trace, msg)
	s.log.Info(msg, obs.Str("event", typ), obs.Str("session", session), obs.Str("trace", trace))
}

// blackbox records an abnormal event (always) and dumps the flight
// recorder (rate-limited). Callers: panic recovery, self-fence,
// quarantine trip, watchdog cancel, drain-stuck.
func (s *Server) blackbox(reason, session, trace, msg string) {
	s.eventT(reason, session, trace, msg)
	s.tel.Dump(reason)
}

// specialVerbs run on the session's worker goroutine via task.special
// instead of the shared command table: the replication verbs, which must
// serialize with every other operation on the session.
var specialVerbs = map[string]func(*Server) func(h *hosted, t *task) *Response{
	"replicate": func(s *Server) func(*hosted, *task) *Response { return s.replicateTask },
	"replapply": func(s *Server) func(*hosted, *task) *Response { return s.replApplyTask },
	"promote":   func(s *Server) func(*hosted, *task) *Response { return s.promoteTask },
}

// verbWindow returns the rolling latency window for a verb. Unknown
// verbs share one bucket so a misbehaving client cannot grow the map
// without bound.
func (s *Server) verbWindow(verb string) *obs.Window {
	if !serverVerbs[verb] && specialVerbs[verb] == nil {
		if _, ok := command.Lookup(verb); !ok {
			verb = "_unknown"
		}
	}
	s.winMu.Lock()
	defer s.winMu.Unlock()
	w := s.verbWins[verb]
	if w == nil {
		w = obs.NewWindow(512)
		s.verbWins[verb] = w
	}
	return w
}

func (s *Server) isDraining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// Serve accepts connections on ln until the listener closes (Shutdown
// closes all registered listeners). It blocks; run it in a goroutine to
// serve several listeners at once. It returns nil when Shutdown or Halt
// stopped it, wire.ErrClosed if the server had already stopped.
func (s *Server) Serve(ln net.Listener) error { return s.acc.Serve(ln) }

// serveConn is the acceptor's per-connection hook; the handler it
// returns dispatches each request inline on the connection's reader.
func (s *Server) serveConn(c *wire.Conn) func(*Request) {
	s.reg.Counter("server_conns_opened").Inc()
	c.OnClose(s.reg.Counter("server_conns_closed").Inc)
	served := 0
	return func(req *Request) {
		served++
		if s.cfg.Faults.ConnRequest(served) {
			// Injected mid-request disconnect: sever the transport but let
			// the request run — the server must finish the work, discard
			// the unroutable response and free the session worker.
			s.reg.Counter("server_conns_dropped_by_fault").Inc()
			c.Close()
		}
		s.dispatch(c, req)
	}
}

// serverVerbs are handled on the connection goroutine, outside any
// session worker.
var serverVerbs = map[string]bool{
	"ping": true, "help": true, "metricz": true, "sessions": true,
	"create": true, "close": true, "subscribe": true, "unquarantine": true,
	"events": true, "top": true, "import": true, "drain": true,
	"spans": true,
}

// dispatch routes one request: server verbs run inline, session verbs
// enqueue on the session's worker (rejecting on a full queue) and a
// waiter goroutine enforces the deadline so the reader keeps reading.
func (s *Server) dispatch(c *wire.Conn, req *Request) {
	s.inflight.Add(1)
	s.reg.Counter("server_requests").Inc()
	verb := strings.ToLower(req.Verb)
	trace := req.TraceID
	if trace == "" {
		trace = obs.NewTraceID() // unstamped client: still one correlatable tree
	}
	sp := s.tel.Tracer.StartRemote(trace, req.ParentSpan, "request",
		obs.Str("verb", req.Verb), obs.Str("session", req.Session))
	t0 := time.Now()
	var h *hosted      // set before any finish call; read by the waiter goroutine
	var admitted int64 // cost units held against the admission budget
	finish := func(resp *Response) {
		if admitted > 0 {
			s.admit.Release(admitted)
		}
		sp.Annotate(obs.Bool("ok", resp.OK), obs.Str("code", resp.Code))
		sp.End()
		dur := time.Since(t0)
		// The request span just emitted, so the store has the whole local
		// tree in hand — the tail keep/drop decision happens here.
		s.tel.Store.Complete(trace, dur.Microseconds(), resp.OK)
		secs := dur.Seconds()
		s.reg.Histogram("server_request_seconds", nil).Observe(secs)
		s.verbWindow(verb).Observe(secs)
		if h != nil {
			h.win.Observe(secs)
		}
		if s.cfg.SlowRequest > 0 && dur >= s.cfg.SlowRequest {
			s.reg.Counter("server_slow_requests").Inc()
			s.tel.Events.AddT("slow_request", req.Session, trace,
				fmt.Sprintf("%s took %v (trace %s)", verb, dur.Round(time.Microsecond), trace))
			s.log.Warn("slow request",
				obs.Str("verb", verb), obs.Str("session", req.Session),
				obs.Str("trace", trace), obs.Str("dur", dur.String()))
		}
		if d := s.cfg.Faults.ResponseDelay(); d > 0 {
			time.Sleep(d)
		}
		c.Reply(resp) // a failed write is the client's loss; Reply closed the conn
		s.inflight.Done()
	}

	if s.isDraining() {
		s.reg.Counter("server_draining_rejects").Inc()
		finish(errResp(req, wire.CodeDraining, ErrDraining))
		return
	}

	// Global admission: session verbs and create are weighted by cost
	// against the process-wide in-flight budget. Operator verbs (ping,
	// sessions, events, …) stay free — overload must never lock out the
	// introspection needed to diagnose it.
	if cost := admissionCost(verb); cost > 0 {
		ok, retry := s.admit.TryAcquire(cost)
		if !ok {
			s.reg.Counter("server_overload_rejects").Inc()
			resp := errResp(req, wire.CodeOverloaded, ErrOverloaded)
			if resp.RetryAfterMs = retry.Milliseconds(); resp.RetryAfterMs < 1 {
				resp.RetryAfterMs = 1
			}
			finish(resp)
			return
		}
		admitted = cost
	}

	if serverVerbs[verb] {
		finish(s.execServer(c, req, verb))
		return
	}

	// Session verb: resolve and enqueue under the lock so an eviction
	// cannot close the queue between lookup and enqueue. The replication
	// verbs are session-queued too — they must serialize with everything
	// else touching the session — but run server code (task.special), not
	// the command table.
	var (
		t          *task
		enqErr     error
		recovering bool
	)
	s.mu.Lock()
	h = s.sessions[req.Session]
	if h != nil && h.recovering.Load() {
		// Journal replay is rebuilding this session; even reads must wait —
		// half-replayed state is not servable. No worker is draining the
		// queue yet, so enqueueing would just wedge until backpressure.
		recovering = true
	} else if h != nil {
		t = &task{req: req, reply: make(chan *Response, 1), span: sp, trace: trace}
		if mk := specialVerbs[verb]; mk != nil {
			t.special = mk(s)
		}
		if s.cfg.RequestTimeout > 0 {
			t.deadline = time.Now().Add(s.cfg.RequestTimeout)
		}
		enqErr = h.enqueue(t)
	}
	s.mu.Unlock()

	switch {
	case h == nil && req.Session == "":
		finish(errResp(req, wire.CodeBadRequest, fmt.Errorf("verb %q needs a session", req.Verb)))
	case h == nil:
		if addr, ok := s.movedTo(req.Session); ok {
			s.reg.Counter("server_moved_redirects").Inc()
			finish(movedResp(req, addr))
			return
		}
		finish(errResp(req, wire.CodeNoSession, fmt.Errorf("no session %q", req.Session)))
	case recovering:
		s.reg.Counter("server_recovering_rejects").Inc()
		finish(errResp(req, wire.CodeRecovering, ErrRecovering))
	case enqErr != nil:
		s.reg.Counter("server_backpressure_rejects").Inc()
		finish(errResp(req, wire.CodeBackpressure, enqErr))
	default:
		go func() {
			var resp *Response
			if t.deadline.IsZero() {
				resp = <-t.reply
			} else {
				timer := time.NewTimer(time.Until(t.deadline))
				defer timer.Stop()
				select {
				case resp = <-t.reply:
				case <-timer.C:
					t.abandoned.Store(true)
					select {
					case resp = <-t.reply: // finished on the wire, barely
					default:
						s.reg.Counter("server_timeouts").Inc()
						resp = errResp(req, wire.CodeTimeout, ErrDeadline)
					}
				}
			}
			finish(resp)
		}()
	}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9_.-]{1,64}$`)

// execServer runs one server verb with the same panic-to-error recovery
// the session workers use.
func (s *Server) execServer(c *wire.Conn, req *Request, verb string) (resp *Response) {
	defer func() {
		if r := recover(); r != nil {
			s.reg.Counter("server_panics_recovered").Inc()
			resp = errResp(req, wire.CodePanic, fmt.Errorf("request panic: %v", r))
		}
	}()
	switch verb {
	case "ping":
		data, _ := json.Marshal(map[string]any{
			"uptime_secs": time.Since(s.start).Seconds(),
			"sessions":    s.sessionCount(),
			"draining":    s.isDraining(),
		})
		return &Response{ID: req.ID, OK: true, Output: "pong\n", Data: data}

	case "help":
		var b strings.Builder
		b.WriteString("session verbs (shared with the livesim shell):\n")
		b.WriteString(command.HelpText())
		b.WriteString("server verbs:\n")
		b.WriteString("  create [pgas N | files]       create a session (name in \"session\")\n")
		b.WriteString("  close [moved <addr>]          discard a session (optionally leaving a forwarding tombstone)\n")
		b.WriteString("  replicate <addr>|stop         stream committed WAL records to a standby (seeded unless it already is one)\n")
		b.WriteString("  import                        land a replication seed blob as a follower (sent by replicate)\n")
		b.WriteString("  promote                       promote a follower to primary under a new fencing epoch\n")
		b.WriteString("  drain                         request a graceful drain (same path as SIGTERM)\n")
		b.WriteString("  sessions                      list hosted sessions\n")
		b.WriteString("  subscribe                     stream span events (empty session = server spans)\n")
		b.WriteString("  unquarantine                  clear a session's failure breaker\n")
		b.WriteString("  stats [json]                  per-session metrics registry\n")
		b.WriteString("  metricz                       server-level metrics registry\n")
		b.WriteString("  events [since-seq]            recent operational events (flight recorder)\n")
		b.WriteString("  spans [trace-id]              this process's span store: index, or one trace's spans\n")
		b.WriteString("  top                           live per-session req/s + latency table\n")
		b.WriteString("  ping                          liveness + uptime\n")
		return &Response{ID: req.ID, OK: true, Output: b.String()}

	case "metricz":
		snap := s.reg.Snapshot()
		var txt bytes.Buffer
		s.reg.WriteText(&txt)
		return &Response{ID: req.ID, OK: true, Output: txt.String(), Data: snap.JSON()}

	case "sessions":
		return s.listSessions(req)

	case "events":
		return s.listEvents(req)

	case "spans":
		return s.spansVerb(req)

	case "top":
		return s.topReport(req)

	case "create":
		return s.createSession(req)

	case "close":
		return s.closeSession(req)

	case "import":
		return s.importSession(req)

	case "drain":
		return s.requestDrain(req)

	case "subscribe":
		return s.subscribe(c, req)

	case "unquarantine":
		s.mu.Lock()
		h := s.sessions[req.Session]
		s.mu.Unlock()
		if h == nil {
			return errResp(req, wire.CodeNoSession, fmt.Errorf("no session %q", req.Session))
		}
		h.brk.clear()
		s.updateQuarantineGauge()
		s.event("unquarantine", req.Session, "failure breaker cleared by operator")
		return &Response{ID: req.ID, OK: true,
			Output: fmt.Sprintf("session %s unquarantined\n", req.Session)}
	}
	return errResp(req, wire.CodeBadRequest, fmt.Errorf("unknown server verb %q", verb))
}

func (s *Server) sessionCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.sessions)
}

func (s *Server) listSessions(req *Request) *Response {
	s.mu.Lock()
	names := make([]string, 0, len(s.sessions))
	for n := range s.sessions {
		names = append(names, n)
	}
	sort.Strings(names)
	infos := make([]SessionInfo, 0, len(names))
	var out strings.Builder
	for _, n := range names {
		h := s.sessions[n]
		if h.sess == nil { // still being created
			continue
		}
		info := SessionInfo{
			Name:        n,
			Pipes:       h.sess.PipeNames(),
			Dirty:       h.dirty.Load(),
			Queued:      len(h.queue),
			IdleSecs:    h.idle().Seconds(),
			Version:     h.sess.Version(),
			Subscribers: h.fan.Len(),
			Recovering:  h.recovering.Load(),
			Nondurable:  h.journalPaused.Load(),
			MemBytes:    h.memBytes().Total(),
			MarkSeq:     h.markSeq.Load(),
			MarkCycle:   h.markCycle.Load(),
		}
		if h.wal != nil {
			info.WALBytes = h.wal.Size()
			info.HeadSeq = h.wal.Seq()
		}
		info.Epoch = h.epoch.Load()
		info.Follower = h.follower.Load()
		info.Fenced = h.fenced.Load()
		if sp := h.shipper.Load(); sp != nil {
			info.ReplicaAddr = sp.Target()
			info.ReplAckedSeq = sp.AckedSeq()
			if info.HeadSeq > info.ReplAckedSeq {
				info.ReplLag = info.HeadSeq - info.ReplAckedSeq
			}
		}
		info.Quarantined, _ = h.brk.quarantined()
		infos = append(infos, info)
		fmt.Fprintf(&out, "  %-16s pipes=%v version=%s dirty=%v queued=%d idle=%.1fs",
			n, info.Pipes, info.Version, info.Dirty, info.Queued, info.IdleSecs)
		if info.WALBytes > 0 {
			fmt.Fprintf(&out, " wal=%dB mark@%d", info.WALBytes, info.MarkCycle)
		}
		if info.ReplicaAddr != "" {
			fmt.Fprintf(&out, " repl=%s acked=%d lag=%d", info.ReplicaAddr, info.ReplAckedSeq, info.ReplLag)
		}
		if info.Epoch > 0 {
			fmt.Fprintf(&out, " epoch=%d", info.Epoch)
		}
		if info.Follower {
			out.WriteString(" FOLLOWER")
		}
		if info.Fenced {
			out.WriteString(" FENCED")
		}
		if info.Quarantined {
			out.WriteString(" QUARANTINED")
		}
		if info.Recovering {
			out.WriteString(" RECOVERING")
		}
		if info.Nondurable {
			out.WriteString(" NONDURABLE")
		}
		out.WriteString("\n")
	}
	s.mu.Unlock()
	data, _ := json.Marshal(infos)
	return &Response{ID: req.ID, OK: true, Output: out.String(), Data: data}
}

// listEvents serves the flight recorder: `events [since-seq]` returns
// the retained operational events newer than since-seq (all of them
// without an argument), oldest first.
func (s *Server) listEvents(req *Request) *Response {
	since := uint64(0)
	if len(req.Args) > 0 {
		n, err := strconv.ParseUint(req.Args[0], 10, 64)
		if err != nil {
			return errResp(req, wire.CodeBadRequest, fmt.Errorf("events [since-seq]: %w", err))
		}
		since = n
	}
	evs := s.tel.Events.Since(since)
	var out strings.Builder
	for _, e := range evs {
		fmt.Fprintf(&out, "  #%-5d %s  %-16s %-12s %s",
			e.Seq, e.TS.Format("15:04:05.000"), e.Type, e.Session, e.Msg)
		if e.Trace != "" {
			fmt.Fprintf(&out, " [trace %s]", e.Trace)
		}
		out.WriteString("\n")
	}
	if len(evs) == 0 {
		out.WriteString("  (no events)\n")
	}
	data, _ := json.Marshal(evs)
	return &Response{ID: req.ID, OK: true, Output: out.String(), Data: data}
}

// topReport renders the live per-session table behind the `top` verb:
// request rate and latency quantiles from each session's rolling
// window, queue depth, and health flags.
func (s *Server) topReport(req *Request) *Response {
	s.mu.Lock()
	names := make([]string, 0, len(s.sessions))
	for n, h := range s.sessions {
		if h.sess != nil {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	rows := make([]TopRow, 0, len(names))
	for _, n := range names {
		h := s.sessions[n]
		row := TopRow{
			Name:       n,
			ReqPerSec:  h.win.Rate(),
			P50Ms:      h.win.Quantile(0.50) * 1e3,
			P95Ms:      h.win.Quantile(0.95) * 1e3,
			P99Ms:      h.win.Quantile(0.99) * 1e3,
			Queued:     len(h.queue),
			Requests:   h.reg.Counter("session_requests").Value(),
			Version:    h.sess.Version(),
			Dirty:      h.dirty.Load(),
			Recovering: h.recovering.Load(),
			Nondurable: h.journalPaused.Load(),
		}
		row.Quarantined, _ = h.brk.quarantined()
		rows = append(rows, row)
	}
	s.mu.Unlock()

	var out strings.Builder
	fmt.Fprintf(&out, "  %-16s %8s %9s %9s %9s %6s %8s %-6s %s\n",
		"SESSION", "REQ/S", "P50(ms)", "P95(ms)", "P99(ms)", "QUEUE", "REQS", "VER", "FLAGS")
	for _, r := range rows {
		flags := ""
		if r.Dirty {
			flags += "dirty "
		}
		if r.Quarantined {
			flags += "QUARANTINED "
		}
		if r.Recovering {
			flags += "RECOVERING "
		}
		if r.Nondurable {
			flags += "NONDURABLE "
		}
		fmt.Fprintf(&out, "  %-16s %8.1f %9.3f %9.3f %9.3f %6d %8d %-6s %s\n",
			r.Name, r.ReqPerSec, r.P50Ms, r.P95Ms, r.P99Ms, r.Queued, r.Requests, r.Version,
			strings.TrimRight(flags, " "))
	}
	if len(rows) == 0 {
		out.WriteString("  (no sessions)\n")
	}
	data, _ := json.Marshal(rows)
	return &Response{ID: req.ID, OK: true, Output: out.String(), Data: data}
}

// sessionConfig is the one core.Config both createSession and restart
// recovery boot sessions with, so a recovered session behaves exactly
// like the original did.
func (s *Server) sessionConfig(h *hosted, every uint64) core.Config {
	return core.Config{
		CheckpointEvery: every,
		Output:          h.out,
		Metrics:         h.reg,
		TraceOut:        h.fan,
		Faults:          s.cfg.Faults,
		RunBudget:       s.cfg.RunBudget,
	}
}

// Session returns the named hosted session's core session, or nil. It
// is for tests and tools that need to inspect state in-process (e.g.
// fingerprinting after crash recovery); the wire protocol is the API.
func (s *Server) Session(name string) *core.Session {
	s.mu.Lock()
	defer s.mu.Unlock()
	if h := s.sessions[name]; h != nil {
		return h.sess
	}
	return nil
}

// createSession reserves the name, builds the session outside the lock
// (compilation can be slow), then starts the worker. Requests that
// arrive for the session mid-create queue up and run once it is ready.
func (s *Server) createSession(req *Request) *Response {
	name := req.Session
	if !nameRE.MatchString(name) {
		return errResp(req, wire.CodeBadRequest,
			fmt.Errorf("session name %q must match %s", name, nameRE.String()))
	}
	if s.diskLevelNow() >= govern.LevelEmergency {
		// A new session's first durable act is journaling its boot record;
		// with no room for even that, creating it would be a lie.
		s.reg.Counter("server_diskfull_rejects").Inc()
		return errResp(req, wire.CodeDiskFull, ErrDiskFull)
	}
	h := s.newHosted(name)
	s.mu.Lock()
	switch {
	case s.draining:
		s.mu.Unlock()
		return errResp(req, wire.CodeDraining, ErrDraining)
	case s.sessions[name] != nil:
		s.mu.Unlock()
		return errResp(req, wire.CodeBadRequest, fmt.Errorf("session %q already exists", name))
	case len(s.sessions) >= s.cfg.MaxSessions:
		s.mu.Unlock()
		s.reg.Counter("server_session_limit_rejects").Inc()
		return errResp(req, wire.CodeSessionLimit,
			fmt.Errorf("session limit %d reached: %w", s.cfg.MaxSessions, ErrSessionLimit))
	}
	s.sessions[name] = h
	delete(s.moved, name) // a re-created name is a new session, not the moved one
	s.mu.Unlock()

	every := req.CheckpointEvery
	if every == 0 {
		every = s.cfg.CheckpointEvery
	}
	ccfg := s.sessionConfig(h, every)
	var (
		sess *core.Session
		err  error
		desc string
	)
	if req.PGAS > 0 {
		sess, err = command.BootPGAS(req.PGAS, ccfg)
		desc = fmt.Sprintf("pgas %d-node mesh, testbench tb0", req.PGAS)
	} else {
		sess, err = command.BootSource(req.Top, req.Files, ccfg)
		desc = fmt.Sprintf("%d source files, testbench clock", len(req.Files))
	}
	var w *wal.WAL
	if err == nil && s.cfg.StateDir != "" {
		// Open this session's journal and make its boot record durable
		// before serving: a crash at any later point can rebuild it. Any
		// stale state under the same name (a closed or failed predecessor)
		// must not resurrect into the new session.
		s.removeSessionState(name)
		w, _, err = wal.Open(s.walPath(name), s.walOpts())
		if err == nil {
			err = w.Append(&wal.Record{
				Type: wal.TypeBoot, PGAS: req.PGAS, Top: req.Top,
				CheckpointEvery: every, Files: req.Files,
			})
			if err == nil {
				err = w.Sync()
			}
		}
		if err != nil {
			if w != nil {
				w.Close()
				os.Remove(s.walPath(name))
				w = nil
			}
			err = fmt.Errorf("journal: %w", err)
		}
	}
	s.mu.Lock()
	if err == nil && s.draining {
		err = ErrDraining
	}
	if err != nil {
		delete(s.sessions, name)
		s.mu.Unlock()
		if w != nil {
			w.Close()
			os.Remove(s.walPath(name))
		}
		close(h.queue)
		for t := range h.queue { // fail anything that queued mid-create
			if !t.abandoned.Load() {
				t.reply <- errResp(t.req, wire.CodeNoSession, fmt.Errorf("session %q failed to create", name))
			}
		}
		return errResp(req, wire.CodeError, err)
	}
	h.sess = sess
	h.wal = w
	s.mu.Unlock()
	go s.worker(h)
	s.reg.Counter("server_sessions_created").Inc()
	s.event("session_created", name, desc)
	return &Response{ID: req.ID, OK: true,
		Output: fmt.Sprintf("created session %s (%s)\n", name, desc)}
}

// closeSession removes a session and discards its state — including its
// journal and watermark checkpoints (checkpoint explicitly first if you
// want to keep it). The optional `moved <addr>` argument is the
// migration commit's cleanup: the state is discarded the same way, but
// a forwarding tombstone is left so stragglers still dialing this
// backend get a CodeMoved redirect instead of no_session.
func (s *Server) closeSession(req *Request) *Response {
	movedAddr := ""
	switch {
	case len(req.Args) == 0:
	case len(req.Args) == 2 && req.Args[0] == "moved" && req.Args[1] != "":
		movedAddr = req.Args[1]
	default:
		return errResp(req, wire.CodeBadRequest, fmt.Errorf("usage: close [moved <addr>]"))
	}
	s.mu.Lock()
	if h := s.sessions[req.Session]; h != nil && h.recovering.Load() {
		s.mu.Unlock()
		return errResp(req, wire.CodeRecovering, ErrRecovering)
	}
	s.mu.Unlock()
	h := s.removeSession(req.Session)
	if h == nil {
		if movedAddr != "" && nameRE.MatchString(req.Session) {
			// Anti-resurrection sweep after a source crash: the session is
			// already gone here, but the forwarding must still be recorded.
			s.noteMoved(req.Session, movedAddr)
			return &Response{ID: req.ID, OK: true,
				Output: fmt.Sprintf("session %s already absent; forwarding to %s recorded\n",
					req.Session, movedAddr)}
		}
		if addr, ok := s.movedTo(req.Session); ok {
			return movedResp(req, addr)
		}
		return errResp(req, wire.CodeNoSession, fmt.Errorf("no session %q", req.Session))
	}
	s.discard(h)
	s.reg.Counter("server_sessions_closed").Inc()
	if movedAddr != "" {
		s.noteMoved(req.Session, movedAddr)
		s.event("session_moved", req.Session, "migrated away; forwarding to "+movedAddr)
		return &Response{ID: req.ID, OK: true,
			Output: fmt.Sprintf("closed session %s (moved to %s)\n", req.Session, movedAddr)}
	}
	s.event("session_closed", req.Session, "closed by client; state discarded")
	return &Response{ID: req.ID, OK: true, Output: fmt.Sprintf("closed session %s\n", req.Session)}
}

// discard stops a session removeSession unlinked — its worker, then its
// replication stream — and deletes its durable state.
func (s *Server) discard(h *hosted) {
	close(h.queue)
	<-h.stopped
	stopShipper(h)
	h.sess.Quiesce()
	if h.wal != nil {
		h.wal.Close()
	}
	if s.cfg.StateDir != "" {
		s.removeSessionState(h.name)
	}
}

// removeSession unlinks a session so only the caller may close its
// queue. Returns nil if absent, not yet fully created, or still being
// recovered (no worker is draining a recovering session's queue, so
// closing it would hang waiting for the stop).
func (s *Server) removeSession(name string) *hosted {
	s.mu.Lock()
	defer s.mu.Unlock()
	h := s.sessions[name]
	if h == nil || h.sess == nil || h.recovering.Load() {
		return nil
	}
	delete(s.sessions, name)
	return h
}

func (s *Server) subscribe(c *wire.Conn, req *Request) *Response {
	fan := s.tel.Fan
	scope := "server"
	if req.Session != "" {
		s.mu.Lock()
		h := s.sessions[req.Session]
		s.mu.Unlock()
		if h == nil {
			return errResp(req, wire.CodeNoSession, fmt.Errorf("no session %q", req.Session))
		}
		fan = h.fan
		scope = "session " + req.Session
	}
	// The conn is the sink: a failed event write closes it, and the
	// error detaches it from the fanout.
	c.OnClose(fan.Attach(c))
	s.reg.Counter("server_subscriptions").Inc()
	return &Response{ID: req.ID, OK: true,
		Output: fmt.Sprintf("subscribed to %s spans; events stream on this connection\n", scope)}
}

// ---------------------------------------------------------------- drain

// janitor evicts idle sessions.
func (s *Server) janitor() {
	interval := s.cfg.IdleTimeout / 4
	if interval < 10*time.Millisecond {
		interval = 10 * time.Millisecond
	}
	tick := time.NewTicker(interval)
	defer tick.Stop()
	for {
		select {
		case <-s.janitorStop:
			return
		case <-tick.C:
			s.evictIdle()
		}
	}
}

func (s *Server) evictIdle() {
	s.mu.Lock()
	var victims []*hosted
	for name, h := range s.sessions {
		if h.sess != nil && !h.recovering.Load() && len(h.queue) == 0 && h.idle() > s.cfg.IdleTimeout {
			delete(s.sessions, name)
			victims = append(victims, h)
		}
	}
	s.mu.Unlock()
	for _, h := range victims {
		s.evictHosted(h, fmt.Sprintf("idle %v", h.idle().Round(time.Second)))
	}
}

// evictHosted shuts one already-unlinked session down and reclaims its
// memory: stop the worker, checkpoint if dirty, watermark + release the
// journal. Shared by the idle janitor and the memory governor's shed
// path — eviction only reclaims memory; a journaled session resurrects
// at the next daemon boot, and a re-create over the same name clears
// the stale state first.
func (s *Server) evictHosted(h *hosted, why string) {
	close(h.queue)
	<-h.stopped
	stopShipper(h)
	h.sess.Quiesce()
	if h.dirty.Load() && s.cfg.DrainDir != "" {
		ds := s.saveSession(h)
		s.event("eviction", h.name, fmt.Sprintf("%s; checkpointed %d pipes", why, len(ds.Files)))
	} else {
		s.event("eviction", h.name, why)
	}
	if h.wal != nil {
		if h.dirty.Load() && !h.journalPaused.Load() {
			s.saveWatermark(h)
		}
		h.wal.Close()
	}
	s.reg.Counter("server_sessions_evicted").Inc()
}

// saveSession checkpoints every pipe of a quiesced session into
// DrainDir through the crash-safe atomic writer, with bounded retries.
// A save that still fails is recorded in the manifest — not silently
// dropped — so Shutdown can report it and the daemon can exit nonzero.
func (s *Server) saveSession(h *hosted) DrainedSession {
	ds := DrainedSession{Name: h.name, Files: map[string]string{}}
	for _, pipe := range h.sess.PipeNames() {
		path := filepath.Join(s.cfg.DrainDir, fmt.Sprintf("%s.%s.lscp", h.name, pipe))
		if err := s.saveCheckpointRetry(h, pipe, path); err != nil {
			s.log.Error("drain save failed",
				obs.Str("session", h.name), obs.Str("pipe", pipe), obs.Str("err", err.Error()))
			if ds.Errors == nil {
				ds.Errors = map[string]string{}
			}
			ds.Errors[pipe] = err.Error()
			continue
		}
		ds.Files[pipe] = path
		s.reg.Counter("server_drain_saves").Inc()
	}
	return ds
}

// Shutdown is the graceful drain (cmd/livesimd wires it to SIGTERM):
// stop accepting, reject new requests with CodeDraining, wait for
// in-flight requests up to ctx's deadline, stop every session worker,
// checkpoint every dirty session via the atomic writer, write the
// drain.json manifest and close all connections. On ctx expiry it still
// saves every session whose worker could be stopped, and returns the
// report alongside ctx's error.
func (s *Server) Shutdown(ctx context.Context) (*DrainReport, error) {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return nil, fmt.Errorf("already draining")
	}
	s.draining = true
	s.mu.Unlock()

	s.acc.StopAccepting()
	s.stopOnce.Do(func() { close(s.janitorStop) })

	rep := &DrainReport{}
	inflightDone := make(chan struct{})
	go func() {
		s.inflight.Wait()
		close(inflightDone)
	}()
	select {
	case <-inflightDone:
	case <-ctx.Done():
		rep.Timeout = true
	}

	s.mu.Lock()
	hs := make([]*hosted, 0, len(s.sessions))
	for _, h := range s.sessions {
		// Sessions still mid-recovery are left alone: they have no worker
		// to stop, and their journal on disk already holds everything — the
		// next boot simply recovers them again.
		if h.sess != nil && !h.recovering.Load() {
			hs = append(hs, h)
		}
	}
	s.sessions = make(map[string]*hosted)
	s.mu.Unlock()
	sort.Slice(hs, func(i, j int) bool { return hs[i].name < hs[j].name })

	for _, h := range hs {
		close(h.queue)
		if !waitClosed(h.stopped, 2*time.Second) {
			// The worker is wedged mid-operation; saving now would race
			// the running simulation, so skip this session.
			s.blackbox("drain_stuck", h.name, "", "worker did not stop; skipping save")
			continue
		}
		stopShipper(h)
		h.sess.Quiesce()
		ds := DrainedSession{Name: h.name}
		if h.dirty.Load() && s.cfg.DrainDir != "" {
			ds = s.saveSession(h)
		}
		// Every drained session's final metrics ride in the manifest —
		// drain.json is the post-mortem record, and a SIGTERM must not
		// discard the numbers that explain the run.
		ds.Metrics = h.reg.Snapshot()
		rep.Sessions = append(rep.Sessions, ds)
		if h.wal != nil {
			// Watermark the journal so the restart replays from these
			// checkpoints, then release it. The journal stays on disk — it
			// IS the restart state.
			if h.dirty.Load() {
				if h.journalPaused.Load() {
					// The worker is stopped, so reanchoring here is safe.
					// Last chance to close the journal gap before exit; the
					// cooldown is moot mid-drain.
					h.pausedAt.Store(0)
					s.tryResumeJournal(h)
				}
				// Never watermark a still-paused journal: a mark appended
				// after missed mutations would silently diverge a replay.
				// The intact pre-pause prefix is an honest restart state.
				if !h.journalPaused.Load() {
					s.saveWatermark(h)
				}
			}
			h.wal.Close()
		}
	}

	if s.cfg.DrainDir != "" {
		data, err := json.MarshalIndent(rep, "", "  ")
		if err == nil {
			manifest := filepath.Join(s.cfg.DrainDir, "drain.json")
			if werr := frame.WriteFileAtomic(manifest, data, nil); werr != nil {
				s.log.Error("drain manifest write failed", obs.Str("err", werr.Error()))
			}
		}
	}

	s.acc.Close()
	s.bgWG.Wait()
	s.tel.Stop()

	if rep.Timeout {
		return rep, fmt.Errorf("drain deadline exceeded: %w", ctx.Err())
	}
	saveErrs := 0
	for _, ds := range rep.Sessions {
		saveErrs += len(ds.Errors)
	}
	if saveErrs > 0 {
		// The manifest records exactly which saves failed; surfacing an
		// error here makes the daemon exit nonzero instead of reporting a
		// clean drain it didn't achieve.
		return rep, fmt.Errorf("drain: %d checkpoint save(s) failed (see drain.json)", saveErrs)
	}
	return rep, nil
}

func waitClosed(ch <-chan struct{}, d time.Duration) bool {
	select {
	case <-ch:
		return true
	case <-time.After(d):
		return false
	}
}
