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
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"livesim/internal/catalogue"
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
	// IdleTimeout evicts sessions with no traffic for this long (dirty
	// ones are checkpointed into DrainDir first). 0 disables eviction.
	IdleTimeout time.Duration
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
	// WALSyncEvery tunes journal fsync batching: negative = fsync inline
	// on every append (maximum durability, the crash-test setting), 0 =
	// default 100ms group commit, positive = that flush interval.
	WALSyncEvery time.Duration
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
	// paper's latency claim made greppable per offending request. It is
	// also the span store's tail-sampling threshold (250ms when unset).
	SlowRequest time.Duration

	// TelemetryConfig tunes fleet tracing and the crash flight recorder.
	// BlackboxDir defaults to StateDir.
	obs.TelemetryConfig

	// AdmitBudget is the process-wide in-flight admission budget in verb
	// cost units (see catalogue.Verb.Cost), layered on top of the
	// per-session queues. Requests past the budget are rejected with
	// CodeOverloaded and a retry_after_ms hint. 0 uses the default (256);
	// negative disables admission control.
	AdmitBudget int64
	// DiskPollEvery is the resource governor's probe cadence (disk
	// pressure ladder, memory gauges). Default 2s.
	DiskPollEvery time.Duration
	// MemBudget caps the summed per-session memory estimate (checkpoint
	// history + pipe state + journal tails); past it the governor sheds
	// the idlest evictable sessions (checkpointing dirty ones first,
	// exactly like idle eviction). 0 disables.
	MemBudget uint64
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
	// env owns the listeners and client connections, and every request's
	// life from read to answer: drain gate, in-flight count, request
	// span, panic recovery.
	env *wire.Envelope[*task]

	winMu    sync.Mutex
	verbWins map[string]*obs.Window // per-verb rolling request latencies

	mu       sync.Mutex
	sessions map[string]*hosted
	// moved holds forwarding tombstones for migrated-away sessions:
	// name -> new backend address, served as CodeMoved redirects.
	moved map[string]movedEntry

	// drainReq is closed by the drain verb; host processes select on it
	// (via DrainRequested) alongside SIGTERM.
	drainReq  chan struct{}
	drainOnce sync.Once

	recoveryWG  sync.WaitGroup // outstanding Recover goroutines
	bgWG        sync.WaitGroup // janitor, governor
	janitorStop chan struct{}  // closed by whichever of Shutdown and Halt stops the envelope

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
	if cfg.CheckpointEvery == 0 {
		cfg.CheckpointEvery = 10_000
	}
	if cfg.AdmitBudget == 0 {
		cfg.AdmitBudget = defaultAdmitBudget
	}
	if cfg.DiskPollEvery <= 0 {
		cfg.DiskPollEvery = defaultDiskPollEvery
	}
	// Best-effort here; a dir that still can't be written surfaces as a
	// create-time journal error or a drain save error with the real cause
	// attached.
	for _, dir := range []string{cfg.StateDir, cfg.DrainDir} {
		if dir != "" {
			os.MkdirAll(dir, 0o755)
		}
	}
	reg := cfg.Metrics
	if reg == nil {
		reg = obs.NewRegistry()
	}
	if cfg.BlackboxDir == "" {
		cfg.BlackboxDir = cfg.StateDir
	}
	s := &Server{
		cfg:   cfg,
		reg:   reg,
		log:   cfg.Log, // nil discards: obs.Logger methods are nil-safe
		start: time.Now(),
		tel: obs.NewTelemetry(cfg.TelemetryConfig, "livesimd", cfg.TraceOut, cfg.SlowRequest,
			reg, "server", cfg.Log),
		verbWins:    make(map[string]*obs.Window),
		sessions:    make(map[string]*hosted),
		moved:       make(map[string]movedEntry),
		drainReq:    make(chan struct{}),
		janitorStop: make(chan struct{}),
	}
	s.env = wire.NewEnvelope(wire.Daemon[*task]{Name: "server", Tel: s.tel, Metrics: reg,
		Handlers: s.handlerMap(), Admit: s.admitCall, Place: s.place, Done: s.observe,
		Hold: s.cfg.Faults.ResponseDelay})
	s.admit = govern.NewAdmission(cfg.AdmitBudget)
	s.ckptFactor.Store(1)
	if cfg.StateDir != "" {
		s.disk = govern.NewDiskMonitor(cfg.StateDir, s.diskProbe)
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

// Events returns the server's retained operational events, oldest first.
func (s *Server) Events() []obs.Event { return s.tel.Events(0) }

// verbWindow returns the rolling latency window for a verb. Unknown
// verbs share one bucket so a misbehaving client cannot grow the map
// without bound.
func (s *Server) verbWindow(verb string) *obs.Window {
	if _, ok := catalogue.Lookup(verb); !ok {
		verb = "_unknown"
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

// Serve accepts connections on ln until the listener closes (Shutdown
// closes all registered listeners). It blocks; run it in a goroutine to
// serve several listeners at once. It returns nil when Shutdown or Halt
// stopped it, wire.ErrClosed if the server had already stopped.
func (s *Server) Serve(ln net.Listener) error { return s.env.Serve(ln) }

// handler runs one verb: on the connection's goroutine (t.h nil) or on
// the session's worker.
type handler = func(t *task) *Response

// handlerMap is livesimd's one map from verb name to body: the daemon
// verbs by name, every shared verb through runCommand. New checks it
// against the catalogue.
func (s *Server) handlerMap() map[string]handler {
	onConn := func(f func(*Request) *Response) handler {
		return func(t *task) *Response { return f(t.Req) }
	}
	m := map[string]handler{
		"create":       onConn(s.createSession),
		"close":        onConn(s.closeSession),
		"replicate":    s.replicateTask,
		"import":       onConn(s.importSession),
		"replapply":    s.replApplyTask,
		"promote":      s.promoteTask,
		"drain":        onConn(s.requestDrain),
		"sessions":     onConn(s.listSessions),
		"subscribe":    func(t *task) *Response { return s.subscribe(t.Conn, t.Req) },
		"unquarantine": onConn(s.unquarantine),
		"metricz":      onConn(func(req *Request) *Response { return Metricz(s.reg, req) }),
		"events":       onConn(func(req *Request) *Response { return Events(s.tel, req) }),
		"spans":        onConn(s.spansVerb),
		"top":          onConn(s.topReport),
		"ping":         onConn(s.ping),
		"help":         onConn(func(req *Request) *Response { return &Response{ID: req.ID, OK: true, Output: catalogue.ServerHelp()} }),
	}
	for _, v := range catalogue.Verbs((*catalogue.Verb).Shared) {
		m[v.Name] = s.runCommand
	}
	catalogue.MustMatch("livesimd", m, (*catalogue.Verb).Livesimd)
	return m
}

// admitCall is livesimd's admission: the connection fault first (an
// injected mid-request disconnect severs the transport but lets the
// request run — the server must finish the work, discard the unroutable
// response and free the session worker), then the request's verb weighed
// by its catalogue cost against the process-wide in-flight budget.
func (s *Server) admitCall(c *wire.Call) (release func(), reject *Response) {
	if s.cfg.Faults.ConnRequest(c.N) {
		s.reg.Counter("server_conns_dropped_by_fault").Inc()
		c.Conn.Close()
	}
	cost := catalogue.CostOf(c.Verb)
	if cost <= 0 {
		return nil, nil
	}
	ok, retry := s.admit.TryAcquire(cost)
	if !ok {
		resp := wire.Refuse(c.Req, wire.CodeOverloaded, ErrOverloaded)
		if resp.RetryAfterMs = retry.Milliseconds(); resp.RetryAfterMs < 1 {
			resp.RetryAfterMs = 1
		}
		return nil, resp
	}
	return func() { s.admit.Release(cost) }, nil
}

// place runs a Conn verb inline on the connection's reader; anything else
// enqueues on the session's worker (rejecting on a full queue), which
// answers it, so the reader keeps reading. The deadline is a timer that
// answers CodeTimeout if the worker has not answered first.
func (s *Server) place(c *wire.Call) {
	t := &task{Call: c}
	if v, ok := catalogue.Lookup(c.Verb); ok && v.Place == catalogue.Conn {
		c.Finish(s.env.Exec(c, t))
		return
	}

	// Worker verb: resolve and enqueue under the lock so an eviction
	// cannot close the queue between lookup and enqueue. An unknown verb
	// takes this path too, and the worker answers it.
	req := c.Req
	var (
		enqErr     error
		recovering bool
	)
	s.mu.Lock()
	h := s.sessions[req.Session]
	if h != nil && h.recovering.Load() {
		// Journal replay is rebuilding this session; even reads must wait —
		// half-replayed state is not servable. No worker is draining the
		// queue yet, so enqueueing would just wedge until backpressure.
		recovering = true
	} else if h != nil {
		t.h = h
		timeout := time.Duration(requestTimeout.Load())
		t.deadline = time.Now().Add(timeout)
		t.timer = time.AfterFunc(timeout, func() {
			if s.claim(t, wire.Refuse(t.Req, wire.CodeTimeout, ErrDeadline)) && h.queue.drop(t) {
				s.noteFailure(h, "request deadline exceeded")
			}
		})
		if enqErr = h.enqueue(t); enqErr != nil {
			t.timer.Stop()
		}
	}
	s.mu.Unlock()

	var resp *Response
	switch {
	case h == nil && req.Session == "":
		resp = wire.Refuse(req, wire.CodeBadRequest, fmt.Errorf("verb %q needs a session", req.Verb))
	case h == nil:
		resp = wire.Refuse(req, wire.CodeNoSession, fmt.Errorf("no session %q", req.Session))
		if addr, ok := s.movedTo(req.Session); ok {
			resp = movedResp(req, addr)
		}
	case recovering:
		resp = wire.Refuse(req, wire.CodeRecovering, ErrRecovering)
	case enqErr != nil:
		resp = wire.Refuse(req, wire.CodeBackpressure, enqErr)
	default:
		return // queued: the worker or the deadline answers
	}
	if h != nil {
		h.win.Observe(c.Elapsed().Seconds())
	}
	c.Finish(resp)
}

// claim gives a queued task its one answer, from the worker or from
// the deadline timer, whichever claims it first; false if the other
// already did.
func (s *Server) claim(t *task, resp *Response) bool {
	if !t.answered.CompareAndSwap(false, true) {
		return false
	}
	t.h.win.Observe(t.Elapsed().Seconds())
	t.Finish(resp)
	return true
}

// answer is claim on the worker's side, which also stops the timer.
func (s *Server) answer(t *task, resp *Response) bool {
	t.timer.Stop()
	return s.claim(t, resp)
}

// observe is livesimd's view of every answer before it is written: the
// per-verb latency window and the slow-request event.
func (s *Server) observe(c *wire.Call, resp *Response, dur time.Duration) {
	s.verbWindow(c.Verb).Observe(dur.Seconds())
	if s.cfg.SlowRequest > 0 && dur >= s.cfg.SlowRequest {
		s.tel.Event("slow_request", c.Req.Session, c.Req.TraceID,
			fmt.Sprintf("%s took %v (trace %s)", c.Verb, dur.Round(time.Microsecond), c.Req.TraceID))
		s.log.Warn("slow request",
			obs.Str("verb", c.Verb), obs.Str("session", c.Req.Session),
			obs.Str("trace", c.Req.TraceID), obs.Str("dur", dur.String()))
	}
}

// requestTimeout is the per-request deadline of a worker verb, as a
// time.Duration: a queued request that misses it is never executed, a
// running one has its result discarded, and the client gets
// CodeTimeout. Read per request, so tests can shrink it on a running
// server.
var requestTimeout atomic.Int64

func init() { requestTimeout.Store(int64(30 * time.Second)) }

var nameRE = regexp.MustCompile(`^[A-Za-z0-9_.-]{1,64}$`)

// ping answers with the daemon's Health as its Data.
func (s *Server) ping(req *Request) *Response {
	data, _ := json.Marshal(s.health())
	return &Response{ID: req.ID, OK: true, Output: "pong\n", Data: data}
}

// Metricz answers `metricz` from reg; lsgate answers it the same way.
func Metricz(reg *obs.Registry, req *Request) *Response {
	snap := reg.Snapshot()
	var txt bytes.Buffer
	reg.WriteText(&txt)
	return &Response{ID: req.ID, OK: true, Output: txt.String(), Data: snap.JSON()}
}

func (s *Server) unquarantine(req *Request) *Response {
	h := s.lookup(req.Session)
	if h == nil {
		return wire.Refuse(req, wire.CodeNoSession, fmt.Errorf("no session %q", req.Session))
	}
	h.brk.clear()
	s.tel.Event("unquarantine", req.Session, "", "failure breaker cleared by operator")
	return &Response{ID: req.ID, OK: true,
		Output: fmt.Sprintf("session %s unquarantined\n", req.Session)}
}

func (s *Server) listSessions(req *Request) *Response {
	hs := s.hostedSet(true)
	infos := make([]SessionInfo, 0, len(hs))
	var out strings.Builder
	for _, h := range hs {
		n := h.name
		info := SessionInfo{
			Name:        n,
			Dirty:       h.dirty.Load(),
			Queued:      h.queue.len(),
			IdleSecs:    h.idle().Seconds(),
			Subscribers: h.fan.Len(),
			Recovering:  h.recovering.Load(),
			MemBytes:    h.memBytes().Total(),
			MarkSeq:     h.markSeq.Load(),
			MarkCycle:   h.markCycle.Load(),
			Epoch:       h.epoch.Load(),
			Follower:    h.follower.Load(),
			Fenced:      h.fenced.Load(),
		}
		if !info.Recovering { // a replaying session is not built yet
			sess := h.sess.Load()
			info.Pipes, info.Version = sess.PipeNames(), sess.Version()
			if h.wal != nil {
				info.WALBytes, info.HeadSeq = h.wal.Size(), h.wal.Seq()
			}
		}
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
		out.WriteString("\n")
	}
	data, _ := json.Marshal(infos)
	return &Response{ID: req.ID, OK: true, Output: out.String(), Data: data}
}

// Events answers `events [since-seq]` from tel's event ring: the
// retained operational events newer than since-seq (all of them without
// an argument), oldest first. lsgate answers it the same way.
func Events(tel *obs.Telemetry, req *Request) *Response {
	out, data, err := tel.EventsVerb(req.Args)
	if err != nil {
		return wire.Refuse(req, wire.CodeBadRequest, err)
	}
	return &Response{ID: req.ID, OK: true, Output: out, Data: data}
}

// topReport renders the live per-session table behind the `top` verb:
// request rate and latency quantiles from each session's rolling
// window, queue depth, and health flags.
func (s *Server) topReport(req *Request) *Response {
	hs := s.hostedSet(true)
	rows := make([]TopRow, 0, len(hs))
	for _, h := range hs {
		row := TopRow{
			Name:       h.name,
			ReqPerSec:  h.win.Rate(),
			P50Ms:      h.win.Quantile(0.50) * 1e3,
			P95Ms:      h.win.Quantile(0.95) * 1e3,
			P99Ms:      h.win.Quantile(0.99) * 1e3,
			Queued:     h.queue.len(),
			Requests:   h.requests.Value(),
			Dirty:      h.dirty.Load(),
			Recovering: h.recovering.Load(),
		}
		if !row.Recovering {
			row.Version = h.sess.Load().Version()
		}
		row.Quarantined, _ = h.brk.quarantined()
		rows = append(rows, row)
	}

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
		return h.sess.Load()
	}
	return nil
}

// createSession reserves the name, builds the session outside the lock
// (compilation can be slow), then starts the worker. Requests that
// arrive for the session mid-create queue up and run once it is ready.
func (s *Server) createSession(req *Request) *Response {
	name := req.Session
	if !nameRE.MatchString(name) {
		return wire.Refuse(req, wire.CodeBadRequest,
			fmt.Errorf("session name %q must match %s", name, nameRE.String()))
	}
	if s.diskLevelNow() >= govern.LevelEmergency {
		// A new session's first durable act is journaling its boot record;
		// with no room for even that, creating it would be a lie.
		return wire.Refuse(req, wire.CodeDiskFull, ErrDiskFull)
	}
	h, code, err := s.reserve(name, viaCreate)
	if err != nil {
		return wire.Refuse(req, code, err)
	}

	every := req.CheckpointEvery
	if every == 0 {
		every = s.cfg.CheckpointEvery
	}
	ccfg := s.sessionConfig(h, every)
	var (
		sess *core.Session
		desc string
	)
	if req.PGAS > 0 {
		sess, err = command.BootPGAS(req.PGAS, ccfg)
		desc = fmt.Sprintf("pgas %d-node mesh, testbench tb0", req.PGAS)
	} else {
		sess, err = command.BootSource(req.Top, req.Files, ccfg)
		desc = fmt.Sprintf("%d source files, testbench clock", len(req.Files))
	}
	if err == nil && s.cfg.StateDir != "" {
		// Open this session's journal and make its boot record durable
		// before serving: a crash at any later point can rebuild it. Any
		// stale state under the same name (a closed or failed predecessor)
		// must not resurrect into the new session.
		s.removeSessionState(name)
		if h.wal, _, err = wal.Open(s.walPath(name), s.walOpts()); err == nil {
			if err = h.wal.Append(&wal.Record{
				Type: wal.TypeBoot, PGAS: req.PGAS, Top: req.Top,
				CheckpointEvery: every, Files: req.Files,
			}); err == nil {
				err = h.wal.Sync()
			}
		}
		if err != nil {
			err = fmt.Errorf("journal: %w", err)
		}
	}
	if err == nil && !s.launch(h, sess, nil) {
		err = ErrDraining
	}
	if err != nil {
		s.abandon(h)
		if sess != nil { // the journal this create opened goes with it
			s.removeSessionState(name)
		}
		return wire.Refuse(req, wire.CodeError, err)
	}
	s.tel.Event("session_created", name, "", desc)
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
		return wire.Refuse(req, wire.CodeBadRequest, fmt.Errorf("usage: close [moved <addr>]"))
	}
	if h := s.lookup(req.Session); h != nil && h.recovering.Load() {
		return wire.Refuse(req, wire.CodeRecovering, ErrRecovering)
	}
	h := s.unlink(req.Session, nil)
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
		return wire.Refuse(req, wire.CodeNoSession, fmt.Errorf("no session %q", req.Session))
	}
	s.stop(h, 0)
	s.persist(h, leaveNothing)
	if movedAddr != "" {
		s.noteMoved(req.Session, movedAddr)
		s.tel.Event("session_moved", req.Session, "", "migrated away; forwarding to "+movedAddr)
		return &Response{ID: req.ID, OK: true,
			Output: fmt.Sprintf("closed session %s (moved to %s)\n", req.Session, movedAddr)}
	}
	s.tel.Event("session_closed", req.Session, "", "closed by client; state discarded")
	return &Response{ID: req.ID, OK: true, Output: fmt.Sprintf("closed session %s\n", req.Session)}
}

func (s *Server) subscribe(c *wire.Conn, req *Request) *Response {
	fan := s.tel.Fan
	scope := "server"
	if req.Session != "" {
		h := s.lookup(req.Session)
		if h == nil {
			return wire.Refuse(req, wire.CodeNoSession, fmt.Errorf("no session %q", req.Session))
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
	idle := func(h *hosted) bool { return h.queue.len() == 0 && h.idle() > s.cfg.IdleTimeout }
	for _, h := range s.hostedSet(false) {
		if h = s.unlink(h.name, idle); h != nil {
			s.evict(h, fmt.Sprintf("idle %v", h.idle().Round(time.Second)))
		}
	}
}

// saveSession checkpoints every pipe of a quiesced session into
// DrainDir through the crash-safe atomic writer, with bounded retries.
// A save that still fails is recorded in the manifest — not silently
// dropped — so Shutdown can report it and the daemon can exit nonzero.
func (s *Server) saveSession(h *hosted) DrainedSession {
	ds := DrainedSession{Name: h.name, Files: map[string]string{}}
	for _, pipe := range h.sess.Load().PipeNames() {
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
	if !s.env.Stop() {
		return nil, fmt.Errorf("already draining")
	}
	close(s.janitorStop)
	rep := &DrainReport{Timeout: s.env.Shutdown(ctx) != nil}

	// Sessions still mid-recovery are not in the running set: their
	// journal on disk already holds everything, and their recovery, seeing
	// the stop, starts nothing — the next boot recovers them again.
	for _, h := range s.hostedSet(false) {
		if h = s.unlink(h.name, nil); h == nil {
			continue
		}
		if !s.stop(h, 2*time.Second) {
			// The worker is wedged mid-operation; saving now would race
			// the running simulation, so skip this session.
			s.tel.Blackbox("drain_stuck", h.name, "", "worker did not stop; skipping save")
			continue
		}
		ds := s.persist(h, leaveWatermark)
		// Every drained session's final metrics ride in the manifest —
		// drain.json is the post-mortem record, and a SIGTERM must not
		// discard the numbers that explain the run.
		ds.Metrics = h.reg.Snapshot()
		rep.Sessions = append(rep.Sessions, ds)
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

	s.env.Close()
	s.recoveryWG.Wait()
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
