// Package gateway is livesim's fleet front door: a stateless NDJSON
// proxy that speaks the exact wire protocol of internal/server and
// spreads sessions across a pool of livesimd backends.
//
// Placement is rendezvous hashing over the backend list — no placement
// database, no coordination; a restarted gateway re-derives routes by
// asking each backend what it hosts. A health checker pings the pool
// (each backend's ping carries its /healthz verdict) and keeps
// unhealthy backends out of placement while still routing existing
// sessions to them, so the backend's own typed rejections (draining,
// recovering, disk_full, overloaded with retry_after_ms) flow through
// to clients untouched. Trace IDs stamped at the gateway propagate to
// the backend, so one client call still reads as one span tree.
//
// The headline capability is live migration (migrate.go), a planned
// failover: the target becomes the session's replication standby, the
// route freezes while the stream catches up, and the target is promoted —
// the freeze window is the only blackout a client can observe. Draining a
// backend is just "move everything off, then tell it to drain".
package gateway

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"livesim/internal/catalogue"
	"livesim/internal/faultinject"
	"livesim/internal/govern"
	"livesim/internal/obs"
	"livesim/internal/server"
	"livesim/internal/server/client"
	"livesim/internal/wire"
)

// Config tunes a Gateway.
type Config struct {
	// Backends is the fixed pool. At least one required.
	Backends []BackendSpec
	// HealthEvery is the probe cadence (default 500ms).
	HealthEvery time.Duration
	// Replicate arms session replication: every placed session gets a
	// standby on the rendezvous next-best backend, and the failover
	// sweep promotes it when the primary stays down past FailoverGrace.
	Replicate bool
	// FailoverGrace is how long a primary must stay down before its
	// sessions fail over to their standbys (default 2s). Too short and
	// a probe blip burns an epoch; too long and the blackout grows.
	FailoverGrace time.Duration
	// Metrics/Log wire the observability plane (both optional; nil is
	// off).
	Metrics *obs.Registry
	Log     *obs.Logger
	// TraceOut, when set, receives the gateway's span JSONL (request,
	// forward, migrate and failover spans) in addition to the span store.
	TraceOut io.Writer
	// TelemetryConfig tunes fleet tracing and the crash flight recorder.
	obs.TelemetryConfig
	// Faults injects a stale promote into the failover sweep (tests only).
	Faults *faultinject.Plan

	// onMigrateStage, when set, is called at each migration stage ("seed"
	// before the seed, "promote" inside the freeze before the promote,
	// "commit" once the route points at the target) — the seam
	// fault-matrix tests use to crash a backend at exactly the worst moment.
	onMigrateStage func(session, stage string)
}

const (
	// probeTimeout bounds one health probe or discovery call.
	probeTimeout = 2 * time.Second
	// forwardTimeout bounds one proxied request: a wedged backend must
	// not pin gateway goroutines forever. Backends enforce their own
	// 30s request deadline well under this.
	forwardTimeout = 60 * time.Second
	// migrateTimeout bounds one live migration end to end, including
	// waiting out the session's in-flight requests.
	migrateTimeout = 15 * time.Second
	// forwarderIdle is how long an idle forwarder waits for the next
	// request before it exits.
	forwarderIdle = 10 * time.Second
)

// Gateway fronts a pool of livesimd backends. Stateless by design:
// everything in it (routes, health) is re-derivable from the backends.
type Gateway struct {
	cfg   Config
	reg   *obs.Registry
	log   *obs.Logger
	start time.Time

	// tel is the tracing + crash-forensics plane: every request and
	// forward is a span on its tracer; the span store backs the `trace`
	// verb and /tracez; the flight recorder is the black box /flightz
	// serves and Blackbox dumps.
	tel *obs.Telemetry
	// env owns the listeners and client connections, and every request's
	// life from read to answer: drain gate, in-flight count, request
	// span, panic recovery.
	env *wire.Envelope[*wire.Request]

	backends []*backend

	mu     sync.Mutex
	routes map[string]*route

	// calls hands a request to an idle forwarder (see place).
	calls chan *wire.Call

	// stop ends the health loop and idle forwarders and refuses new
	// background work (closed under mu); bg counts the goroutines
	// Shutdown waits for.
	stop     chan struct{}
	stopOnce sync.Once
	bg       sync.WaitGroup
}

// route is where one session lives, plus the freeze latch a migration
// uses to hold new requests while the session is in flight between
// backends.
type route struct {
	mu      sync.Mutex
	backend *backend
	// pinned marks routes this gateway is authoritative for (it placed
	// the create or committed the migration). Discovery conflicts on a
	// pinned route are resurrections and get swept; conflicts on a
	// learned route are ambiguous and only reported.
	pinned bool
	// epoch is the session's fencing token as last observed (promote
	// acks, discovery). Stamped on forwarded mutations when nonzero, so
	// a stale primary fences itself on first contact after a failover.
	epoch uint64
	// replica is the session's standby backend, when replication is
	// armed — the failover sweep's promotion target.
	replica *backend

	// migrating is set while a migration owns the route: the failover
	// sweep and dropRoute leave it alone, and a second migration is
	// refused.
	migrating bool
	unfrozen  chan struct{} // non-nil while frozen; closed at commit/abort
	inflight  int
	idle      chan struct{} // non-nil while a migration waits for inflight drain
}

// acquire returns the session's backend, waiting out any migration
// freeze (bounded). The caller must release().
func (r *route) acquire(timeout time.Duration) (*backend, error) {
	deadline := time.Now().Add(timeout)
	for {
		r.mu.Lock()
		if r.unfrozen == nil {
			r.inflight++
			b := r.backend
			r.mu.Unlock()
			return b, nil
		}
		ch := r.unfrozen
		r.mu.Unlock()
		timer := time.NewTimer(time.Until(deadline))
		select {
		case <-ch:
			timer.Stop()
		case <-timer.C:
			return nil, fmt.Errorf("session frozen by migration for over %v", timeout)
		}
	}
}

func (r *route) release() {
	r.mu.Lock()
	r.inflight--
	if r.inflight == 0 && r.idle != nil {
		close(r.idle)
		r.idle = nil
	}
	r.mu.Unlock()
}

// New builds a gateway, runs one synchronous probe+discovery pass so
// it starts with a live route table, and starts the health loop.
func New(cfg Config) (*Gateway, error) {
	if len(cfg.Backends) == 0 {
		return nil, fmt.Errorf("gateway: no backends configured")
	}
	if cfg.HealthEvery <= 0 {
		cfg.HealthEvery = 500 * time.Millisecond
	}
	if cfg.FailoverGrace <= 0 {
		cfg.FailoverGrace = 2 * time.Second
	}
	// Validate before anything is started: the telemetry plane below owns
	// a goroutine only Shutdown stops.
	seen := make(map[string]bool, len(cfg.Backends))
	backends := make([]*backend, 0, len(cfg.Backends))
	for _, spec := range cfg.Backends {
		if spec.Addr == "" {
			return nil, fmt.Errorf("gateway: backend with empty address")
		}
		if seen[spec.Addr] {
			return nil, fmt.Errorf("gateway: duplicate backend %s", spec.Addr)
		}
		seen[spec.Addr] = true
		backends = append(backends, newBackend(spec))
	}
	g := &Gateway{
		cfg:   cfg,
		reg:   cfg.Metrics,
		log:   cfg.Log,
		start: time.Now(),
		tel: obs.NewTelemetry(cfg.TelemetryConfig, "lsgate", cfg.TraceOut, 0,
			cfg.Metrics, "gateway", cfg.Log),
		backends: backends,
		routes:   make(map[string]*route),
		calls:    make(chan *wire.Call),
		stop:     make(chan struct{}),
	}
	// lsgate's own verbs, and every other verb livesimd runs forwarded to
	// the backend hosting the named session.
	handlers := g.handlerMap()
	for _, v := range catalogue.Verbs((*catalogue.Verb).Livesimd) {
		if handlers[v.Name] == nil {
			handlers[v.Name] = g.forwardSession
		}
	}
	g.env = wire.NewEnvelope(wire.Daemon[*wire.Request]{Name: "gateway", Tel: g.tel, Metrics: g.reg,
		Handlers: handlers, Place: g.place})
	g.probeAll() // synchronous: placement works from the first request
	for _, b := range g.backends {
		if b.alive() {
			g.discover(b)
		}
	}
	g.background(g.healthLoop)
	return g, nil
}

// background runs f on a goroutine Shutdown waits for; once Shutdown
// began it starts nothing.
func (g *Gateway) background(f func()) {
	g.mu.Lock()
	defer g.mu.Unlock()
	select {
	case <-g.stop:
		return
	default:
	}
	g.bg.Add(1)
	go func() {
		defer g.bg.Done()
		f()
	}()
}

// Metrics returns the gateway's registry (nil when disabled).
func (g *Gateway) Metrics() *obs.Registry { return g.reg }

// Events returns the gateway's retained operational events, oldest first.
func (g *Gateway) Events() []obs.Event { return g.tel.Events(0) }

func (g *Gateway) healthLoop() {
	// ±20% jitter per tick: several gateways fronting one pool (or this
	// one restarting alongside its backends) must not probe every
	// backend at the same instant, turning the health plane itself into
	// a synchronized load spike.
	rng := govern.NewRand()
	timer := time.NewTimer(govern.Jitter(g.cfg.HealthEvery, 0.2, rng))
	defer timer.Stop()
	for {
		select {
		case <-g.stop:
			return
		case <-timer.C:
			g.probeAll()
			g.failoverSweep()
			timer.Reset(govern.Jitter(g.cfg.HealthEvery, 0.2, rng))
		}
	}
}

func (g *Gateway) probeAll() { parallel(g.backends, func(_ int, b *backend) { g.probe(b) }) }

// parallel runs f on each of bs, each on its own goroutine, and waits.
func parallel(bs []*backend, f func(i int, b *backend)) {
	var wg sync.WaitGroup
	for i, b := range bs {
		wg.Add(1)
		go func(i int, b *backend) {
			defer wg.Done()
			f(i, b)
		}(i, b)
	}
	wg.Wait()
}

// askAll forwards req to each of bs in parallel; answers come back in
// the order of bs.
func (g *Gateway) askAll(bs []*backend, req *wire.Request) []*wire.Response {
	resps := make([]*wire.Response, len(bs))
	parallel(bs, func(i int, b *backend) { resps[i] = g.forward(b, req) })
	return resps
}

// discover asks one backend what it hosts and folds that into the
// route table. New names become learned (unpinned) routes. A name the
// table already places elsewhere is a conflict: when our route is
// pinned — this gateway committed a migration away from b or placed
// the session elsewhere — b's copy is a resurrection (a source that
// crashed before its tombstone and came back) and is closed with a forwarding
// tombstone, restoring the exactly-one-copy invariant. On a merely
// learned route the gateway has no authority to pick a side, so it
// reports the conflict and touches nothing.
func (g *Gateway) discover(b *backend) {
	cli, err := b.client()
	if err != nil {
		return
	}
	resp, err := cli.DoTimeout(&wire.Request{Verb: "sessions"}, probeTimeout)
	if err != nil {
		b.dropClient(cli)
		return
	}
	if !resp.OK || resp.Data == nil {
		return
	}
	var infos []server.SessionInfo
	if err := json.Unmarshal(resp.Data, &infos); err != nil {
		return
	}
	for _, info := range infos {
		if info.Follower {
			// A follower is a replication standby's copy, not a second
			// primary: never a conflict. While the route's primary is down
			// it is the only promotion target there is, so it is learned as
			// one (a restarted gateway re-derives its failover map this
			// way). While the primary is up, the primary's own row says
			// which follower is current; on a pinned route any other is a
			// copy the stream left behind (an aborted migration's target),
			// closed before a later failover can promote it.
			g.mu.Lock()
			r := g.routes[info.Name]
			g.mu.Unlock()
			if r == nil {
				continue
			}
			r.mu.Lock()
			primary := r.backend
			stale := primary != b && r.pinned && !r.migrating && r.replica != b && primary.alive()
			if primary != b && r.replica == nil && primary.getState() == bsDown {
				r.replica = b
			}
			r.mu.Unlock()
			if stale {
				g.tel.Event("stale_follower", info.Name, "",
					fmt.Sprintf("follower copy on %s closed; %s does not stream to it", b.addr(), primary.addr()))
				g.forward(b, &wire.Request{Session: info.Name, Verb: "close"})
			}
			continue
		}
		g.mu.Lock()
		r := g.routes[info.Name]
		if r == nil {
			g.routes[info.Name] = &route{backend: b, epoch: info.Epoch,
				replica: g.standbyNamed(info.ReplicaAddr, b)}
			g.mu.Unlock()
			continue
		}
		r.mu.Lock()
		owner, pinned := r.backend, r.pinned
		if owner == b {
			// Refresh the replication view from the primary's own row; its
			// replica_addr, empty included, is authoritative.
			if info.Epoch > r.epoch {
				r.epoch = info.Epoch
			}
			r.replica = g.standbyNamed(info.ReplicaAddr, b)
		}
		r.mu.Unlock()
		g.mu.Unlock()
		if owner == b {
			continue
		}
		if pinned {
			g.tel.Event("resurrection", info.Name, "",
				fmt.Sprintf("stale copy on %s closed; authoritative on %s", b.addr(), owner.addr()))
			g.forward(b, &wire.Request{Session: info.Name, Verb: "close",
				Args: []string{"moved", owner.addr()}})
		} else {
			g.tel.Event("session_conflict", info.Name, "",
				fmt.Sprintf("hosted on both %s and %s; routing to %s", owner.addr(), b.addr(), owner.addr()))
			g.log.Error("session conflict", obs.Str("session", info.Name),
				obs.Str("routed", owner.addr()), obs.Str("also_on", b.addr()))
		}
	}
}

// standbyNamed resolves the standby address a primary on b reports (a
// `sessions` row's replica_addr, or a `replicate` request's argument):
// nil when empty, not a pool member, or b itself.
func (g *Gateway) standbyNamed(addr string, b *backend) *backend {
	if rb := g.backendByAddr(addr); rb != b {
		return rb
	}
	return nil
}

func (g *Gateway) backendByAddr(addr string) *backend {
	for _, b := range g.backends {
		if b.addr() == addr {
			return b
		}
	}
	return nil
}

func (g *Gateway) aliveBackends() []*backend {
	out := make([]*backend, 0, len(g.backends))
	for _, b := range g.backends {
		if b.alive() {
			out = append(out, b)
		}
	}
	return out
}

func (g *Gateway) placeableBackends() []*backend {
	out := make([]*backend, 0, len(g.backends))
	for _, b := range g.backends {
		if b.placeable() {
			out = append(out, b)
		}
	}
	return out
}

// pickExcept is the rendezvous pick among placeable backends other than
// b: a migration's default target, and the standby replication arms.
func (g *Gateway) pickExcept(session string, b *backend) *backend {
	for _, cand := range rendezvousOrder(session, g.placeableBackends()) {
		if cand != b {
			return cand
		}
	}
	return nil
}

// setRoute records where a session lives. pinned routes are never
// downgraded to learned by a later unpinned set.
func (g *Gateway) setRoute(session string, b *backend, pinned bool) {
	g.mu.Lock()
	r := g.routes[session]
	if r == nil {
		g.routes[session] = &route{backend: b, pinned: pinned}
		g.mu.Unlock()
		return
	}
	g.mu.Unlock()
	r.mu.Lock()
	r.backend = b
	r.pinned = r.pinned || pinned
	r.mu.Unlock()
}

// dropRoute forgets a session iff it still points at b (a concurrent
// migration may have retargeted it).
func (g *Gateway) dropRoute(session string, b *backend) {
	g.mu.Lock()
	defer g.mu.Unlock()
	r := g.routes[session]
	if r == nil {
		return
	}
	r.mu.Lock()
	cur := r.backend
	migrating := r.migrating
	r.mu.Unlock()
	if cur == b && !migrating {
		delete(g.routes, session)
	}
}

// Serve accepts connections on ln until the listener closes: nil when
// Shutdown stopped it, wire.ErrClosed if the gateway had already stopped.
func (g *Gateway) Serve(ln net.Listener) error { return g.env.Serve(ln) }

// place hands each request to an idle forwarder, and starts one only
// when none is idle: a forward blocks on the backend, and one slow
// session must not stall the others pipelined on its connection.
// Responses are id-matched.
func (g *Gateway) place(c *wire.Call) {
	select {
	case g.calls <- c:
	default:
		go g.forwarder(c)
	}
}

// forwarder answers c, then each call place hands it, until it has sat
// idle for forwarderIdle or the gateway stops. A forwarder lives across
// requests, so the stack a forward grows is kept, not grown anew.
func (g *Gateway) forwarder(c *wire.Call) {
	idle := time.NewTimer(forwarderIdle)
	defer idle.Stop()
	for {
		c.Finish(g.env.Exec(c, c.Req))
		idle.Reset(forwarderIdle) // a tick left from a long call only ends this forwarder early
		select {
		case c = <-g.calls:
		case <-idle.C:
			return
		case <-g.stop:
			return
		}
	}
}

var errNoSubscribe = errors.New(
	"subscribe is not supported through the gateway; connect to the backend directly (see `backends`)")

// handlerMap is lsgate's one map from verb name to body for the verbs it
// answers itself, checked against the catalogue's Gateway verbs.
func (g *Gateway) handlerMap() map[string]func(*wire.Request) *wire.Response {
	m := map[string]func(*wire.Request) *wire.Response{
		"backends":  g.backendsResp,
		"sessions":  g.aggregateSessions,
		"create":    g.placeCreate,
		"migrate":   g.migrateVerb,
		"drain":     g.drainVerb,
		"trace":     g.traceOrForward,
		"subscribe": func(req *wire.Request) *wire.Response { return wire.Refuse(req, wire.CodeBadRequest, errNoSubscribe) },
		"metricz":   func(req *wire.Request) *wire.Response { return server.Metricz(g.reg, req) },
		"events":    func(req *wire.Request) *wire.Response { return server.Events(g.tel, req) },
		"ping":      g.pingResp,
		"help": func(req *wire.Request) *wire.Response {
			return &wire.Response{ID: req.ID, OK: true, Output: catalogue.GatewayHelp()}
		},
	}
	catalogue.MustMatch("lsgate", m, func(v *catalogue.Verb) bool { return v.Place == catalogue.Gateway })
	return m
}

// traceOrForward serves `trace`, which is two verbs: the fleet assembly
// verb (`trace <id>`, no session needed) and the session-scoped VCD dump
// (session + signal args). A lone 16-hex argument, or no session at all,
// means the fleet verb; anything else follows the route table.
func (g *Gateway) traceOrForward(req *wire.Request) *wire.Response {
	if req.Session == "" || (len(req.Args) == 1 && isTraceID(req.Args[0])) || len(req.Args) == 0 {
		return g.traceVerb(req)
	}
	return g.forwardSession(req)
}

// forwardSession routes a session-addressed request: routed sessions
// go to their backend (waiting out any migration freeze); unknown
// sessions sweep the alive backends in rendezvous order so the answer
// is found wherever it lives and the route is learned for next time.
func (g *Gateway) forwardSession(req *wire.Request) *wire.Response {
	if req.Session == "" {
		return wire.Refuse(req, wire.CodeBadRequest, fmt.Errorf("verb %q needs a session", req.Verb))
	}
	verb := strings.ToLower(req.Verb)
	g.mu.Lock()
	r := g.routes[req.Session]
	g.mu.Unlock()

	if r != nil {
		b, err := r.acquire(migrateTimeout)
		if err != nil {
			return wire.Refuse(req, wire.CodeUnavailable, err)
		}
		if req.Epoch == 0 && verb != "promote" && verb != "replapply" {
			// Stamp the fencing token the gateway knows for this session.
			// A backend holding an older epoch (a resurrected pre-failover
			// primary) fences itself on seeing it; promote/replapply are
			// excluded because their Epoch field is protocol input.
			r.mu.Lock()
			req.Epoch = r.epoch
			r.mu.Unlock()
		}
		resp := g.forward(b, req)
		r.release()
		switch {
		case resp.Code == wire.CodeNoSession:
			// The backend no longer hosts it (closed, idle-evicted): the
			// route is stale, not the session's existence elsewhere.
			g.dropRoute(req.Session, b)
		case resp.Code == wire.CodeFollower || resp.Code == wire.CodeFenced:
			// The route points at a standby or a fenced corpse — stale
			// either way (a failover happened around this gateway). Drop
			// it so the next request sweeps for the live primary.
			g.dropRoute(req.Session, b)
		case resp.Code == wire.CodeMoved && resp.MovedTo != "":
			// Another actor migrated it. Chase one hop and relearn.
			if nb := g.backendByAddr(resp.MovedTo); nb != nil && nb.alive() {
				g.reg.Counter("gateway_moved_follows").Inc()
				g.setRoute(req.Session, nb, false)
				return g.forward(nb, req)
			}
		}
		if resp.OK && verb == "close" {
			g.dropRoute(req.Session, b)
		}
		if resp.OK && verb == "replicate" && len(req.Args) == 1 {
			// The primary's stream moved (or stopped): the route's failover
			// target follows it, or promoting a stale copy would lose every
			// mutation acked since.
			var standby *backend
			if req.Args[0] != "stop" {
				standby = g.standbyNamed(req.Args[0], b)
			}
			r.mu.Lock()
			if r.backend == b {
				r.replica = standby
			}
			r.mu.Unlock()
		}
		return resp
	}

	order := rendezvousOrder(req.Session, g.aliveBackends())
	if len(order) == 0 {
		return wire.Refuse(req, wire.CodeUnavailable, fmt.Errorf("no backend available"))
	}
	var last *wire.Response
	for _, b := range order {
		resp := g.forward(b, req)
		last = resp
		switch resp.Code {
		case wire.CodeNoSession, wire.CodeUnavailable:
			continue // not here / can't tell; a miss means nothing executed
		case wire.CodeFollower, wire.CodeFenced:
			// A standby's copy or a fenced corpse answered: the live
			// primary is elsewhere — keep sweeping.
			continue
		case wire.CodeMoved:
			if nb := g.backendByAddr(resp.MovedTo); nb != nil && nb.alive() {
				g.reg.Counter("gateway_moved_follows").Inc()
				g.setRoute(req.Session, nb, false)
				return g.forward(nb, req)
			}
			return resp
		}
		if resp.Code != wire.CodeBadRequest {
			// Any session-scoped answer (success, quarantined, recovering,
			// backpressure…) proves the session lives here.
			g.reg.Counter("gateway_routes_learned").Inc()
			g.setRoute(req.Session, b, false)
		}
		return resp
	}
	return last
}

// forward proxies one request to b, preserving the caller's request id
// (the backend client assigns its own on the copy). A transport-level
// failure marks the backend down — the health checker will decide when
// it is back — and surfaces as CodeUnavailable with a retry hint sized
// to the probe cadence.
func (g *Gateway) forward(b *backend, req *wire.Request) *wire.Response {
	cli, err := b.client()
	if err != nil {
		g.setBackendState(b, bsDown, err.Error())
		return g.unavailResp(req, b, err)
	}
	creq := *req
	// A traced request gets a per-hop "forward" span: its sid rides in
	// the wire request so the backend's request span parents under it,
	// and its duration is the gateway→backend hop the assembled tree
	// shows. Untraced internal calls (probes, discovery, the `trace`
	// verb's own span queries) stay spanless by design.
	var fsp *obs.Span
	if creq.TraceID != "" {
		fsp = g.tel.Tracer.StartRemote(creq.TraceID, creq.ParentSpan, "forward",
			obs.Str("backend", b.addr()), obs.Str("verb", creq.Verb))
		creq.ParentSpan = fsp.SID()
	}
	resp, err := cli.DoTimeout(&creq, forwardTimeout)
	if err != nil {
		fsp.Annotate(obs.Bool("ok", false))
		fsp.End()
		if errors.Is(err, wire.ErrTooLong) && !errors.Is(err, client.ErrDisconnected) {
			// The request was too long to frame and never left: that says
			// nothing about the backend, and its connection carries other
			// sessions. Fail this request with the reason and keep routing.
			return wire.Refuse(req, wire.CodeError, fmt.Errorf("backend %s: %w", b.addr(), err))
		}
		b.dropClient(cli)
		g.setBackendState(b, bsDown, err.Error())
		return g.unavailResp(req, b, err)
	}
	resp.ID = req.ID
	fsp.Annotate(obs.Bool("ok", resp.OK))
	fsp.End()
	return resp
}

func (g *Gateway) unavailResp(req *wire.Request, b *backend, err error) *wire.Response {
	return &wire.Response{
		ID: req.ID, OK: false, Code: wire.CodeUnavailable,
		Error:        fmt.Sprintf("backend %s unavailable: %v", b.addr(), err),
		RetryAfterMs: g.cfg.HealthEvery.Milliseconds() + 1,
	}
}

// placeCreate picks a backend by rendezvous hash over the placeable
// slate and pins the route. The typed failure path flows through: a
// session_limit or disk_full from the chosen backend is the client's
// answer (placement is deterministic, not load-dodging).
func (g *Gateway) placeCreate(req *wire.Request) *wire.Response {
	if req.Session == "" {
		return wire.Refuse(req, wire.CodeBadRequest, fmt.Errorf("create needs a session name"))
	}
	g.mu.Lock()
	if r := g.routes[req.Session]; r != nil {
		r.mu.Lock()
		owner := r.backend
		r.mu.Unlock()
		g.mu.Unlock()
		return wire.Refuse(req, wire.CodeNoSession,
			fmt.Errorf("session %q already exists on %s", req.Session, owner.addr()))
	}
	g.mu.Unlock()
	b := rendezvousPick(req.Session, g.placeableBackends())
	if b == nil {
		return wire.Refuse(req, wire.CodeUnavailable, fmt.Errorf("no placeable backend"))
	}
	resp := g.forward(b, req)
	if resp.OK {
		g.setRoute(req.Session, b, true)
		g.tel.Event("placed", req.Session, req.TraceID, "created on "+b.addr())
		if g.cfg.Replicate {
			g.armReplication(req.Session, b, req.TraceID, req.ParentSpan)
		}
	}
	return resp
}

func (g *Gateway) pingResp(req *wire.Request) *wire.Response {
	alive := 0
	for _, b := range g.backends {
		if b.alive() {
			alive++
		}
	}
	g.mu.Lock()
	routes := len(g.routes)
	g.mu.Unlock()
	data, _ := json.Marshal(map[string]any{
		"uptime_secs": time.Since(g.start).Seconds(),
		"backends":    len(g.backends),
		"alive":       alive,
		"routes":      routes,
		"gateway":     true,
	})
	return &wire.Response{ID: req.ID, OK: true, Output: "pong (gateway)\n", Data: data}
}

// BackendInfo is one row of the `backends` verb's Data payload.
type BackendInfo struct {
	Addr     string `json:"addr"`
	State    string `json:"state"`
	Sessions int64  `json:"sessions"`
	Routes   int    `json:"routes"`
	// ReplicaRoutes counts sessions whose hot standby lives on this
	// backend — the load a failover of their primaries would add here.
	ReplicaRoutes int  `json:"replica_routes,omitempty"`
	Placeable     bool `json:"placeable"`
}

func (g *Gateway) backendsResp(req *wire.Request) *wire.Response {
	byBackend := make(map[*backend]int)
	replicasOn := make(map[*backend]int)
	g.mu.Lock()
	for _, r := range g.routes {
		r.mu.Lock()
		byBackend[r.backend]++
		if r.replica != nil {
			replicasOn[r.replica]++
		}
		r.mu.Unlock()
	}
	g.mu.Unlock()
	infos := make([]BackendInfo, 0, len(g.backends))
	var b strings.Builder
	for _, be := range g.backends {
		info := BackendInfo{
			Addr: be.addr(), State: be.getState().String(), Sessions: be.sessions.Load(),
			Routes: byBackend[be], ReplicaRoutes: replicasOn[be], Placeable: be.placeable(),
		}
		infos = append(infos, info)
		fmt.Fprintf(&b, "%-32s %-10s sessions=%d routes=%d replicas=%d placeable=%v\n",
			info.Addr, info.State, info.Sessions, info.Routes, info.ReplicaRoutes, info.Placeable)
	}
	data, _ := json.Marshal(infos)
	return &wire.Response{ID: req.ID, OK: true, Output: b.String(), Data: data}
}

// FleetSessionInfo is one row of the gateway's aggregated `sessions`
// payload: the backend address plus the backend's own row.
type FleetSessionInfo struct {
	Backend string `json:"backend"`
	server.SessionInfo
}

func (g *Gateway) aggregateSessions(req *wire.Request) *wire.Response {
	alive := g.aliveBackends()
	rows := make([]FleetSessionInfo, 0, 16)
	for i, resp := range g.askAll(alive, &wire.Request{Verb: "sessions", TraceID: req.TraceID, ParentSpan: req.ParentSpan}) {
		var infos []server.SessionInfo
		if resp.OK && resp.Data != nil {
			json.Unmarshal(resp.Data, &infos)
		}
		for _, info := range infos {
			rows = append(rows, FleetSessionInfo{Backend: alive[i].addr(), SessionInfo: info})
		}
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].Name != rows[j].Name {
			return rows[i].Name < rows[j].Name
		}
		return rows[i].Backend < rows[j].Backend
	})
	var b strings.Builder
	for _, row := range rows {
		fmt.Fprintf(&b, "%-24s @%s pipes=%d wal=%dB mark@%d",
			row.Name, row.Backend, len(row.Pipes), row.WALBytes, row.MarkSeq)
		if row.Epoch > 0 {
			fmt.Fprintf(&b, " epoch=%d", row.Epoch)
		}
		if row.ReplicaAddr != "" {
			fmt.Fprintf(&b, " repl=%s acked=%d lag=%d", row.ReplicaAddr, row.ReplAckedSeq, row.ReplLag)
		}
		if row.Follower {
			b.WriteString(" FOLLOWER")
		}
		if row.Fenced {
			b.WriteString(" FENCED")
		}
		b.WriteByte('\n')
	}
	data, _ := json.Marshal(rows)
	return &wire.Response{ID: req.ID, OK: true, Output: b.String(), Data: data}
}

func (g *Gateway) migrateVerb(req *wire.Request) *wire.Response {
	if req.Session == "" {
		return wire.Refuse(req, wire.CodeBadRequest, fmt.Errorf("migrate needs a session"))
	}
	target := ""
	if len(req.Args) > 0 {
		target = req.Args[0]
	}
	rep, err := g.MigrateTraced(req.Session, target, req.TraceID, req.ParentSpan)
	if err != nil {
		return wire.Refuse(req, wire.CodeError, err)
	}
	data, _ := json.Marshal(rep)
	return &wire.Response{ID: req.ID, OK: true, Data: data,
		Output: fmt.Sprintf("migrated %s: %s -> %s (%.1fms blackout)\n",
			rep.Session, rep.From, rep.To, rep.BlackoutMs)}
}

func (g *Gateway) drainVerb(req *wire.Request) *wire.Response {
	if len(req.Args) == 0 {
		return wire.Refuse(req, wire.CodeBadRequest, fmt.Errorf("drain needs a backend address"))
	}
	rep, err := g.drainBackendTraced(req.Args[0], req.TraceID, req.ParentSpan)
	if err != nil {
		return wire.Refuse(req, wire.CodeError, err)
	}
	data, _ := json.Marshal(rep)
	var b strings.Builder
	fmt.Fprintf(&b, "drained %s: %d migrated, %d failed, drain sent: %v\n",
		rep.Backend, len(rep.Migrated), len(rep.Failed), rep.DrainSent)
	for _, m := range rep.Migrated {
		fmt.Fprintf(&b, "  %s -> %s (%.1fms blackout)\n", m.Session, m.To, m.BlackoutMs)
	}
	for name, msg := range rep.Failed {
		fmt.Fprintf(&b, "  %s FAILED: %s\n", name, msg)
	}
	resp := &wire.Response{ID: req.ID, OK: len(rep.Failed) == 0, Data: data, Output: b.String()}
	if !resp.OK {
		resp.Code = wire.CodeError
		resp.Error = fmt.Sprintf("%d sessions failed to migrate off %s", len(rep.Failed), rep.Backend)
	}
	return resp
}

// AdminHandler returns lsgate's admin-plane HTTP handler (cmd/lsgate
// binds it to -admin-addr). obs.Telemetry.Mount serves /eventsz,
// /flightz and /metrics (the registry) as livesimd does; the gateway
// adds:
//
//	GET /healthz   200 as long as the gateway runs — it is stateless, so
//	               liveness is the only meaningful signal; the body is
//	               the `ping` verb's pool summary
//	GET /backendz  the `backends` verb's table as JSON
//	GET /tracez    the local trace index, or ?id=<trace> for the
//	               fleet-assembled trace (JSON; &render=text for the tree)
func (g *Gateway) AdminHandler() http.Handler {
	mux := http.NewServeMux()
	g.tel.Mount(mux, "lsgate_", nil)
	verbData := func(verb func(*wire.Request) *wire.Response) http.HandlerFunc {
		return func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			w.Write(append(verb(&wire.Request{}).Data, '\n'))
		}
	}
	mux.HandleFunc("/healthz", verbData(g.pingResp))
	mux.HandleFunc("/backendz", verbData(g.backendsResp))
	mux.HandleFunc("/tracez", g.handleTracez)
	return mux
}

// Shutdown stops the gateway: close listeners, wait out in-flight
// requests (bounded by ctx), stop the health loop and wait for it and
// every reconcile sweep, then drop client conns. Stateless: nothing to
// save.
func (g *Gateway) Shutdown(ctx context.Context) error {
	g.env.Shutdown(ctx)
	g.stopOnce.Do(func() {
		g.mu.Lock()
		close(g.stop)
		g.mu.Unlock()
	})
	g.bg.Wait()
	g.env.Close()
	for _, b := range g.backends {
		b.mu.Lock()
		cli := b.cli
		b.mu.Unlock()
		b.dropClient(cli)
	}
	g.tel.Stop()
	return nil
}
