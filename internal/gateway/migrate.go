package gateway

import (
	"encoding/json"
	"fmt"
	"sort"
	"time"

	"livesim/internal/obs"
	"livesim/internal/server"
	"livesim/internal/wire"
)

// Live migration. The protocol is deliberately asymmetric about where
// authority lives at each step:
//
//  1. freeze   — the route stops admitting requests (new ones wait on
//                the freeze latch) and the migration waits for the
//                session's in-flight requests to drain. The freeze
//                window is the client-visible blackout.
//  2. export   — the source watermarks the session and returns the
//                journal+checkpoint transfer blob. Non-destructive:
//                the source remains fully authoritative.
//  3. import   — the target materializes the blob and replays the
//                (empty, post-watermark) journal tail. The session now
//                exists in two places, but the route still points at
//                the source, so only the source can serve it.
//  4. commit   — the gateway flips the route to the target and opens
//                the latch. This single in-memory write is the commit
//                point.
//  5. tombstone— the source's copy is closed with a forwarding
//                address, so clients connected to it directly get a
//                typed `moved` redirect instead of no_session.
//
// Any failure before commit aborts toward the source: the target's
// copy (if any) is closed best-effort, the latch opens, and nothing
// changed. An import whose outcome is unknown (transport death — the
// partition case) is treated the same way: closing the target is
// idempotent whether or not the import landed, so the session provably
// lives on exactly one backend afterwards. Failure after commit (the
// tombstone close) only costs redirect quality, and the reconcile
// sweep repairs it when the source comes back.

// MigrationReport is what one live migration returns (and the
// `migrate` verb's Data payload).
type MigrationReport struct {
	Session    string  `json:"session"`
	From       string  `json:"from"`
	To         string  `json:"to"`
	WALBytes   int64   `json:"wal_bytes"`
	BlackoutMs float64 `json:"blackout_ms"`
	// Replay statistics from the target's import.
	Records  int     `json:"records"`
	Executed int     `json:"executed"`
	FastPath bool    `json:"fast_path"`
	ReplayMs float64 `json:"replay_ms"`
}

// stageCheck runs the test seam and the fault plan for one stage.
func (g *Gateway) stageCheck(session, stage string) error {
	if g.cfg.OnMigrateStage != nil {
		g.cfg.OnMigrateStage(session, stage)
	}
	return g.cfg.Faults.MigrateFault(stage)
}

// Migrate moves one session to targetAddr (empty = rendezvous-pick
// among placeable backends, excluding the current host).
func (g *Gateway) Migrate(session, targetAddr string) (*MigrationReport, error) {
	return g.MigrateTraced(session, targetAddr, "", "")
}

// MigrateTraced is Migrate joined to a wire trace: every stage RPC
// (export, import, verify ping, commit, tombstone) is stamped with it
// and wrapped in a stage span, so `trace <id>` shows where a migration
// spent its blackout. An empty trace mints one — migrations are always
// traced.
func (g *Gateway) MigrateTraced(session, targetAddr, trace, parentSID string) (*MigrationReport, error) {
	g.mu.Lock()
	r := g.routes[session]
	g.mu.Unlock()
	if r == nil {
		return nil, fmt.Errorf("no session %q routed through this gateway", session)
	}
	r.mu.Lock()
	source := r.backend
	r.mu.Unlock()
	if !source.alive() {
		return nil, fmt.Errorf("session %q is on %s, which is down — nothing to export", session, source.addr())
	}

	var target *backend
	if targetAddr != "" {
		target = g.backendByAddr(targetAddr)
		if target == nil {
			return nil, fmt.Errorf("unknown backend %q", targetAddr)
		}
		if !target.alive() {
			return nil, fmt.Errorf("target backend %s is down", targetAddr)
		}
	} else {
		slate := make([]*backend, 0, len(g.backends))
		for _, b := range g.placeableBackends() {
			if b != source {
				slate = append(slate, b)
			}
		}
		target = rendezvousPick(session, slate)
		if target == nil {
			return nil, fmt.Errorf("no placeable backend to migrate %q to", session)
		}
	}
	if target == source {
		return nil, fmt.Errorf("session %q is already on %s", session, target.addr())
	}

	if trace == "" {
		trace = obs.NewTraceID()
	}
	msp := g.tel.Tracer.StartRemote(trace, parentSID, "migrate",
		obs.Str("session", session), obs.Str("from", source.addr()), obs.Str("to", target.addr()))
	rep, err := g.migrateFrozen(r, session, source, target, trace, msp)
	msp.Annotate(obs.Bool("ok", err == nil))
	msp.End()
	if err != nil {
		g.reg.Counter("gateway_migration_failures").Inc()
		g.eventT("migrate_failed", session, trace,
			fmt.Sprintf("%s -> %s: %v", source.addr(), target.addr(), err))
		g.log.Warn("migration failed", obs.Str("session", session), obs.Str("trace", trace),
			obs.Str("from", source.addr()), obs.Str("to", target.addr()), obs.Str("err", err.Error()))
		return nil, err
	}
	g.reg.Counter("gateway_migrations").Inc()
	g.reg.Histogram("gateway_migration_blackout_seconds", nil).Observe(rep.BlackoutMs / 1e3)
	g.eventT("migrated", session, trace,
		fmt.Sprintf("%s -> %s in %.1fms (%dB journal, fast_path=%v)",
			rep.From, rep.To, rep.BlackoutMs, rep.WALBytes, rep.FastPath))
	return rep, nil
}

// freeze latches the route shut and waits for in-flight requests to
// drain. Returns an unfreeze closure; exactly one of commit/abort
// paths must call it.
func (r *route) freeze(timeout time.Duration) (unfreeze func(commitTo *backend), err error) {
	r.mu.Lock()
	if r.migrating {
		r.mu.Unlock()
		return nil, fmt.Errorf("migration already in progress")
	}
	r.migrating = true
	r.unfrozen = make(chan struct{})
	var idle chan struct{}
	if r.inflight > 0 {
		idle = make(chan struct{})
		r.idle = idle
	}
	r.mu.Unlock()

	unfreeze = func(commitTo *backend) {
		r.mu.Lock()
		if commitTo != nil {
			r.backend = commitTo
			r.pinned = true
		}
		r.migrating = false
		close(r.unfrozen)
		r.unfrozen = nil
		if r.idle != nil { // drain waiter never consumed it
			close(r.idle)
			r.idle = nil
		}
		r.mu.Unlock()
	}

	if idle != nil {
		timer := time.NewTimer(timeout)
		defer timer.Stop()
		select {
		case <-idle:
		case <-timer.C:
			unfreeze(nil)
			return nil, fmt.Errorf("in-flight requests did not drain within %v", timeout)
		}
	}
	return unfreeze, nil
}

func (g *Gateway) migrateFrozen(r *route, session string, source, target *backend, trace string, msp *obs.Span) (*MigrationReport, error) {
	t0 := time.Now()
	unfreeze, err := r.freeze(g.cfg.MigrateTimeout)
	if err != nil {
		return nil, err
	}

	// abortToSource: close whatever the target may hold (idempotent —
	// a no_session answer just means the import never landed) and open
	// the latch with the source still authoritative.
	abortToSource := func(targetMayHold bool) {
		if targetMayHold {
			g.forward(target, &wire.Request{Session: session, Verb: "close",
				TraceID: trace, ParentSpan: msp.SID()})
		}
		unfreeze(nil)
	}
	// stage wraps one migration stage in a span so the assembled trace
	// shows where the blackout went.
	stage := func(name string, b *backend, fn func(psid string) *wire.Response) *wire.Response {
		sp := msp.Child(name, obs.Str("backend", b.addr()))
		resp := fn(sp.SID())
		sp.Annotate(obs.Bool("ok", resp.OK))
		sp.End()
		return resp
	}

	if err := g.stageCheck(session, "export"); err != nil {
		abortToSource(false)
		return nil, err
	}
	exResp := stage("migrate_export", source, func(psid string) *wire.Response {
		return g.forward(source, &wire.Request{Session: session, Verb: "export",
			TraceID: trace, ParentSpan: psid})
	})
	if !exResp.OK {
		abortToSource(false)
		return nil, fmt.Errorf("export on %s: %s (%s)", source.addr(), exResp.Error, exResp.Code)
	}
	var ed server.ExportData
	if err := json.Unmarshal(exResp.Data, &ed); err != nil {
		abortToSource(false)
		return nil, fmt.Errorf("export data: %w", err)
	}

	if err := g.stageCheck(session, "import"); err != nil {
		abortToSource(true)
		return nil, err
	}
	imResp := stage("migrate_import", target, func(psid string) *wire.Response {
		return g.forward(target, &wire.Request{Session: session, Verb: "import", Blob: ed.Blob,
			TraceID: trace, ParentSpan: psid})
	})
	if !imResp.OK {
		// Includes the unknown-outcome transport case (CodeUnavailable):
		// the close below settles it to zero copies on the target either
		// way, so the source stays the one copy.
		abortToSource(true)
		return nil, fmt.Errorf("import on %s: %s (%s)", target.addr(), imResp.Error, imResp.Code)
	}
	var id server.ImportData
	json.Unmarshal(imResp.Data, &id)

	if err := g.stageCheck(session, "commit"); err != nil {
		abortToSource(true)
		return nil, err
	}
	// Verify the target still stands before flipping: an import ack
	// followed by a target crash is the one window where committing
	// would route to a corpse while the source can still serve. The
	// target's journal holds the acked copy, so the abort leaves it as
	// a resurrection for the reconcile sweep, not lost data.
	vr := stage("migrate_verify_target", target, func(psid string) *wire.Response {
		return g.forward(target, &wire.Request{Verb: "ping", TraceID: trace, ParentSpan: psid})
	})
	if !vr.OK {
		abortToSource(true)
		return nil, fmt.Errorf("target %s vanished before commit: %s", target.addr(), vr.Error)
	}
	unfreeze(target) // the commit point
	blackout := time.Since(t0)

	// Post-commit, best effort: leave a forwarding tombstone on the
	// source. A dead source just means no redirect until the reconcile
	// sweep closes its resurrected copy when it returns.
	tomb := stage("migrate_tombstone", source, func(psid string) *wire.Response {
		return g.forward(source, &wire.Request{Session: session, Verb: "close",
			Args: []string{"moved", target.addr()}, TraceID: trace, ParentSpan: psid})
	})
	if !tomb.OK {
		g.eventT("tombstone_failed", session, trace,
			fmt.Sprintf("source %s: %s (%s)", source.addr(), tomb.Error, tomb.Code))
	}

	return &MigrationReport{
		Session: session, From: source.addr(), To: target.addr(),
		WALBytes: ed.WALBytes, BlackoutMs: float64(blackout.Microseconds()) / 1e3,
		Records: id.Records, Executed: id.Executed, FastPath: id.FastPath, ReplayMs: id.ReplayMs,
	}, nil
}

// DrainBackendReport is what draining a backend returns (and the
// gateway `drain` verb's Data payload).
type DrainBackendReport struct {
	Backend  string             `json:"backend"`
	Migrated []*MigrationReport `json:"migrated"`
	Failed   map[string]string  `json:"failed,omitempty"`
	// DrainSent: every session left, so the backend was told to drain
	// (it checkpoints and the host process exits, same as SIGTERM).
	DrainSent bool `json:"drain_sent"`
}

// DrainBackend empties a backend for maintenance: exclude it from
// placement, migrate every hosted session off — cheapest journal
// first, so most sessions are safe early if the budget runs out — and
// only when none remain, send the wire `drain` that makes the host
// process run its SIGTERM path.
func (g *Gateway) DrainBackend(addr string) (*DrainBackendReport, error) {
	return g.drainBackendTraced(addr, "", "")
}

// drainBackendTraced runs the drain under one trace: the inventory, every
// per-session migration, and the final wire drain all parent under a
// drain_backend span, so `trace <id>` reads as the whole operation.
func (g *Gateway) drainBackendTraced(addr, trace, parentSID string) (*DrainBackendReport, error) {
	b := g.backendByAddr(addr)
	if b == nil {
		return nil, fmt.Errorf("unknown backend %q", addr)
	}
	if !b.alive() {
		return nil, fmt.Errorf("backend %s is down", addr)
	}
	if trace == "" {
		trace = obs.NewTraceID()
	}
	dsp := g.tel.Tracer.StartRemote(trace, parentSID, "drain_backend", obs.Str("backend", addr))
	defer dsp.End()
	b.noPlace.Store(true)
	rep := &DrainBackendReport{Backend: addr, Failed: map[string]string{}}

	// Inventory from the backend itself — routes can lag reality.
	invResp := g.forward(b, &wire.Request{Verb: "sessions", TraceID: trace, ParentSpan: dsp.SID()})
	if !invResp.OK {
		return nil, fmt.Errorf("sessions on %s: %s", addr, invResp.Error)
	}
	var infos []server.SessionInfo
	if invResp.Data != nil {
		json.Unmarshal(invResp.Data, &infos)
	}
	sort.Slice(infos, func(i, j int) bool { return infos[i].WALBytes < infos[j].WALBytes })

	for _, info := range infos {
		g.mu.Lock()
		if g.routes[info.Name] == nil {
			g.routes[info.Name] = &route{backend: b}
		}
		g.mu.Unlock()
		m, err := g.MigrateTraced(info.Name, "", trace, dsp.SID())
		if err != nil {
			rep.Failed[info.Name] = err.Error()
			continue
		}
		rep.Migrated = append(rep.Migrated, m)
	}

	if len(rep.Failed) == 0 {
		dr := g.forward(b, &wire.Request{Verb: "drain", TraceID: trace, ParentSpan: dsp.SID()})
		rep.DrainSent = dr.OK
		if dr.OK {
			g.eventT("backend_drained", "", trace, addr+": all sessions migrated, drain sent")
		}
	}
	return rep, nil
}
