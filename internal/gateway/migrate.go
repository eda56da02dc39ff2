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

// Live migration is a planned failover: the target becomes the session's
// standby, the route freezes, the stream catches up, and the target is
// promoted by the same step the failover sweep commits with.
//
//  1. seed      — outside the freeze: unless the target already is the
//                 route's standby, the source is told `replicate
//                 <target>`, which seeds a follower there and starts the
//                 ship-on-commit stream. In a -replicate fleet the default
//                 target is the standby, and nothing is seeded.
//  2. freeze    — the route stops admitting requests (new ones wait on
//                 the freeze latch) and the migration waits for the
//                 session's in-flight requests to drain. The freeze
//                 window is the client-visible blackout.
//  3. catch up  — `replicate <target>` again: the source ships what the
//                 stream has not and answers OK only once the target
//                 acked its journal head.
//  4. promote   — the target becomes primary under a new epoch and the
//                 route retargets to it (promote, shared with failover).
//                 This is the commit point; the latch opens.
//  5. tombstone — the source's copy is closed with a forwarding address,
//                 so clients connected to it directly get a typed `moved`
//                 redirect instead of no_session. Then the new primary is
//                 re-armed, and a former standby the stream left behind
//                 is closed.
//
// Every failure before commit aborts the same way: the source's stream
// stops (so it can never ship to, or be fenced by, a target whose
// promote landed unseen), the target's copy is closed best-effort, and
// the route reopens pinned to the source with no standby until re-armed.
// A promoted target copy the close missed is then a pinned-route
// resurrection, and a follower copy the close missed is a stale standby;
// the reconcile sweep closes both. When the source itself died, nothing
// is stopped or closed: the follower holding its stream (the target once
// seeded, else the former standby) stays the route's standby, and the
// failover sweep promotes it. Failure after commit
// (the tombstone close) only costs redirect quality, and the same sweep
// closes the source's copy when it comes back.

// MigrationReport is what one live migration returns (and the
// `migrate` verb's Data payload).
type MigrationReport struct {
	Session string `json:"session"`
	From    string `json:"from"`
	To      string `json:"to"`
	// BlackoutMs is the freeze window: drain, catch-up and promote.
	BlackoutMs float64 `json:"blackout_ms"`
}

// MigrateTraced moves one session to targetAddr (empty = rendezvous-pick
// among placeable backends, excluding the current host), joined to a
// wire trace: every stage RPC (seed, catch-up, promote, tombstone) is
// stamped with it and its forward span parents under one migrate span,
// so `trace <id>` shows where a migration spent its blackout. An empty
// trace mints one — migrations are always traced.
func (g *Gateway) MigrateTraced(session, targetAddr, trace, parentSID string) (*MigrationReport, error) {
	g.mu.Lock()
	r := g.routes[session]
	g.mu.Unlock()
	if r == nil {
		return nil, fmt.Errorf("no session %q routed through this gateway", session)
	}
	r.mu.Lock()
	source, busy := r.backend, r.migrating
	r.migrating = true
	r.mu.Unlock()
	if busy {
		return nil, fmt.Errorf("migration of %q already in progress", session)
	}
	defer func() {
		r.mu.Lock()
		r.migrating = false
		r.mu.Unlock()
	}()
	if !source.alive() {
		return nil, fmt.Errorf("session %q is on %s, which is down — nothing to move", session, source.addr())
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
	} else if target = g.pickExcept(session, source); target == nil {
		return nil, fmt.Errorf("no placeable backend to migrate %q to", session)
	}
	if target == source {
		return nil, fmt.Errorf("session %q is already on %s", session, target.addr())
	}

	if trace == "" {
		trace = obs.NewTraceID()
	}
	msp := g.tel.Tracer.StartRemote(trace, parentSID, "migrate",
		obs.Str("session", session), obs.Str("from", source.addr()), obs.Str("to", target.addr()))
	rep, err := g.migrate(r, session, source, target, trace, msp)
	msp.Annotate(obs.Bool("ok", err == nil))
	msp.End()
	if err != nil {
		g.tel.Event("migrate_failed", session, trace,
			fmt.Sprintf("%s -> %s: %v", source.addr(), target.addr(), err))
		g.log.Warn("migration failed", obs.Str("session", session), obs.Str("trace", trace),
			obs.Str("from", source.addr()), obs.Str("to", target.addr()), obs.Str("err", err.Error()))
		return nil, err
	}
	g.reg.Histogram("gateway_migration_blackout_seconds", nil).Observe(rep.BlackoutMs / 1e3)
	g.tel.Event("migrated", session, trace,
		fmt.Sprintf("%s -> %s in %.1fms", rep.From, rep.To, rep.BlackoutMs))
	return rep, nil
}

// freeze latches the route shut and waits for in-flight requests to
// drain. It returns the closure that opens the latch again.
func (r *route) freeze(timeout time.Duration) (unfreeze func(), err error) {
	r.mu.Lock()
	r.unfrozen = make(chan struct{})
	var idle chan struct{}
	if r.inflight > 0 {
		idle = make(chan struct{})
		r.idle = idle
	}
	r.mu.Unlock()

	unfreeze = func() {
		r.mu.Lock()
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
			unfreeze()
			return nil, fmt.Errorf("in-flight requests did not drain within %v", timeout)
		}
	}
	return unfreeze, nil
}

// migrate runs the five steps on a route this migration owns. Every RPC
// carries the migrate span as parent, so its forward spans show where
// the blackout went.
func (g *Gateway) migrate(r *route, session string, source, target *backend, trace string, msp *obs.Span) (*MigrationReport, error) {
	send := func(b *backend, verb string, args ...string) *wire.Response {
		return g.forward(b, &wire.Request{Session: session, Verb: verb, Args: args,
			TraceID: trace, ParentSpan: msp.SID()})
	}
	r.mu.Lock()
	standby := r.replica
	r.mu.Unlock()
	// A former standby other than the target goes stale once the stream
	// moves, unless the re-arm picks it again.
	former := standby
	if former == target {
		former = nil
	}
	seeded := standby == target // the target holds the source's stream
	rep := &MigrationReport{Session: session, From: source.addr(), To: target.addr()}

	abort := func(unfreeze func(), cause error) (*MigrationReport, error) {
		live := source.alive()
		if live {
			send(source, "replicate", "stop")
			live = source.alive() // a failed send marks it down
		}
		// A dead source's journal is out of reach until it returns, and the
		// follower holding its stream is the only hot copy of every acked
		// mutation: it stays the failover target, and nothing is closed.
		var keep *backend
		switch {
		case live:
			send(target, "close")
		case seeded:
			keep = target
		default:
			keep = former
		}
		r.mu.Lock()
		r.pinned = true
		r.replica = keep
		r.mu.Unlock()
		if unfreeze != nil {
			unfreeze()
		}
		if live {
			g.restandby(session, source, former, trace, msp.SID())
		}
		return nil, cause
	}

	g.onStage(session, "seed")
	if !seeded {
		if resp := send(source, "replicate", target.addr()); !resp.OK {
			return abort(nil, fmt.Errorf("seed %s from %s: %s (%s)", target.addr(), source.addr(), resp.Error, resp.Code))
		}
		seeded = true
	}
	t0 := time.Now()
	unfreeze, err := r.freeze(migrateTimeout)
	if err != nil {
		return abort(nil, err)
	}
	if resp := send(source, "replicate", target.addr()); !resp.OK {
		return abort(unfreeze, fmt.Errorf("catch-up on %s: %s (%s)", source.addr(), resp.Error, resp.Code))
	}
	g.onStage(session, "promote")
	if _, err := g.promote(session, r, target, trace, msp.SID()); err != nil {
		return abort(unfreeze, err)
	}
	g.onStage(session, "commit")
	unfreeze()
	rep.BlackoutMs = float64(time.Since(t0).Microseconds()) / 1e3

	// Post-commit, best effort: leave a forwarding tombstone on the
	// source. A dead source just means no redirect until the reconcile
	// sweep closes its resurrected copy when it returns.
	if tomb := send(source, "close", "moved", target.addr()); !tomb.OK {
		g.tel.Event("tombstone_failed", session, trace,
			fmt.Sprintf("source %s: %s (%s)", source.addr(), tomb.Error, tomb.Code))
	}
	g.restandby(session, target, former, trace, msp.SID())
	return rep, nil
}

// onStage calls the onMigrateStage test seam, when set.
func (g *Gateway) onStage(session, stage string) {
	if g.cfg.onMigrateStage != nil {
		g.cfg.onMigrateStage(session, stage)
	}
}

// restandby runs once a failover or a migration has committed, or a
// migration aborted, with primary serving the session and no stream
// armed: a -replicate fleet arms a new standby, and a former one (nil
// for a failover) the re-arm did not pick again is closed — its copy
// went stale when the stream moved.
func (g *Gateway) restandby(session string, primary, former *backend, trace, parentSID string) {
	var armed *backend
	if g.cfg.Replicate {
		armed = g.armReplication(session, primary, trace, parentSID)
	}
	if former != nil && former != armed {
		g.forward(former, &wire.Request{Session: session, Verb: "close", TraceID: trace, ParentSpan: parentSID})
	}
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

// drainBackendTraced empties a backend for maintenance: exclude it from
// placement, migrate every session it is primary for off — cheapest
// journal first, so most sessions are safe early if the budget runs out
// — move every standby copy it holds elsewhere, and only when none
// remain, send the wire `drain` that makes the host process run its
// SIGTERM path. It runs under one trace: the inventory, every per-session
// migration, and the final wire drain all parent under a drain_backend
// span, so `trace <id>` reads as the whole operation.
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
		if info.Follower {
			g.moveStandbyOff(info.Name, b, trace, dsp.SID())
			continue
		}
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
			g.tel.Event("backend_drained", "", trace, addr+": all sessions migrated, drain sent")
		}
	}
	return rep, nil
}

// moveStandbyOff takes a standby copy off a draining backend. When it is
// its route's standby, the primary is re-armed onto a placeable backend
// (the draining one no longer is) or, with none to take it, stops
// streaming and stays unreplicated. Then the copy is closed.
func (g *Gateway) moveStandbyOff(session string, b *backend, trace, parentSID string) {
	g.mu.Lock()
	r := g.routes[session]
	g.mu.Unlock()
	if r != nil {
		r.mu.Lock()
		primary, standby := r.backend, r.replica
		r.mu.Unlock()
		if standby == b && g.armReplication(session, primary, trace, parentSID) == nil {
			g.forward(primary, &wire.Request{Session: session, Verb: "replicate", Args: []string{"stop"},
				TraceID: trace, ParentSpan: parentSID})
			r.mu.Lock()
			if r.replica == b {
				r.replica = nil
			}
			r.mu.Unlock()
		}
	}
	g.forward(b, &wire.Request{Session: session, Verb: "close", TraceID: trace, ParentSpan: parentSID})
}
