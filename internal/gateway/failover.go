package gateway

import (
	"encoding/json"
	"fmt"
	"time"

	"livesim/internal/obs"
	"livesim/internal/replica"
	"livesim/internal/wire"
)

// Failover. When replication is armed (Config.Replicate), every session
// the gateway places gets a standby: the rendezvous next-best backend,
// seeded by the primary over the `replicate` verb and kept hot by the
// primary's ship-on-commit stream. The health loop then runs a failover
// sweep: a primary that stays down past FailoverGrace has its routes
// promoted — the standby is told `promote`, which journals a new fencing
// epoch, and the route retargets under that epoch. Live migration commits
// through the same promote (migrate.go). The epoch is what makes this
// safe against the classic split-brain: the gateway stamps it on every
// forwarded mutation, so a resurrected old primary (which still holds the
// older epoch) fences itself on first contact, and its shipped batches
// are rejected by the promoted copy the same way.

// armReplication picks the session's standby (rendezvous next-best,
// skipping the primary) and tells the primary to seed and stream to it,
// returning the standby armed (nil when none was). Degrades gracefully:
// a session without a standby is exactly as durable as it was before
// this feature existed.
func (g *Gateway) armReplication(session string, primary *backend, trace, parentSID string) *backend {
	standby := g.pickExcept(session, primary)
	if standby == nil {
		g.tel.Event("replication_unarmed", session, trace, "no standby backend available")
		return nil
	}
	if trace == "" {
		trace = obs.NewTraceID()
	}
	asp := g.tel.Tracer.StartRemote(trace, parentSID, "replicate_arm",
		obs.Str("session", session), obs.Str("standby", standby.addr()))
	defer asp.End()
	resp := g.forward(primary, &wire.Request{Session: session, Verb: "replicate",
		Args: []string{standby.addr()}, TraceID: trace, ParentSpan: asp.SID()})
	if !resp.OK {
		g.tel.Event("replication_arm_failed", session, trace,
			fmt.Sprintf("%s -> %s: %s (%s)", primary.addr(), standby.addr(), resp.Error, resp.Code))
		return nil
	}
	g.mu.Lock()
	if r := g.routes[session]; r != nil {
		r.mu.Lock()
		if r.backend == primary {
			r.replica = standby
		}
		r.mu.Unlock()
	}
	g.mu.Unlock()
	g.tel.Event("replication_armed", session, trace, primary.addr()+" -> "+standby.addr())
	return standby
}

// failoverSweep runs on the health loop after each probe pass: any
// route whose primary has been down past the grace window and whose
// standby is alive gets failed over. The grace window is what separates
// a blip (probe timeout, restart-in-progress) from an outage worth
// burning an epoch on.
func (g *Gateway) failoverSweep() {
	now := time.Now()
	type cand struct {
		name    string
		r       *route
		standby *backend
	}
	var cands []cand
	g.mu.Lock()
	for name, r := range g.routes {
		r.mu.Lock()
		b, standby, migrating := r.backend, r.replica, r.migrating
		r.mu.Unlock()
		if migrating || standby == nil || !standby.alive() || b.getState() != bsDown {
			continue
		}
		ds := b.downSince.Load()
		if ds == 0 || now.Sub(time.Unix(0, ds)) < g.cfg.FailoverGrace {
			continue
		}
		cands = append(cands, cand{name, r, standby})
	}
	g.mu.Unlock()
	for _, c := range cands {
		g.failover(c.name, c.r, c.standby)
	}
}

// failover promotes one session's standby and retargets the route.
func (g *Gateway) failover(name string, r *route, standby *backend) {
	r.mu.Lock()
	epoch := r.epoch
	dead := r.backend
	r.mu.Unlock()

	// Failovers are health-loop-initiated — there is no client request to
	// inherit a trace from — so each mints its own, and the promote RPC
	// carries it: the standby's promote span joins this tree.
	trace := obs.NewTraceID()
	fsp := g.tel.Tracer.StartRemote(trace, "", "failover",
		obs.Str("session", name), obs.Str("dead", dead.addr()), obs.Str("standby", standby.addr()))
	defer fsp.End()

	if epoch > 0 && g.cfg.Faults.PromoteStale() {
		// Fault-injection seam: promote under the current (stale) epoch
		// instead of bumping. The standby must reject it typed — this is
		// the proof a replayed or duplicate promotion cannot fork history.
		resp := g.forward(standby, &wire.Request{Session: name, Verb: "promote", Epoch: epoch,
			TraceID: trace, ParentSpan: fsp.SID()})
		if !resp.OK && resp.Code == wire.CodeFenced {
			g.tel.Event("stale_promote_fenced", name, trace,
				fmt.Sprintf("standby %s rejected promote at stale epoch %d", standby.addr(), epoch))
		}
	}

	ack, err := g.promote(name, r, standby, trace, fsp.SID())
	if err != nil {
		g.tel.Event("failover_failed", name, trace, err.Error())
		return
	}
	g.tel.Event("failover", name, trace,
		fmt.Sprintf("promoted standby %s at epoch %d (acked seq %d); primary %s down past %v",
			standby.addr(), ack.Epoch, ack.AckedSeq, dead.addr(), g.cfg.FailoverGrace))
	// Close the loop: the promoted primary gets its own standby so a
	// second failure is survivable too.
	g.restandby(name, standby, nil, trace, fsp.SID())
}

// promote makes standby the session's primary, for failover and live
// migration alike. The promote carries no explicit epoch — the standby
// bumps its own journal epoch, which is authoritative (the gateway's view
// can lag a restart) — and the ack's epoch becomes the stamp forwarded
// mutations carry. The route retargets to standby, pinned, with no
// standby of its own until one is armed.
func (g *Gateway) promote(name string, r *route, standby *backend, trace, parentSID string) (replica.Ack, error) {
	var ack replica.Ack
	resp := g.forward(standby, &wire.Request{Session: name, Verb: "promote",
		TraceID: trace, ParentSpan: parentSID})
	if !resp.OK {
		return ack, fmt.Errorf("promote on %s: %s (%s)", standby.addr(), resp.Error, resp.Code)
	}
	if resp.Data != nil {
		json.Unmarshal(resp.Data, &ack)
	}
	r.mu.Lock()
	r.backend = standby
	r.pinned = true
	r.replica = nil
	if ack.Epoch > r.epoch {
		r.epoch = ack.Epoch
	}
	r.mu.Unlock()
	return ack, nil
}
