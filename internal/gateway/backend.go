package gateway

import (
	"encoding/json"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"livesim/internal/server"
	"livesim/internal/server/client"
	"livesim/internal/wire"
)

// BackendSpec names one livesimd the gateway fronts.
type BackendSpec struct {
	// Addr is the NDJSON wire address ("unix:/path" or "host:port") —
	// the identity used for routing, rendezvous hashing and moved
	// tombstones, so it must be the address clients could also reach.
	Addr string
}

// backendState is the health checker's verdict on one backend,
// ordered roughly worst to best.
type backendState int32

const (
	// bsUnknown: never probed successfully (gateway just started).
	bsUnknown backendState = iota
	// bsDown: unreachable — dial or probe failed. Not routable.
	bsDown
	// bsNotReady: reachable but not servable for new placement —
	// recovering sessions or the emergency disk rung. Existing
	// sessions stay routed here (the backend answers with its own
	// typed codes); new ones go elsewhere.
	bsNotReady
	// bsDraining: the backend is shutting down. Routable so in-flight
	// sessions hear the typed draining rejection, never placeable.
	bsDraining
	// bsDegraded: serving, but with quarantined sessions or the disk
	// ladder engaged. Routable and placeable like bsOK; the
	// state is there for an operator reading `backends`.
	bsDegraded
	// bsOK: healthy.
	bsOK
)

func (s backendState) String() string {
	switch s {
	case bsDown:
		return "down"
	case bsNotReady:
		return "not_ready"
	case bsDraining:
		return "draining"
	case bsDegraded:
		return "degraded"
	case bsOK:
		return "ok"
	}
	return "unknown"
}

// backend is the gateway's live view of one livesimd: a lazily dialed
// wire client plus the health checker's latest verdict.
type backend struct {
	spec BackendSpec

	state    atomic.Int32 // backendState
	noPlace  atomic.Bool  // operator drain: excluded from placement while set
	sessions atomic.Int64 // session count from the last successful probe
	// downSince is when the backend was last seen transitioning to
	// bsDown (UnixNano; 0 while up) — the failover sweep's grace clock.
	downSince atomic.Int64

	mu  sync.Mutex
	cli *client.Client
}

func newBackend(spec BackendSpec) *backend {
	return &backend{spec: spec}
}

func (b *backend) addr() string { return b.spec.Addr }

func (b *backend) getState() backendState { return backendState(b.state.Load()) }

// alive: the wire is believed reachable — forward and let the backend
// answer with its own typed codes.
func (b *backend) alive() bool {
	st := b.getState()
	return st != bsDown && st != bsUnknown
}

// placeable: eligible to receive new sessions (create, import,
// migration targets).
func (b *backend) placeable() bool {
	st := b.getState()
	return (st == bsOK || st == bsDegraded) && !b.noPlace.Load()
}

// client returns the live wire client, dialing on first use and after
// a drop. Fail-fast clients on purpose: the gateway is the layer that
// owns retry/re-route policy, so a broken backend conn is discarded
// (dropClient) and the next use re-dials rather than hiding behind a
// client-level redial loop. OverloadRetries is disabled for the same
// reason — an overloaded response must reach the end client with its
// retry_after_ms hint intact, not burn time inside the gateway.
func (b *backend) client() (*client.Client, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.cli != nil {
		return b.cli, nil
	}
	c, err := client.DialOptions(b.spec.Addr, client.Options{OverloadRetries: -1})
	if err != nil {
		return nil, err
	}
	b.cli = c
	return c, nil
}

// dropClient discards cli if it is still the backend's current client.
// Closing it fails any calls in flight on it.
func (b *backend) dropClient(cli *client.Client) {
	b.mu.Lock()
	if b.cli == cli {
		b.cli = nil
	}
	b.mu.Unlock()
	if cli != nil {
		cli.Close()
	}
}

// probe refreshes the backend's state from one wire ping, whose Data
// is the backend's health verdict (server.Health).
func (g *Gateway) probe(b *backend) {
	cli, err := b.client()
	if err != nil {
		g.setBackendState(b, bsDown, err.Error())
		return
	}
	resp, err := cli.DoTimeout(&wire.Request{Verb: "ping"}, probeTimeout)
	if err != nil {
		b.dropClient(cli)
		g.setBackendState(b, bsDown, err.Error())
		return
	}
	var h server.Health
	json.Unmarshal(resp.Data, &h) // undecodable: no status, the ping verdict stands
	b.sessions.Store(int64(h.Sessions))
	st := bsOK
	switch h.Status {
	case "degraded":
		st = bsDegraded
	case "recovering", "disk_emergency":
		st = bsNotReady
	default: // "ok", "draining", or a status this gateway does not know
		if h.Draining {
			st = bsDraining
		}
	}
	g.setBackendState(b, st, "")
}

// setBackendState records a probe verdict, logging transitions and
// kicking the reconcile sweep when a backend comes back from the dead
// — the moment resurrected session copies could reappear.
func (g *Gateway) setBackendState(b *backend, st backendState, why string) {
	prev := backendState(b.state.Swap(int32(st)))
	if st == bsDown && prev != bsDown {
		b.downSince.Store(time.Now().UnixNano())
	} else if st != bsDown && prev == bsDown {
		b.downSince.Store(0)
	}
	if prev == st {
		return
	}
	msg := fmt.Sprintf("%s -> %s", prev, st)
	if why != "" {
		msg += ": " + why
	}
	g.tel.Event("backend_state", "", "", b.addr()+": "+msg)
	wasAlive := prev != bsDown && prev != bsUnknown
	if !wasAlive && st != bsDown {
		g.background(func() { g.discover(b) }) // the reconcile sweep
	}
}
