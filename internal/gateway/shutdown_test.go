package gateway_test

import (
	"context"
	"strings"
	"testing"
	"time"

	"livesim/internal/gateway"
)

// Shutdown returns only once every goroutine the gateway started has
// stopped: a health probe in flight at shutdown finishes on its open
// connection instead of failing under a closed one, and nothing the
// gateway does lands after Shutdown returns — no event, no backend
// connection.
func TestShutdownWaitsForHealthLoop(t *testing.T) {
	b := newTestBackend(t)
	const delay = 300 * time.Millisecond
	b.faults.SlowClient(delay, 1<<20) // every answer, each probe's included, is held this long
	g, err := gateway.New(gateway.Config{
		Backends:    []gateway.BackendSpec{{Addr: b.addr()}},
		HealthEvery: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	counter := func(name string) uint64 { return b.srv.Metrics().Counter(name).Value() }

	// Shut down while a probe is in flight: its ping was read, its answer
	// is held by the backend.
	before := counter("server_requests")
	waitUntil(t, 5*time.Second, "a health probe in flight", func() bool { return counter("server_requests") > before })
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	g.Shutdown(ctx)
	events, conns := len(g.Events()), counter("server_conns_opened")

	time.Sleep(delay + 100*time.Millisecond)
	if evs := g.Events(); len(evs) != events {
		t.Errorf("%d events recorded after Shutdown returned: %+v", len(evs)-events, evs[events:])
	}
	if n := counter("server_conns_opened"); n != conns {
		t.Errorf("%d backend connections opened after Shutdown returned", n-conns)
	}
	for _, e := range g.Events() {
		if e.Type == "backend_state" && strings.Contains(e.Msg, "-> down") {
			t.Errorf("the probe in flight at Shutdown failed under it: %s", e.Msg)
		}
	}
}
