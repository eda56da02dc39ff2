package gateway_test

import (
	"encoding/json"
	"fmt"
	"testing"
	"time"

	"livesim/internal/gateway"
	"livesim/internal/server"
)

// backendInfo is the gateway's `backends` row for b.
func backendInfo(t *testing.T, g *gateway.Gateway, b *testBackend) gateway.BackendInfo {
	t.Helper()
	var infos []gateway.BackendInfo
	if err := json.Unmarshal(g.AdminBackends(), &infos); err != nil {
		t.Fatal(err)
	}
	for _, in := range infos {
		if in.Addr == b.addr() {
			return in
		}
	}
	t.Fatalf("no backends row for %s", b.addr())
	return gateway.BackendInfo{}
}

func waitBackendState(t *testing.T, g *gateway.Gateway, b *testBackend, state string) gateway.BackendInfo {
	t.Helper()
	waitUntil(t, 5*time.Second, b.addr()+" "+state, func() bool {
		return backendInfo(t, g, b).State == state
	})
	return backendInfo(t, g, b)
}

// TestProbeReadsBackendHealth: a pool of plain wire addresses sees each
// backend's /healthz verdict through the ping alone. The emergency disk
// rung takes a backend out of placement until it clears, and a
// nondurable session shows as degraded.
func TestProbeReadsBackendHealth(t *testing.T) {
	full, spare := newTestBackend(t), newTestBackend(t)
	g, gaddr := startGateway(t, gateway.Config{Backends: []gateway.BackendSpec{
		{Addr: full.addr()}, {Addr: spare.addr()}}})
	c := dial(t, gaddr)

	full.faults.ForceDiskFree(2, 100) // under 3% free: the emergency rung
	if in := waitBackendState(t, g, full, "not_ready"); in.Placeable {
		t.Fatalf("backend at the emergency rung is placeable: %+v", in)
	}
	const creates = 8
	for i := 0; i < creates; i++ {
		createTiny(t, c, fmt.Sprintf("h%d", i))
	}
	if got := full.sessionNames(t); len(got) != 0 {
		t.Fatalf("sessions %v placed on the backend at the emergency rung", got)
	}
	if got := spare.sessionNames(t); len(got) != creates {
		t.Fatalf("spare backend hosts %v, want all %d creates", got, creates)
	}

	full.faults.ForceDiskFree(50, 100)
	if in := waitBackendState(t, g, full, "ok"); !in.Placeable {
		t.Fatalf("backend back at the ok rung is not placeable: %+v", in)
	}

	// The next append and both its retries hit ENOSPC: h0's journal
	// pauses and the session is nondurable, still serving.
	spare.faults.DiskFullAppends(1, 3)
	mustOK(t, c, &server.Request{Session: "h0", Verb: "run", Args: []string{"clock", "p0", "5"}})
	if in := waitBackendState(t, g, spare, "degraded"); !in.Placeable {
		t.Fatalf("degraded backend is not placeable: %+v", in)
	}
}
