package gateway_test

import (
	"encoding/json"
	"fmt"
	"testing"
	"time"

	"livesim/internal/gateway"
	"livesim/internal/server"
	"livesim/internal/wire"
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
// rung takes a backend out of placement until it clears, the elevated
// rung shows as degraded but placeable, and an append the journal
// refuses is answered disk_full through the gateway without taking the
// backend or the session out of service.
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

	// 8% free is the elevated rung: degraded, still journaling.
	spare.faults.ForceDiskFree(8, 100)
	if in := waitBackendState(t, g, spare, "degraded"); !in.Placeable {
		t.Fatalf("degraded backend is not placeable: %+v", in)
	}
	mustOK(t, c, &server.Request{Session: "h0", Verb: "run", Args: []string{"clock", "p0", "5"}})
	spare.faults.ForceDiskFree(50, 100)
	waitBackendState(t, g, spare, "ok")

	// The next append and both its retries hit ENOSPC: the run is refused
	// and undone, and the backend and the session keep serving.
	_, before := fingerprint(t, c, "h0")
	spare.faults.DiskFullAppends(1, 3)
	resp, err := c.Do(&server.Request{Session: "h0", Verb: "run", Args: []string{"clock", "p0", "5"}})
	if err != nil || resp.OK || resp.Code != wire.CodeDiskFull {
		t.Fatalf("run with a refused append: resp=%+v err=%v, want disk_full", resp, err)
	}
	if _, after := fingerprint(t, c, "h0"); after != before {
		t.Fatalf("refused run changed the session: %q -> %q", before, after)
	}
	if in := backendInfo(t, g, spare); in.State != "ok" || !in.Placeable {
		t.Fatalf("backend after a refused append = %+v, want ok and placeable", in)
	}
	mustOK(t, c, &server.Request{Session: "h0", Verb: "run", Args: []string{"clock", "p0", "5"}})
}
