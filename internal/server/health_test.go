package server_test

import (
	"encoding/json"
	"net/http"
	"testing"

	"livesim/internal/server"
)

// TestPingCarriesHealth: `ping`'s Data is the /healthz body, so the
// gateway's wire probe and an HTTP load balancer read one verdict.
func TestPingCarriesHealth(t *testing.T) {
	// Registered before startServer, so the restore runs after shutdown.
	t.Cleanup(server.SetBreakerThreshold(1))
	srv, addr := startServer(t, server.Config{})
	c := dial(t, addr)
	createTiny(t, c, "q0", 20)
	if resp, err := c.Do(&server.Request{Session: "q0", Verb: "testpanic"}); err != nil || resp.OK {
		t.Fatalf("testpanic: resp=%+v err=%v, want a failure that trips the breaker", resp, err)
	}

	var ping, body server.Health
	if err := json.Unmarshal(mustOK(t, c, &server.Request{Verb: "ping"}).Data, &ping); err != nil {
		t.Fatal(err)
	}
	rec := adminGet(t, srv.AdminHandler(), "/healthz")
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatal(err)
	}
	if ping.UptimeSecs <= 0 || body.UptimeSecs < ping.UptimeSecs {
		t.Errorf("uptime: ping %v, /healthz %v", ping.UptimeSecs, body.UptimeSecs)
	}
	ping.UptimeSecs, body.UptimeSecs = 0, 0
	if ping != body {
		t.Errorf("ping Data %+v, /healthz %+v", ping, body)
	}
	if ping.Status != "degraded" || ping.Quarantined != 1 || ping.Sessions != 1 || rec.Code != http.StatusOK {
		t.Errorf("health %+v (code %d), want 200 degraded with 1 quarantined session of 1", ping, rec.Code)
	}
}
