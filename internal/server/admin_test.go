package server_test

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"livesim/internal/core"
	"livesim/internal/faultinject"
	"livesim/internal/govern"
	"livesim/internal/obs"
	"livesim/internal/server"
)

func adminGet(t *testing.T, h http.Handler, path string) *httptest.ResponseRecorder {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
	return rec
}

// TestAdminEndpoints drives the admin plane against a live server with
// one active session: /healthz reports ok with counts, /metrics renders
// valid-looking Prometheus text with server and per-session families,
// /eventsz exposes the event ring, and pprof answers.
func TestAdminEndpoints(t *testing.T) {
	srv, addr := startServer(t, server.Config{Metrics: obs.NewRegistry()})
	c := dial(t, addr)
	createTiny(t, c, "adm0", 20)
	mustOK(t, c, &server.Request{Session: "adm0", Verb: "run", Args: []string{"clock", "p0", "50"}})

	h := srv.AdminHandler()

	// /healthz: serving, one session, nothing recovering or quarantined.
	rec := adminGet(t, h, "/healthz")
	if rec.Code != http.StatusOK {
		t.Fatalf("/healthz = %d, want 200; body %s", rec.Code, rec.Body)
	}
	var health struct {
		Status      string `json:"status"`
		Sessions    int    `json:"sessions"`
		Recovering  int    `json:"recovering"`
		Quarantined int    `json:"quarantined"`
		Draining    bool   `json:"draining"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &health); err != nil {
		t.Fatalf("/healthz body: %v", err)
	}
	if health.Status != "ok" || health.Sessions != 1 || health.Recovering != 0 ||
		health.Quarantined != 0 || health.Draining {
		t.Fatalf("/healthz = %+v", health)
	}

	// /metrics: exposition-format basics plus server and session families.
	rec = adminGet(t, h, "/metrics")
	if rec.Code != http.StatusOK {
		t.Fatalf("/metrics = %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Errorf("/metrics content type = %q", ct)
	}
	body := rec.Body.String()
	for _, want := range []string{
		"# TYPE livesim_server_requests counter",
		"livesim_server_requests ",
		`livesim_session_requests{session="adm0"}`,
		`livesim_session_request_latency_seconds{quantile="0.5",session="adm0"}`,
		`livesim_request_latency_seconds{quantile="0.99",verb="run"}`,
		"_bucket{le=",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q\n%s", want, body)
		}
	}
	// One # TYPE line per family even with several labeled sources.
	if n := strings.Count(body, "# TYPE livesim_session_requests "); n != 1 {
		t.Errorf("%d TYPE lines for livesim_session_requests, want 1", n)
	}

	// /eventsz: the create above must be in the ring.
	rec = adminGet(t, h, "/eventsz")
	if rec.Code != http.StatusOK {
		t.Fatalf("/eventsz = %d", rec.Code)
	}
	var evs []obs.Event
	if err := json.Unmarshal(rec.Body.Bytes(), &evs); err != nil {
		t.Fatalf("/eventsz body: %v", err)
	}
	created := false
	var last uint64
	for _, ev := range evs {
		if ev.Type == "session_created" && ev.Session == "adm0" {
			created = true
		}
		last = ev.Seq
	}
	if !created {
		t.Fatalf("/eventsz has no session_created for adm0: %+v", evs)
	}
	// ?since filters strictly-after.
	rec = adminGet(t, h, "/eventsz?since="+jsonUint(last))
	var tail []obs.Event
	if err := json.Unmarshal(rec.Body.Bytes(), &tail); err != nil {
		t.Fatalf("/eventsz?since body: %v", err)
	}
	if len(tail) != 0 {
		t.Errorf("/eventsz?since=%d returned %d events, want 0", last, len(tail))
	}
	if rec = adminGet(t, h, "/eventsz?since=bogus"); rec.Code != http.StatusBadRequest {
		t.Errorf("/eventsz?since=bogus = %d, want 400", rec.Code)
	}

	// pprof is mounted.
	if rec = adminGet(t, h, "/debug/pprof/"); rec.Code != http.StatusOK {
		t.Errorf("/debug/pprof/ = %d", rec.Code)
	}
}

// TestAdminProfilez drives the activity profiler end to end over the
// wire and asserts the three surfaces agree: the `profile report json`
// verb, the /profilez admin endpoint, and the prof_* gauges on
// /metrics all see the same session with the same instance count.
func TestAdminProfilez(t *testing.T) {
	srv, addr := startServer(t, server.Config{Metrics: obs.NewRegistry()})
	c := dial(t, addr)
	createTiny(t, c, "prof0", 20)
	mustOK(t, c, &server.Request{Session: "prof0", Verb: "profile", Args: []string{"start"}})
	mustOK(t, c, &server.Request{Session: "prof0", Verb: "run", Args: []string{"clock", "p0", "40"}})

	h := srv.AdminHandler()

	// Before any profiling surface: the verb's own JSON report.
	resp := mustOK(t, c, &server.Request{Session: "prof0", Verb: "profile", Args: []string{"report", "json"}})
	var fromVerb []core.PipeProfile
	if err := json.Unmarshal([]byte(resp.Output), &fromVerb); err != nil {
		t.Fatalf("profile report json: %v\n%s", err, resp.Output)
	}
	if len(fromVerb) != 1 || !fromVerb[0].Enabled {
		t.Fatalf("verb profiles = %+v", fromVerb)
	}
	// tinyDesign: top + u0.
	if fromVerb[0].Snapshot.Instances != 2 {
		t.Fatalf("verb instance count %d, want 2", fromVerb[0].Snapshot.Instances)
	}

	// /profilez sweep: same session, same pipe, same counts.
	rec := adminGet(t, h, "/profilez")
	if rec.Code != http.StatusOK {
		t.Fatalf("/profilez = %d: %s", rec.Code, rec.Body)
	}
	var all map[string][]core.PipeProfile
	if err := json.Unmarshal(rec.Body.Bytes(), &all); err != nil {
		t.Fatalf("/profilez body: %v", err)
	}
	got, ok := all["prof0"]
	if !ok || len(got) != 1 {
		t.Fatalf("/profilez = %+v", all)
	}
	if got[0].Pipe != "p0" || got[0].Snapshot.Instances != fromVerb[0].Snapshot.Instances {
		t.Errorf("/profilez disagrees with verb: %+v vs %+v", got[0], fromVerb[0])
	}
	if got[0].Snapshot.Cycles != 40 {
		t.Errorf("/profilez cycles %d, want 40", got[0].Snapshot.Cycles)
	}

	// Query filters: named session and pipe narrow the sweep; unknown
	// names are 404s rather than silently-empty responses.
	rec = adminGet(t, h, "/profilez?session=prof0&pipe=p0")
	if rec.Code != http.StatusOK {
		t.Fatalf("/profilez?session&pipe = %d", rec.Code)
	}
	if rec = adminGet(t, h, "/profilez?session=ghost"); rec.Code != http.StatusNotFound {
		t.Errorf("/profilez?session=ghost = %d, want 404", rec.Code)
	}
	if rec = adminGet(t, h, "/profilez?session=prof0&pipe=ghost"); rec.Code != http.StatusNotFound {
		t.Errorf("/profilez?pipe=ghost = %d, want 404", rec.Code)
	}

	// /metrics: the per-session prof gauges carry the same numbers.
	body := adminGet(t, h, "/metrics").Body.String()
	for _, want := range []string{
		`livesim_prof_instances{session="prof0"} 2`,
		`livesim_prof_pipes_enabled{session="prof0"} 1`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	// Stop over the wire; the endpoint must reflect it immediately.
	mustOK(t, c, &server.Request{Session: "prof0", Verb: "profile", Args: []string{"stop"}})
	rec = adminGet(t, h, "/profilez?session=prof0")
	var stopped map[string][]core.PipeProfile
	if err := json.Unmarshal(rec.Body.Bytes(), &stopped); err != nil {
		t.Fatal(err)
	}
	if stopped["prof0"][0].Enabled {
		t.Error("still enabled after profile stop")
	}
}

func jsonUint(v uint64) string {
	b, _ := json.Marshal(v)
	return string(b)
}

// TestAdminHealthzDegraded checks the quarantine-aware branch: a
// quarantined session keeps the daemon serving (200) but flips status
// to degraded.
func TestAdminHealthzDegraded(t *testing.T) {
	// Registered before startServer, so the restore runs after shutdown.
	t.Cleanup(server.SetBreakerThreshold(1))
	srv, addr := startServer(t, server.Config{Metrics: obs.NewRegistry()})
	c := dial(t, addr)
	createTiny(t, c, "q0", 20)
	// One failure trips the breaker.
	resp, err := c.Do(&server.Request{Session: "q0", Verb: "testpanic"})
	if err != nil {
		t.Fatal(err)
	}
	if resp.OK {
		t.Fatal("testpanic unexpectedly succeeded")
	}

	rec := adminGet(t, srv.AdminHandler(), "/healthz")
	if rec.Code != http.StatusOK {
		t.Fatalf("/healthz = %d, want 200 (degraded still serves)", rec.Code)
	}
	var health struct {
		Status      string `json:"status"`
		Quarantined int    `json:"quarantined"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &health); err != nil {
		t.Fatal(err)
	}
	if health.Status != "degraded" || health.Quarantined != 1 {
		t.Fatalf("/healthz = %+v, want degraded with 1 quarantined", health)
	}
}

// TestMetricsCarryHealth: /metrics renders the health verdict as it is —
// each numeric /healthz field as livesim_health_<key>, and the disk rung
// as livesim_health_disk_level — so a scrape and a probe cannot disagree.
func TestMetricsCarryHealth(t *testing.T) {
	// Registered before startServer, so the restore runs after shutdown.
	t.Cleanup(server.SetBreakerThreshold(1))
	srv, addr := startServer(t, server.Config{
		StateDir:      filepath.Join(t.TempDir(), "state"),
		Faults:        faultinject.New().ForceDiskFree(15, 100), // the elevated rung
		DiskPollEvery: 10 * time.Millisecond,
	})
	c := dial(t, addr)
	createTiny(t, c, "q0", 20)
	if resp, err := c.Do(&server.Request{Session: "q0", Verb: "testpanic"}); err != nil || resp.OK {
		t.Fatalf("testpanic: %+v, %v; want a failure that trips the breaker", resp, err)
	}
	h := srv.AdminHandler()
	for deadline := time.Now().Add(5 * time.Second); !strings.Contains(adminGet(t, h, "/healthz").Body.String(), `"disk_level":"elevated"`); time.Sleep(10 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the disk ladder never reached elevated")
		}
	}

	samples := map[string]float64{}
	for _, line := range strings.Split(adminGet(t, h, "/metrics").Body.String(), "\n") {
		name, val, ok := strings.Cut(line, " ")
		if key, found := strings.CutPrefix(name, "livesim_health_"); ok && found {
			v, err := strconv.ParseFloat(val, 64)
			if err != nil {
				t.Fatalf("%q: %v", line, err)
			}
			samples[key] = v
		}
	}
	var body map[string]any
	if err := json.Unmarshal(adminGet(t, h, "/healthz").Body.Bytes(), &body); err != nil {
		t.Fatal(err)
	}
	if body["quarantined"] != 1.0 || body["status"] != "degraded" {
		t.Fatalf("/healthz = %v, want degraded with 1 quarantined", body)
	}
	want := map[string]float64{}
	for k, v := range body {
		if f, ok := v.(float64); ok {
			want[k] = f
		}
	}
	for lvl := govern.LevelOK; lvl <= govern.LevelEmergency; lvl++ {
		if lvl.String() == body["disk_level"] {
			want["disk_level"] = float64(lvl)
		}
	}
	if len(samples) != len(want) {
		t.Errorf("health samples %v, want one per numeric /healthz field and the disk rung: %v", samples, want)
	}
	for k, w := range want {
		got, ok := samples[k]
		switch {
		case !ok:
			t.Errorf("no livesim_health_%s on /metrics", k)
		case k == "uptime_secs": // /healthz was read after /metrics
			if got <= 0 || got > w {
				t.Errorf("livesim_health_uptime_secs = %v, /healthz uptime_secs = %v", got, w)
			}
		case got != w:
			t.Errorf("livesim_health_%s = %v, /healthz %s = %v", k, got, k, w)
		}
	}
}
