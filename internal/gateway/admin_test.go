package gateway_test

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"livesim/internal/gateway"
	"livesim/internal/obs"
	"livesim/internal/server"
)

func adminGet(t *testing.T, h http.Handler, path string) *httptest.ResponseRecorder {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
	return rec
}

// adminAnswers waits until GET path answers code with the Content-Type
// ctype and the body want returns, read right after it: the gateway's
// probes and events move between the two reads, and stop moving once
// the pool is settled.
func adminAnswers(t *testing.T, h http.Handler, path string, code int, ctype string, want func() string) {
	t.Helper()
	var rec *httptest.ResponseRecorder
	var body string
	deadline := time.Now().Add(5 * time.Second)
	for {
		rec = adminGet(t, h, path)
		if body = want(); rec.Body.String() == body || time.Now().After(deadline) {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if rec.Code != code || rec.Header().Get("Content-Type") != ctype || rec.Body.String() != body {
		t.Fatalf("GET %s = %d %q\n%s\nwant %d %q\n%s", path, rec.Code, rec.Header().Get("Content-Type"),
			rec.Body.String(), code, ctype, body)
	}
}

const (
	jsonType = "application/json"
	textType = "text/plain; charset=utf-8"
)

// TestGatewayAdminPlane holds each of lsgate's admin endpoints to what it
// wrote when it lived in cmd/lsgate: /healthz the `ping` verb's Data,
// /backendz the `backends` verb's, /eventsz the `events` verb's, /tracez
// the span store's index and the `trace <id>` verb's assembly and text,
// /flightz the black box, /metrics the registry in Prometheus text, each
// with its newline, Content-Type and status code.
func TestGatewayAdminPlane(t *testing.T) {
	b := newTestBackend(t)
	bbox := t.TempDir()
	g, gaddr := startGateway(t, gateway.Config{
		Backends: []gateway.BackendSpec{{Addr: b.addr()}},
		Metrics:  obs.NewRegistry(),
		TelemetryConfig: obs.TelemetryConfig{ProcName: "lsgate:admin",
			BlackboxDir: bbox, BlackboxFlushEvery: 10 * time.Millisecond},
	})
	h := g.AdminHandler()
	c := dial(t, gaddr)
	const trace = "deadbeefcafe00a1"
	mustOK(t, c, &server.Request{Session: "a0", Verb: "create", TraceID: trace,
		Files: map[string]string{"top.v": tinyDesign}, Top: "top"})
	verb := func(args ...string) func() *server.Response {
		return func() *server.Response { return mustOK(t, c, &server.Request{Verb: args[0], Args: args[1:]}) }
	}
	data := func(f func() *server.Response) func() string {
		return func() string { return string(f().Data) + "\n" }
	}

	// /healthz: the pool summary, whose uptime moves between any two reads.
	rec := adminGet(t, h, "/healthz")
	var got, want map[string]any
	json.Unmarshal(rec.Body.Bytes(), &got)
	json.Unmarshal(verb("ping")().Data, &want)
	delete(got, "uptime_secs")
	delete(want, "uptime_secs")
	gj, _ := json.Marshal(got)
	wj, _ := json.Marshal(want)
	if rec.Code != 200 || rec.Header().Get("Content-Type") != jsonType ||
		!strings.HasSuffix(rec.Body.String(), "}\n") || !bytes.Equal(gj, wj) || want["gateway"] != true {
		t.Fatalf("/healthz = %d %q %s, ping = %s", rec.Code, rec.Header().Get("Content-Type"), rec.Body, wj)
	}

	adminAnswers(t, h, "/backendz", 200, jsonType, data(verb("backends")))

	adminAnswers(t, h, "/eventsz", 200, jsonType, data(verb("events")))
	evs := g.Events()
	last := strconv.FormatUint(evs[len(evs)-1].Seq, 10)
	adminAnswers(t, h, "/eventsz?since="+last, 200, jsonType, data(verb("events", last)))
	adminAnswers(t, h, "/eventsz?since=x", 400, textType, func() string {
		return "bad since: strconv.ParseUint: parsing \"x\": invalid syntax\n"
	})

	// /tracez: the gateway's own index is the first row of the fleet
	// index the bare `trace` verb assembles.
	adminAnswers(t, h, "/tracez", 200, jsonType, func() string {
		var idx []struct {
			Traces json.RawMessage `json:"traces"`
		}
		json.Unmarshal(verb("trace")().Data, &idx)
		return string(idx[0].Traces) + "\n"
	})
	if !strings.Contains(adminGet(t, h, "/tracez").Body.String(), trace) {
		t.Fatalf("/tracez does not list trace %s", trace)
	}
	adminAnswers(t, h, "/tracez?id="+trace, 200, jsonType, data(verb("trace", trace)))
	adminAnswers(t, h, "/tracez?id="+trace+"&render=text", 200, textType, func() string {
		return verb("trace", trace)().Output
	})

	// /flightz: the black box the periodic flush writes, under its own
	// header.
	rec = adminGet(t, h, "/flightz")
	lines := strings.SplitAfterN(rec.Body.String(), "\n", 2)
	var hdr struct {
		Ev, Proc, Reason string
		Lines            int
	}
	json.Unmarshal([]byte(lines[0]), &hdr)
	if rec.Code != 200 || rec.Header().Get("Content-Type") != "application/x-ndjson" ||
		hdr != (struct {
			Ev, Proc, Reason string
			Lines            int
		}{"blackbox", "lsgate:admin", "flightz", strings.Count(lines[1], "\n")}) ||
		!strings.Contains(lines[1], `"type":"backend_state"`) {
		t.Fatalf("/flightz = %d %q\n%s", rec.Code, rec.Header().Get("Content-Type"), rec.Body)
	}
	waitUntil(t, 5*time.Second, "/flightz to hold what the black box holds", func() bool {
		files, _ := filepath.Glob(filepath.Join(bbox, "blackbox-*.jsonl"))
		if len(files) != 1 {
			return false
		}
		disk, _ := os.ReadFile(files[0])
		_, dlines, _ := strings.Cut(string(disk), "\n")
		_, hlines, _ := strings.Cut(adminGet(t, h, "/flightz").Body.String(), "\n")
		return dlines == hlines
	})

	adminAnswers(t, h, "/metrics", 200, "text/plain; version=0.0.4; charset=utf-8", func() string {
		pw := obs.NewPromWriter("lsgate_")
		pw.AddSnapshot(nil, g.Metrics().Snapshot())
		var buf bytes.Buffer
		pw.Write(&buf)
		return buf.String()
	})
	if body := adminGet(t, h, "/metrics").Body.String(); !strings.Contains(body, "# TYPE lsgate_") {
		t.Fatalf("/metrics holds no lsgate_ family:\n%s", body)
	}

	// lsgate serves no profiler and nothing else.
	adminAnswers(t, h, "/debug/pprof/", 404, textType, func() string { return "404 page not found\n" })
}

// With the span store and the flight recorder off, /tracez and /flightz
// say so with a 404.
func TestGatewayAdminPlaneDisabled(t *testing.T) {
	b := newTestBackend(t)
	g, _ := startGateway(t, gateway.Config{
		Backends:        []gateway.BackendSpec{{Addr: b.addr()}},
		TelemetryConfig: obs.TelemetryConfig{SpanStoreCap: -1, FlightRecorderCap: -1},
	})
	h := g.AdminHandler()
	adminAnswers(t, h, "/tracez", 404, textType, func() string { return "span store disabled\n" })
	adminAnswers(t, h, "/tracez?id=deadbeefcafe00a1", 404, textType, func() string { return "span store disabled\n" })
	adminAnswers(t, h, "/flightz", 404, textType, func() string { return "flight recorder disabled\n" })
}
