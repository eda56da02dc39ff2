package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/pprof"
	"sort"
	"strconv"
	"time"

	"livesim/internal/core"
	"livesim/internal/govern"
	"livesim/internal/obs"
)

// The admin plane. AdminHandler is livesimd's operational HTTP surface,
// deliberately separate from the NDJSON session port so scrapes and
// profilers never contend with simulation traffic. obs.Telemetry.Mount
// serves /eventsz, /flightz and the registry part of /metrics as lsgate
// does; the server adds:
//
//	GET /metrics      the health verdict, every per-session registry
//	                  (session label) and the rolling-window latency
//	                  quantiles
//	GET /healthz      liveness with drain/recovery/quarantine awareness
//	GET /profilez     per-session activity-profiler snapshots as JSON
//	                  (?session=name to select one, ?pipe=name within it)
//	GET /tracez       the span store: trace index, or ?id=<trace> for one
//	                  trace's spans (JSON; &render=text for the tree)
//	GET /debug/pprof  the stdlib profiler endpoints
//
// The handler holds no state of its own — every request renders the
// live server — so it is safe to serve before Recover completes and
// during drain (a draining daemon answering 503 is the signal load
// balancers act on).

// AdminHandler returns the admin-plane HTTP handler.
func (s *Server) AdminHandler() http.Handler {
	mux := http.NewServeMux()
	s.tel.Mount(mux, "livesim_", s.addMetrics)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/profilez", s.handleProfilez)
	mux.HandleFunc("/tracez", s.handleTracez)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// addMetrics adds to /metrics what only livesimd has: the health
// verdict as /healthz would write it now (each numeric field as
// livesim_health_<json key>, and the disk rung as a number), each hosted
// session's registry and request window, and the per-verb rolling-window
// latency quantiles. Every registry is snapshot outside the table lock:
// Registry.Snapshot runs OnSnapshot hooks that take session locks.
func (s *Server) addMetrics(pw *obs.PromWriter) {
	health := s.health()
	var fields map[string]any
	body, _ := json.Marshal(health)
	json.Unmarshal(body, &fields)
	for k, v := range fields {
		if f, ok := v.(float64); ok {
			pw.AddSample("health_"+k, "gauge", nil, f)
		}
	}
	pw.AddSample("health_disk_level", "gauge", nil, float64(health.disk))
	for _, h := range s.hostedSet(true) {
		labels := map[string]string{"session": h.name}
		pw.AddSnapshot(labels, h.reg.Snapshot())
		for _, q := range []float64{0.5, 0.95, 0.99} {
			pw.AddSample("session_request_latency_seconds", "gauge",
				map[string]string{"session": h.name, "quantile": formatQ(q)},
				h.win.Quantile(q))
		}
		pw.AddSample("session_request_rate", "gauge", labels, h.win.Rate())
	}

	// Per-verb rolling-window latency quantiles over the last N requests
	// — the "what is it right now" companion to the cumulative
	// server_request_seconds histogram.
	s.winMu.Lock()
	verbs := make([]string, 0, len(s.verbWins))
	for v := range s.verbWins {
		verbs = append(verbs, v)
	}
	wins := make(map[string]*obs.Window, len(s.verbWins))
	for v, win := range s.verbWins {
		wins[v] = win
	}
	s.winMu.Unlock()
	sort.Strings(verbs)
	for _, v := range verbs {
		for _, q := range []float64{0.5, 0.95, 0.99} {
			pw.AddSample("request_latency_seconds", "gauge",
				map[string]string{"verb": v, "quantile": formatQ(q)},
				wins[v].Quantile(q))
		}
	}
}

func formatQ(q float64) string {
	return strconv.FormatFloat(q, 'g', -1, 64)
}

// Health is livesimd's one health verdict: `ping` carries it as its
// Data and /healthz writes it as its body, so a gateway reading the wire
// and a load balancer reading HTTP see the same state.
type Health struct {
	AdmitBudget     int64   `json:"admit_budget"`
	AdmitInflight   int64   `json:"admit_inflight"`
	DiskLevel       string  `json:"disk_level"`
	Draining        bool    `json:"draining"`
	OverloadRejects int64   `json:"overload_rejects"`
	Quarantined     int     `json:"quarantined"`
	Recovering      int     `json:"recovering"`
	Sessions        int     `json:"sessions"`
	Status          string  `json:"status"`
	UptimeSecs      float64 `json:"uptime_secs"`

	disk govern.PressureLevel // DiskLevel's rung, for /metrics
}

// health works out the verdict. Status is "draining", "recovering" (a
// session is still replaying its journal after a restart: state not yet
// servable; a standby's seed landing through `import` does not count)
// or "disk_emergency" (mutations rejected) when the daemon should take
// no new sessions; "degraded" when sessions are quarantined or the disk
// ladder is engaged (serving, but an operator should look); "ok"
// otherwise.
func (s *Server) health() Health {
	hs := s.hostedSet(true)
	h := Health{
		AdmitBudget:     s.admit.Budget(),
		AdmitInflight:   s.admit.Inflight(),
		Draining:        s.env.Draining(),
		OverloadRejects: s.admit.Rejects(),
		Sessions:        len(hs),
		UptimeSecs:      time.Since(s.start).Seconds(),
	}
	for _, e := range hs {
		if e.recovering.Load() && !e.importing {
			h.Recovering++
		}
		if q, _ := e.brk.quarantined(); q {
			h.Quarantined++
		}
	}
	disk := s.diskLevelNow()
	h.disk, h.DiskLevel = disk, disk.String()
	switch {
	case h.Draining:
		h.Status = "draining"
	case h.Recovering > 0:
		h.Status = "recovering"
	case disk >= govern.LevelEmergency:
		h.Status = "disk_emergency"
	case h.Quarantined > 0 || disk > govern.LevelOK:
		h.Status = "degraded"
	default:
		h.Status = "ok"
	}
	return h
}

// handleHealthz writes the health verdict with a status code a load
// balancer can act on: 503 when the daemon should take no new sessions
// (draining, recovering, disk_emergency), 200 otherwise.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	h := s.health()
	code := http.StatusOK
	switch h.Status {
	case "draining", "recovering", "disk_emergency":
		code = http.StatusServiceUnavailable
	}
	body, _ := json.Marshal(h)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	w.Write(append(body, '\n'))
}

// handleProfilez serves the simulation-core activity profiles: a JSON
// object mapping session name to the per-pipe profile list the `profile
// report json` verb would print for that session. Snapshots are safe
// against a concurrently ticking session, so this endpoint never routes
// through the per-session worker queue — a scrape cannot be delayed by
// (or delay) a long run.
func (s *Server) handleProfilez(w http.ResponseWriter, r *http.Request) {
	wantSess := r.URL.Query().Get("session")
	wantPipe := r.URL.Query().Get("pipe")

	var hs []*hosted
	for _, h := range s.hostedSet(false) {
		if wantSess == "" || h.name == wantSess {
			hs = append(hs, h)
		}
	}
	if wantSess != "" && len(hs) == 0 {
		http.Error(w, fmt.Sprintf("no session %q", wantSess), http.StatusNotFound)
		return
	}

	out := make(map[string][]core.PipeProfile, len(hs))
	for _, h := range hs {
		profiles, err := h.sess.Load().ProfileSnapshot(wantPipe)
		if err != nil {
			// An unknown pipe is only an error when the caller named one
			// session explicitly; across sessions it just means "not here".
			if wantSess != "" {
				http.Error(w, err.Error(), http.StatusNotFound)
				return
			}
			continue
		}
		out[h.name] = profiles
	}
	body, _ := json.Marshal(out)
	w.Header().Set("Content-Type", "application/json")
	w.Write(append(body, '\n'))
}

// handleTracez serves the local span store: /tracez lists the trace
// index, /tracez?id=<trace> returns that trace's SpanDump (add
// &render=text for the assembled local tree instead of JSON).
func (s *Server) handleTracez(w http.ResponseWriter, r *http.Request) {
	if s.tel.Store == nil {
		http.Error(w, "span store disabled", http.StatusNotFound)
		return
	}
	id := r.URL.Query().Get("id")
	if id == "" {
		body, _ := json.Marshal(s.tel.Store.Traces(64))
		w.Header().Set("Content-Type", "application/json")
		w.Write(append(body, '\n'))
		return
	}
	recs := s.tel.Store.Query(id)
	if r.URL.Query().Get("render") == "text" {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if len(recs) == 0 {
			fmt.Fprintf(w, "no spans stored for trace %s\n", id)
			return
		}
		obs.WriteSpanTree(w, obs.BuildSpanTree(recs))
		return
	}
	body, _ := json.Marshal(SpanDump{Proc: s.tel.Proc, Spans: recs})
	w.Header().Set("Content-Type", "application/json")
	w.Write(append(body, '\n'))
}
