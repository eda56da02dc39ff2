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

// The admin plane. AdminHandler is livesimd's operational HTTP surface
// (cmd/livesimd binds it to -admin-addr), deliberately separate from
// the NDJSON session port so scrapes and profilers never contend with
// simulation traffic:
//
//	GET /metrics      Prometheus text exposition: the server registry
//	                  plus every per-session registry (session label)
//	                  and the rolling-window latency quantiles
//	GET /healthz      liveness with drain/recovery/quarantine awareness
//	GET /eventsz      the operational event ring as JSON (?since=seq)
//	GET /profilez     per-session activity-profiler snapshots as JSON
//	                  (?session=name to select one, ?pipe=name within it)
//	GET /tracez       the span store: trace index, or ?id=<trace> for one
//	                  trace's spans (JSON; &render=text for the tree)
//	GET /flightz      the flight-recorder ring as NDJSON (the same lines
//	                  a blackbox-<ts>.jsonl dump would hold)
//	GET /debug/pprof  the stdlib profiler endpoints
//
// The handler holds no state of its own — every request renders the
// live server — so it is safe to serve before Recover completes and
// during drain (a draining daemon answering 503 is the signal load
// balancers act on).

// AdminHandler returns the admin-plane HTTP handler.
func (s *Server) AdminHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/eventsz", s.handleEventsz)
	mux.HandleFunc("/profilez", s.handleProfilez)
	mux.HandleFunc("/tracez", s.handleTracez)
	mux.HandleFunc("/flightz", s.handleFlightz)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	// Collect the session list under the lock, snapshot outside it:
	// Registry.Snapshot runs OnSnapshot hooks that take session locks.
	type sessWin struct {
		name string
		h    *hosted
	}
	s.mu.Lock()
	sessions := make([]sessWin, 0, len(s.sessions))
	for name, h := range s.sessions {
		if h.sess != nil {
			sessions = append(sessions, sessWin{name, h})
		}
	}
	s.mu.Unlock()
	sort.Slice(sessions, func(i, j int) bool { return sessions[i].name < sessions[j].name })

	pw := obs.NewPromWriter("livesim_")
	pw.AddSnapshot(nil, s.reg.Snapshot())
	for _, sw := range sessions {
		labels := map[string]string{"session": sw.name}
		pw.AddSnapshot(labels, sw.h.reg.Snapshot())
		for _, q := range []float64{0.5, 0.95, 0.99} {
			pw.AddSample("session_request_latency_seconds", "gauge",
				map[string]string{"session": sw.name, "quantile": formatQ(q)},
				sw.h.win.Quantile(q))
		}
		pw.AddSample("session_request_rate", "gauge", labels, sw.h.win.Rate())
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

	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	pw.Write(w)
}

func formatQ(q float64) string {
	return strconv.FormatFloat(q, 'g', -1, 64)
}

// handleHealthz maps daemon state to status codes a load balancer can
// act on: 503 while draining (stop routing here), while any session is
// still replaying its journal (state not yet servable), or at the
// emergency disk rung (mutations rejected — route writes elsewhere);
// 200 with status "degraded" when sessions are quarantined or
// nondurable, or the disk ladder is engaged (serving, but an operator
// should look); 200 "ok" otherwise.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	draining := s.draining
	total := 0
	recovering := 0
	quarantined := 0
	nondurable := 0
	for _, h := range s.sessions {
		total++
		if h.recovering.Load() {
			recovering++
		}
		if q, _ := h.brk.quarantined(); q {
			quarantined++
		}
		if h.journalPaused.Load() {
			nondurable++
		}
	}
	s.mu.Unlock()
	disk := s.diskLevelNow()

	status, code := "ok", http.StatusOK
	switch {
	case draining:
		status, code = "draining", http.StatusServiceUnavailable
	case recovering > 0:
		status, code = "recovering", http.StatusServiceUnavailable
	case disk >= govern.LevelEmergency:
		status, code = "disk_emergency", http.StatusServiceUnavailable
	case quarantined > 0 || nondurable > 0 || disk > govern.LevelOK:
		status = "degraded"
	}
	body, _ := json.Marshal(map[string]any{
		"status":           status,
		"uptime_secs":      time.Since(s.start).Seconds(),
		"sessions":         total,
		"recovering":       recovering,
		"quarantined":      quarantined,
		"nondurable":       nondurable,
		"draining":         draining,
		"disk_level":       disk.String(),
		"admit_inflight":   s.admit.Inflight(),
		"admit_budget":     s.admit.Budget(),
		"overload_rejects": s.admit.Rejects(),
	})
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

	s.mu.Lock()
	names := make([]string, 0, len(s.sessions))
	bySess := make(map[string]*core.Session, len(s.sessions))
	for name, h := range s.sessions {
		if h.sess == nil {
			continue
		}
		if wantSess != "" && name != wantSess {
			continue
		}
		names = append(names, name)
		bySess[name] = h.sess
	}
	s.mu.Unlock()
	if wantSess != "" && len(names) == 0 {
		http.Error(w, fmt.Sprintf("no session %q", wantSess), http.StatusNotFound)
		return
	}
	sort.Strings(names)

	out := make(map[string][]core.PipeProfile, len(names))
	for _, name := range names {
		profiles, err := bySess[name].ProfileSnapshot(wantPipe)
		if err != nil {
			// An unknown pipe is only an error when the caller named one
			// session explicitly; across sessions it just means "not here".
			if wantSess != "" {
				http.Error(w, err.Error(), http.StatusNotFound)
				return
			}
			continue
		}
		out[name] = profiles
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

// handleFlightz streams the flight-recorder ring — the in-memory black
// box — as NDJSON, newest-last, exactly as a blackbox dump would write
// it.
func (s *Server) handleFlightz(w http.ResponseWriter, r *http.Request) {
	if s.tel.Flight == nil {
		http.Error(w, "flight recorder disabled", http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	s.tel.Flight.Dump(w, "flightz")
}

func (s *Server) handleEventsz(w http.ResponseWriter, r *http.Request) {
	since := uint64(0)
	if v := r.URL.Query().Get("since"); v != "" {
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			http.Error(w, fmt.Sprintf("bad since: %v", err), http.StatusBadRequest)
			return
		}
		since = n
	}
	evs := s.tel.Events.Since(since)
	body, _ := json.Marshal(evs)
	w.Header().Set("Content-Type", "application/json")
	w.Write(append(body, '\n'))
}
