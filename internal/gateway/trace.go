package gateway

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"strings"
	"time"

	"livesim/internal/obs"
	"livesim/internal/server"
	"livesim/internal/wire"
)

// Fleet-wide trace assembly and the gateway's crash forensics. One
// trace id names spans scattered across processes: the gateway's
// request/forward spans live in its own span store, each backend's
// request/exec/live-loop spans in that backend's, and a replication
// standby's replapply spans in a third. `trace <id>` (and /tracez?id=)
// fans an unstamped `spans` query to every backend, merges the dumps
// with the local store, and renders one tree — spans whose parent died
// with a backend surface as explicit orphan roots, and unreachable
// backends are listed as incomplete-assembly notes rather than errors.

// isTraceID reports whether s looks like a wire trace id (16 lowercase
// hex characters, the obs.NewTraceID shape) — how the gateway tells the
// fleet `trace <id>` verb from the session-scoped VCD `trace` verb.
func isTraceID(s string) bool {
	if len(s) != 16 {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// TraceAssembly is the assembled fleet view of one trace: every span
// collected for it, plus a note per backend whose spans could not be
// collected (down, unreachable, or store disabled) — the explicit
// "parts of this tree may be missing" marker.
type TraceAssembly struct {
	Trace   string           `json:"trace"`
	Spans   []obs.SpanRecord `json:"spans"`
	Missing []string         `json:"missing,omitempty"`
}

// assembleTrace collects one trace's spans from the whole fleet: an
// unstamped `spans <id>` to every alive backend (unstamped on purpose —
// the assembly query must not add forward spans to the very stores it
// is reading), merged with the gateway's own store.
func (g *Gateway) assembleTrace(id string) *TraceAssembly {
	asm := &TraceAssembly{Trace: id}
	var alive []*backend
	for _, b := range g.backends {
		if b.alive() {
			alive = append(alive, b)
		} else {
			asm.Missing = append(asm.Missing,
				fmt.Sprintf("backend %s is down; any spans it held are not shown", b.addr()))
		}
	}
	for i, resp := range g.askAll(alive, &wire.Request{Verb: "spans", Args: []string{id}}) {
		var dump server.SpanDump
		switch {
		case !resp.OK:
			asm.Missing = append(asm.Missing,
				fmt.Sprintf("backend %s: %s (%s)", alive[i].addr(), resp.Error, resp.Code))
		case resp.Data == nil || json.Unmarshal(resp.Data, &dump) != nil:
			asm.Missing = append(asm.Missing,
				fmt.Sprintf("backend %s: unparseable span dump", alive[i].addr()))
		default:
			asm.Spans = append(asm.Spans, dump.Spans...)
		}
	}
	asm.Spans = append(asm.Spans, g.tel.Store.Query(id)...)
	sort.Strings(asm.Missing)
	return asm
}

// renderAssembly writes the human form: a header, the span tree (with
// per-hop deltas and orphan markers from obs.WriteSpanTree), then the
// incomplete-assembly notes.
func renderAssembly(w *strings.Builder, asm *TraceAssembly) {
	if len(asm.Spans) == 0 {
		fmt.Fprintf(w, "no spans stored anywhere for trace %s\n", asm.Trace)
	} else {
		procs := map[string]bool{}
		for _, s := range asm.Spans {
			procs[s.Proc] = true
		}
		fmt.Fprintf(w, "trace %s: %d spans across %d processes\n",
			asm.Trace, len(asm.Spans), len(procs))
		obs.WriteSpanTree(w, obs.BuildSpanTree(asm.Spans))
	}
	for _, n := range asm.Missing {
		fmt.Fprintf(w, "  ! incomplete: %s\n", n)
	}
}

// traceVerb is the fleet assembly verb: `trace <id>` returns one
// assembled tree (Data: TraceAssembly), bare `trace` returns the trace
// index aggregated across the gateway and every alive backend.
func (g *Gateway) traceVerb(req *wire.Request) *wire.Response {
	if len(req.Args) > 1 {
		return wire.Refuse(req, wire.CodeBadRequest, fmt.Errorf("usage: trace [trace-id]"))
	}
	if len(req.Args) == 1 {
		asm := g.assembleTrace(req.Args[0])
		data, _ := json.Marshal(asm)
		var out strings.Builder
		renderAssembly(&out, asm)
		return &wire.Response{ID: req.ID, OK: true, Output: out.String(), Data: data}
	}

	// Index: this gateway's stored traces plus each backend's, labeled
	// by process so an operator knows where to look deeper.
	type procIndex struct {
		Proc   string             `json:"proc"`
		Traces []obs.TraceSummary `json:"traces"`
	}
	idx := []procIndex{{Proc: g.tel.Proc, Traces: g.tel.Store.Traces(64)}}
	alive := g.aliveBackends()
	for i, resp := range g.askAll(alive, &wire.Request{Verb: "spans"}) {
		var sums []obs.TraceSummary
		if resp.OK && resp.Data != nil && json.Unmarshal(resp.Data, &sums) == nil {
			idx = append(idx, procIndex{Proc: alive[i].addr(), Traces: sums})
		}
	}
	sort.Slice(idx[1:], func(i, j int) bool { return idx[i+1].Proc < idx[j+1].Proc })
	data, _ := json.Marshal(idx)
	var out strings.Builder
	for _, pi := range idx {
		fmt.Fprintf(&out, "%s:\n", pi.Proc)
		if len(pi.Traces) == 0 {
			out.WriteString("  (no traces stored)\n")
			continue
		}
		for _, t := range pi.Traces {
			state := "active"
			if t.Done {
				state = "done"
			}
			fmt.Fprintf(&out, "  %-16s %-20s %4d spans %10s ok=%-5v %s\n",
				t.Trace, t.Root, t.Spans, time.Duration(t.DurUS)*time.Microsecond, t.OK, state)
		}
	}
	return &wire.Response{ID: req.ID, OK: true, Output: out.String(), Data: data}
}

// handleTracez is the gateway's /tracez: the local trace index without
// ?id=, the fleet-assembled TraceAssembly for ?id=<trace> (add
// &render=text for the tree instead of JSON).
func (g *Gateway) handleTracez(w http.ResponseWriter, r *http.Request) {
	if g.tel.Store == nil {
		http.Error(w, "span store disabled", http.StatusNotFound)
		return
	}
	id := r.URL.Query().Get("id")
	if id == "" {
		body, _ := json.Marshal(g.tel.Store.Traces(64))
		w.Header().Set("Content-Type", "application/json")
		w.Write(append(body, '\n'))
		return
	}
	asm := g.assembleTrace(id)
	if r.URL.Query().Get("render") == "text" {
		var out strings.Builder
		renderAssembly(&out, asm)
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		w.Write([]byte(out.String()))
		return
	}
	body, _ := json.Marshal(asm)
	w.Header().Set("Content-Type", "application/json")
	w.Write(append(body, '\n'))
}
