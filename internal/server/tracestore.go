package server

import (
	"encoding/json"
	"fmt"
	"strings"
	"time"

	"livesim/internal/obs"
	"livesim/internal/wire"
)

// The `spans` verb exposes this process's span store: the per-backend
// half of the gateway's `trace <id>` assembly.

// spansVerb serves the span store over the wire. With a trace id
// argument it returns that trace's spans (Data: SpanDump, Output: the
// locally-assembled tree); without one it returns the store's index.
func (s *Server) spansVerb(req *Request) *Response {
	if s.tel.Store == nil {
		return errResp(req, wire.CodeBadRequest, fmt.Errorf("span store disabled"))
	}
	if len(req.Args) > 1 {
		return errResp(req, wire.CodeBadRequest, fmt.Errorf("usage: spans [trace-id]"))
	}
	if len(req.Args) == 1 {
		trace := req.Args[0]
		recs := s.tel.Store.Query(trace)
		dump := SpanDump{Proc: s.tel.Proc, Spans: recs}
		data, _ := json.Marshal(dump)
		var out strings.Builder
		if len(recs) == 0 {
			fmt.Fprintf(&out, "  no spans stored for trace %s\n", trace)
		} else {
			obs.WriteSpanTree(&out, obs.BuildSpanTree(recs))
		}
		return &Response{ID: req.ID, OK: true, Output: out.String(), Data: data}
	}
	sums := s.tel.Store.Traces(64)
	data, _ := json.Marshal(sums)
	var out strings.Builder
	fmt.Fprintf(&out, "  %-16s %-20s %6s %10s %-5s %s\n", "TRACE", "ROOT", "SPANS", "DUR", "OK", "STATE")
	for _, t := range sums {
		state := "active"
		if t.Done {
			state = "done"
		}
		if t.Dropped > 0 {
			state += fmt.Sprintf(" (%d dropped)", t.Dropped)
		}
		fmt.Fprintf(&out, "  %-16s %-20s %6d %10s %-5v %s\n",
			t.Trace, t.Root, t.Spans, time.Duration(t.DurUS)*time.Microsecond, t.OK, state)
	}
	if len(sums) == 0 {
		out.WriteString("  (no traces stored)\n")
	}
	return &Response{ID: req.ID, OK: true, Output: out.String(), Data: data}
}
