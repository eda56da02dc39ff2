package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"sort"
	"strings"
	"sync"
)

// SpanRecord is one completed span as the fleet-wide assembler sees it:
// the span line's fields plus the name of the process that emitted it.
// JSON tags match the span line so a SpanStore can parse the same JSONL
// stream the Tracer writes, and a SpanDump can round-trip records over
// the wire untouched.
type SpanRecord struct {
	Trace   string         `json:"trace"`
	SID     string         `json:"sid"`
	PSID    string         `json:"psid,omitempty"`
	Name    string         `json:"name"`
	Proc    string         `json:"proc,omitempty"`
	StartUS int64          `json:"start_us"`
	DurUS   int64          `json:"dur_us"`
	WallUS  int64          `json:"wall_us,omitempty"`
	Attrs   map[string]any `json:"attrs,omitempty"`
}

// SpanStoreConfig bounds a SpanStore. Zero values take the defaults in
// parentheses.
type SpanStoreConfig struct {
	Proc      string // process name stamped on every record
	MaxTraces int    // live traces before oldest-trace eviction (256)
	MaxSpans  int    // spans retained per trace (512)
	Recent    int    // completed fast/ok traces kept queryable (64)
	// RetainOverUS: a completed trace slower than this (microseconds)
	// is retained like an errored one instead of rotating through the
	// recent ring — tail-based sampling (250_000).
	RetainOverUS int64
}

// SpanStore is a bounded in-memory index of span records keyed by trace
// id, fed one JSONL line at a time by the telemetry's line writer.
// Ingest is deliberately lazy: it only scans the line for its trace and
// sid fields (a byte scan, no JSON decode) and keeps the raw bytes; full
// parsing happens on first query of that trace. Queries are cold — an
// operator or the fleet assembler — while ingest sits on the span-end
// path of every traced request, so the store's hot-path cost is two
// substring scans and a map lookup per span.
//
// Retention is tail-based: while a trace is active its spans accumulate
// (up to MaxSpans); when the owning request completes, Complete makes
// the keep/drop decision with the whole trace in hand — slow or errored
// traces move to the kept ring (MaxTraces), fast successful ones rotate
// through the recent ring (Recent) so the last few are still queryable.
// Active traces are not a "last N": a slow request must keep its trace
// however many fast ones start and finish meanwhile, so they are evicted
// oldest first only when MaxTraces of them are in flight at once. Nil is
// the off switch: every method no-ops or returns nothing on a nil
// receiver.
type SpanStore struct {
	cfg SpanStoreConfig

	mu     sync.Mutex
	traces map[string]*traceEntry // every trace held, active or completed
	active []string               // active trace ids, oldest first (eviction order)
	kept   *Ring[string]          // completed slow or errored trace ids
	recent *Ring[string]          // completed fast, successful trace ids
}

type traceEntry struct {
	raw     [][]byte      // retained span lines not yet parsed
	spans   []SpanRecord  // parsed on first query; raw drains into here
	ring    *Ring[string] // the ring holding the id once completed, nil while active
	durUS   int64
	ok      bool
	dropped int // spans lost to the per-trace cap
}

// count is the entry's span population for cap accounting — parsed plus
// still-raw lines.
func (e *traceEntry) count() int { return len(e.spans) + len(e.raw) }

// parseLocked drains an entry's raw lines into parsed records, stamping
// proc. Malformed lines (which the tracer never emits) are dropped
// silently. Caller holds st.mu.
func (e *traceEntry) parseLocked(proc string) {
	for _, line := range e.raw {
		var rec SpanRecord
		if json.Unmarshal(line, &rec) != nil || rec.Trace == "" || rec.SID == "" {
			continue
		}
		rec.Proc = proc
		e.spans = append(e.spans, rec)
	}
	e.raw = nil
}

// TraceSummary is one row of the store's index — enough for a human to
// pick a trace id out of /tracez without pulling every tree.
type TraceSummary struct {
	Trace   string `json:"trace"`
	Root    string `json:"root,omitempty"` // name of the earliest span
	Spans   int    `json:"spans"`
	DurUS   int64  `json:"dur_us,omitempty"`
	OK      bool   `json:"ok"`
	Done    bool   `json:"done"`
	Dropped int    `json:"dropped,omitempty"`
}

// NewSpanStore returns a store with cfg's bounds applied.
func NewSpanStore(cfg SpanStoreConfig) *SpanStore {
	if cfg.MaxTraces <= 0 {
		cfg.MaxTraces = 256
	}
	if cfg.MaxSpans <= 0 {
		cfg.MaxSpans = 512
	}
	if cfg.Recent <= 0 {
		cfg.Recent = 64
	}
	if cfg.RetainOverUS <= 0 {
		cfg.RetainOverUS = 250_000
	}
	return &SpanStore{
		cfg:    cfg,
		traces: map[string]*traceEntry{},
		kept:   NewRing[string](cfg.MaxTraces),
		recent: NewRing[string](cfg.Recent),
	}
}

// spanEvMark, spanKeyTrace and spanKeySID are the byte patterns the
// hot-path scan keys on. They cannot false-match inside a value: every
// pattern starts with a key's opening quote, and a quote inside a JSON
// string is escaped.
var (
	spanEvMark   = []byte(`"ev":"span"`)
	spanKeyTrace = []byte(`"trace":"`)
	spanKeySID   = []byte(`"sid":"`)
)

// spanField extracts a string field's value from a span JSONL line by
// byte scan. Sids and in-tree trace ids are printed as they are; a
// client-sent trace id may be escaped, and only then (a backslash in
// the value) is the value decoded. Returns nil when the key is absent
// or the value is malformed.
func spanField(line, key []byte) []byte {
	i := bytes.Index(line, key)
	if i < 0 {
		return nil
	}
	rest := line[i+len(key):]
	escaped := false
	for j := 0; j < len(rest); j++ {
		switch rest[j] {
		case '\\':
			escaped = true
			j++ // the escaped byte cannot end the string
		case '"':
			if !escaped {
				return rest[:j]
			}
			var v string
			if json.Unmarshal(line[i+len(key)-1:i+len(key)+j+1], &v) != nil {
				return nil
			}
			return []byte(v)
		}
	}
	return nil
}

// ingest indexes one JSONL line (no newline, owned by the store from
// here on) by its trace id if it is a correlated span event, and
// ignores it otherwise. Nil-safe.
func (st *SpanStore) ingest(line []byte) {
	if st == nil || !bytes.Contains(line, spanEvMark) {
		return
	}
	trace := spanField(line, spanKeyTrace)
	if len(trace) == 0 || len(spanField(line, spanKeySID)) == 0 {
		return // uncorrelated spans aren't assemblable
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	e := st.traces[string(trace)]
	switch {
	case e == nil:
		if len(st.active) >= st.cfg.MaxTraces {
			victim := st.active[0]
			st.active = st.active[1:]
			delete(st.traces, victim)
		}
		id := string(trace)
		e = &traceEntry{}
		st.traces[id] = e
		st.active = append(st.active, id)
	case e.ring == st.recent:
		// A client reusing one trace id across requests (the CLI's
		// -trace flag stamps every verb) reopens the completed entry,
		// so the whole multi-request tree stays queryable as one trace.
		id := string(trace)
		st.recent.Delete(func(r string) bool { return r == id })
		e.ring = nil
		st.active = append(st.active, id)
	}
	// A span for a kept trace (e.g. a late child) joins it without
	// reopening it.
	if e.count() >= st.cfg.MaxSpans {
		e.dropped++
		return
	}
	e.raw = append(e.raw, line)
}

// completeLocked moves an active trace into a retention ring; the trace
// the ring laps to make room leaves the store. A completed trace's id is
// in exactly one ring, once, so the lapped id names no other trace.
// Caller holds st.mu.
func (st *SpanStore) completeLocked(id string, e *traceEntry, ring *Ring[string]) {
	st.active = slices.DeleteFunc(st.active, func(a string) bool { return a == id })
	e.ring = ring
	if old, lapped := ring.Push(id); lapped {
		delete(st.traces, old)
	}
}

// Complete records the tail decision for a finished trace: keep it
// when it was slow or errored, rotate it through the recent ring
// otherwise. The server calls this from the request-finish path with
// the whole request's duration and outcome. Nil-safe.
func (st *SpanStore) Complete(trace string, durUS int64, ok bool) {
	if st == nil || trace == "" {
		return
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	e := st.traces[trace]
	if e == nil || e.ring != nil {
		// Request produced no stored spans (tracing sink raced, or the
		// trace's spans were evicted); nothing to classify.
		return
	}
	e.durUS, e.ok = durUS, ok
	if !ok || durUS >= st.cfg.RetainOverUS {
		st.completeLocked(trace, e, st.kept)
	} else {
		st.completeLocked(trace, e, st.recent)
	}
}

// Query returns every stored span for a trace — active, kept, or
// recent — ordered by wall-clock start. Nil store or unknown trace
// returns nil. The slice is a copy; callers may keep it.
func (st *SpanStore) Query(trace string) []SpanRecord {
	if st == nil {
		return nil
	}
	st.mu.Lock()
	var out []SpanRecord
	if e := st.traces[trace]; e != nil {
		e.parseLocked(st.cfg.Proc)
		out = append([]SpanRecord(nil), e.spans...)
	}
	st.mu.Unlock()
	sort.SliceStable(out, func(i, j int) bool { return out[i].WallUS < out[j].WallUS })
	return out
}

// Traces returns the store's index — kept traces first (newest first),
// then recent, then active — capped at max rows (max <= 0 =
// everything). Nil-safe.
func (st *SpanStore) Traces(max int) []TraceSummary {
	if st == nil {
		return nil
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	out := make([]TraceSummary, 0, len(st.traces))
	add := func(id string, e *traceEntry) {
		e.parseLocked(st.cfg.Proc)
		out = append(out, summarize(id, e))
	}
	for _, ring := range []*Ring[string]{st.kept, st.recent} {
		ids, _ := ring.Since(0)
		for i := len(ids) - 1; i >= 0; i-- {
			add(ids[i], st.traces[ids[i]])
		}
	}
	for i := len(st.active) - 1; i >= 0; i-- {
		add(st.active[i], st.traces[st.active[i]])
	}
	if max > 0 && len(out) > max {
		out = out[:max]
	}
	return out
}

func summarize(id string, e *traceEntry) TraceSummary {
	s := TraceSummary{Trace: id, Spans: len(e.spans), DurUS: e.durUS, OK: e.ok, Done: e.ring != nil, Dropped: e.dropped}
	best := int64(-1)
	for i := range e.spans {
		if best == -1 || e.spans[i].WallUS < best {
			best = e.spans[i].WallUS
			s.Root = e.spans[i].Name
		}
	}
	return s
}

// ------------------------------------------------------------ assembly

// SpanNode is one span plus its resolved children — the assembled form
// of a trace tree.
type SpanNode struct {
	SpanRecord
	Children []*SpanNode `json:"children,omitempty"`
	// Orphan marks a node whose psid names a span nobody returned — the
	// explicit missing-subtree marker: the parent's process was down,
	// restarted, or past its retention window.
	Orphan bool `json:"orphan,omitempty"`
}

// BuildSpanTree assembles records (from any number of processes) into
// a forest: true roots first, then orphans — nodes whose parent span
// was never collected, surfaced as roots flagged Orphan rather than
// dropped, so a dead backend leaves a visible stump instead of a
// silently shorter tree. Duplicate sids (a span collected from two
// stores) collapse to one node. Children sort by wall-clock start.
func BuildSpanTree(records []SpanRecord) []*SpanNode {
	nodes := make(map[string]*SpanNode, len(records))
	var order []string
	for _, r := range records {
		if r.SID == "" {
			continue
		}
		if _, dup := nodes[r.SID]; dup {
			continue
		}
		nodes[r.SID] = &SpanNode{SpanRecord: r}
		order = append(order, r.SID)
	}
	var roots []*SpanNode
	for _, sid := range order {
		n := nodes[sid]
		if n.PSID == "" {
			roots = append(roots, n)
			continue
		}
		if p, ok := nodes[n.PSID]; ok {
			p.Children = append(p.Children, n)
		} else {
			n.Orphan = true
			roots = append(roots, n)
		}
	}
	var sortKids func(n *SpanNode)
	sortKids = func(n *SpanNode) {
		sort.SliceStable(n.Children, func(i, j int) bool {
			return n.Children[i].WallUS < n.Children[j].WallUS
		})
		for _, c := range n.Children {
			sortKids(c)
		}
	}
	for _, r := range roots {
		sortKids(r)
	}
	sort.SliceStable(roots, func(i, j int) bool {
		if roots[i].Orphan != roots[j].Orphan {
			return !roots[i].Orphan
		}
		return roots[i].WallUS < roots[j].WallUS
	})
	return roots
}

// WriteSpanTree renders an assembled forest as an indented text tree
// with per-span process, duration, and — when a child lives in a
// different process than its parent — the cross-process hop latency
// (child wall start minus parent wall start, the time the request spent
// getting onto the next box's runqueue).
func WriteSpanTree(w io.Writer, roots []*SpanNode) {
	for _, r := range roots {
		writeNode(w, r, nil, 0)
	}
}

func writeNode(w io.Writer, n *SpanNode, parent *SpanNode, depth int) {
	indent := strings.Repeat("  ", depth)
	mark := ""
	if n.Orphan {
		mark = fmt.Sprintf("  [missing subtree: parent span %s not collected]", n.PSID)
	}
	hop := ""
	if parent != nil && parent.Proc != n.Proc && parent.WallUS > 0 && n.WallUS > 0 {
		hop = fmt.Sprintf("  hop=%dus", n.WallUS-parent.WallUS)
	}
	attrs := ""
	if len(n.Attrs) > 0 {
		keys := make([]string, 0, len(n.Attrs))
		for k := range n.Attrs {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		parts := make([]string, len(keys))
		for i, k := range keys {
			parts[i] = fmt.Sprintf("%s=%v", k, n.Attrs[k])
		}
		attrs = "  {" + strings.Join(parts, " ") + "}"
	}
	fmt.Fprintf(w, "%s%-6s %s  %dus%s%s%s\n", indent, "["+n.Proc+"]", n.Name, n.DurUS, hop, attrs, mark)
	for _, c := range n.Children {
		writeNode(w, c, n, depth+1)
	}
}
