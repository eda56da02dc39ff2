package obs

import (
	"bytes"
	"io"
	"strings"
	"testing"
	"time"
)

// storeSink feeds a store through the line writer the telemetry
// attaches to every span fanout.
func storeSink(st *SpanStore) io.Writer { return &lineWriter{fn: st.ingest} }

// feedSpans runs a tracer whose sink is the store and emits one small
// tree under the given trace id.
func feedSpans(t *testing.T, st *SpanStore, trace string) {
	t.Helper()
	tr := NewTracer(storeSink(st))
	root := tr.StartRemote(trace, "", "request")
	child := root.Child("exec")
	child.End()
	root.End()
}

func TestSpanStoreTailRetention(t *testing.T) {
	st := NewSpanStore(SpanStoreConfig{Proc: "p1", Recent: 2, RetainOverUS: 1_000_000})

	// Fast + OK: rotates through the recent ring.
	feedSpans(t, st, "aaaaaaaaaaaaaaa1")
	st.Complete("aaaaaaaaaaaaaaa1", 10, true)
	if got := st.Query("aaaaaaaaaaaaaaa1"); len(got) != 2 {
		t.Fatalf("recent trace: got %d spans, want 2", len(got))
	}

	// Errored: retained regardless of duration.
	feedSpans(t, st, "aaaaaaaaaaaaaaa2")
	st.Complete("aaaaaaaaaaaaaaa2", 10, false)

	// Slow: retained past the threshold.
	feedSpans(t, st, "aaaaaaaaaaaaaaa3")
	st.Complete("aaaaaaaaaaaaaaa3", 2_000_000, true)

	// Two more fast traces evict trace 1 from the 2-deep recent ring.
	feedSpans(t, st, "aaaaaaaaaaaaaaa4")
	st.Complete("aaaaaaaaaaaaaaa4", 10, true)
	feedSpans(t, st, "aaaaaaaaaaaaaaa5")
	st.Complete("aaaaaaaaaaaaaaa5", 10, true)

	if got := st.Query("aaaaaaaaaaaaaaa1"); got != nil {
		t.Fatalf("fast trace should have rotated out, still has %d spans", len(got))
	}
	if got := st.Query("aaaaaaaaaaaaaaa2"); len(got) != 2 {
		t.Fatalf("errored trace dropped: got %d spans, want 2", len(got))
	}
	if got := st.Query("aaaaaaaaaaaaaaa3"); len(got) != 2 {
		t.Fatalf("slow trace dropped: got %d spans, want 2", len(got))
	}

	sums := st.Traces(0)
	if len(sums) == 0 {
		t.Fatal("Traces returned empty index")
	}
	var sawSlow bool
	for _, s := range sums {
		if s.Trace == "aaaaaaaaaaaaaaa3" {
			sawSlow = true
			if !s.Done || s.DurUS != 2_000_000 {
				t.Fatalf("slow trace summary wrong: %+v", s)
			}
		}
	}
	if !sawSlow {
		t.Fatal("slow trace missing from index")
	}
}

func TestSpanStorePerTraceCap(t *testing.T) {
	st := NewSpanStore(SpanStoreConfig{Proc: "p1", MaxSpans: 3})
	tr := NewTracer(storeSink(st))
	root := tr.StartRemote("bbbbbbbbbbbbbbb1", "", "request")
	for i := 0; i < 10; i++ {
		root.Child("exec").End()
	}
	root.End()
	if got := st.Query("bbbbbbbbbbbbbbb1"); len(got) != 3 {
		t.Fatalf("per-trace cap: got %d spans, want 3", len(got))
	}
	if sums := st.Traces(0); len(sums) != 1 || sums[0].Dropped != 8 {
		t.Fatalf("index must count the 8 spans over the cap: %+v", sums)
	}
}

func TestSpanStoreNilSafe(t *testing.T) {
	var st *SpanStore
	st.ingest([]byte(`{"ev":"span","sid":"a-1","trace":"t"}`))
	st.Complete("t", 1, true)
	if st.Query("t") != nil || st.Traces(0) != nil {
		t.Fatal("nil store leaked data")
	}
}

func TestBuildSpanTreeCrossProcess(t *testing.T) {
	// Simulate gateway -> backend: backend's root psid names a gateway
	// span collected from another store.
	recs := []SpanRecord{
		{Trace: "t", SID: "gw-1", Name: "request", Proc: "lsgate", WallUS: 100, DurUS: 500},
		{Trace: "t", SID: "gw-2", PSID: "gw-1", Name: "forward", Proc: "lsgate", WallUS: 120, DurUS: 400},
		{Trace: "t", SID: "be-1", PSID: "gw-2", Name: "request", Proc: "livesimd", WallUS: 150, DurUS: 300},
		{Trace: "t", SID: "be-2", PSID: "be-1", Name: "exec", Proc: "livesimd", WallUS: 160, DurUS: 250},
	}
	roots := BuildSpanTree(recs)
	if len(roots) != 1 || roots[0].SID != "gw-1" {
		t.Fatalf("want single root gw-1, got %+v", roots)
	}
	fwd := roots[0].Children[0]
	if fwd.SID != "gw-2" || len(fwd.Children) != 1 || fwd.Children[0].SID != "be-1" {
		t.Fatalf("cross-process linkage broken: %+v", fwd)
	}

	var buf bytes.Buffer
	WriteSpanTree(&buf, roots)
	out := buf.String()
	if !strings.Contains(out, "lsgate") || !strings.Contains(out, "livesimd") {
		t.Fatalf("rendered tree missing process names:\n%s", out)
	}
	if !strings.Contains(out, "hop=30us") {
		t.Fatalf("rendered tree missing hop latency:\n%s", out)
	}
}

func TestBuildSpanTreeMissingSubtree(t *testing.T) {
	// The gateway span survives but the backend's parent (gw-2, the
	// forward span) was never collected — e.g. the gateway restarted.
	// The backend subtree must surface as an orphan root, not vanish.
	recs := []SpanRecord{
		{Trace: "t", SID: "be-1", PSID: "gw-2", Name: "request", Proc: "livesimd", WallUS: 150, DurUS: 300},
		{Trace: "t", SID: "be-2", PSID: "be-1", Name: "exec", Proc: "livesimd", WallUS: 160, DurUS: 250},
	}
	roots := BuildSpanTree(recs)
	if len(roots) != 1 || !roots[0].Orphan || roots[0].SID != "be-1" {
		t.Fatalf("want one orphan root be-1, got %+v", roots)
	}
	var buf bytes.Buffer
	WriteSpanTree(&buf, roots)
	if !strings.Contains(buf.String(), "missing subtree") {
		t.Fatalf("orphan marker missing:\n%s", buf.String())
	}
}

func TestBuildSpanTreeDedup(t *testing.T) {
	r := SpanRecord{Trace: "t", SID: "a-1", Name: "request", WallUS: 1}
	roots := BuildSpanTree([]SpanRecord{r, r, r})
	if len(roots) != 1 {
		t.Fatalf("duplicate sids not collapsed: %d roots", len(roots))
	}
}

func TestSpanStoreActiveEviction(t *testing.T) {
	st := NewSpanStore(SpanStoreConfig{Proc: "p1", MaxTraces: 2})
	feedSpans(t, st, "ccccccccccccccc1")
	feedSpans(t, st, "ccccccccccccccc2")
	feedSpans(t, st, "ccccccccccccccc3") // evicts trace 1
	if st.Query("ccccccccccccccc1") != nil {
		t.Fatal("oldest active trace not evicted")
	}
	if st.Query("ccccccccccccccc3") == nil {
		t.Fatal("newest trace missing")
	}
}

func TestSpanStoreWallClockOrdering(t *testing.T) {
	st := NewSpanStore(SpanStoreConfig{Proc: "p1"})
	tr := NewTracer(storeSink(st))
	root := tr.StartRemote("ddddddddddddddd1", "", "request")
	time.Sleep(2 * time.Millisecond)
	c1 := root.Child("first")
	time.Sleep(2 * time.Millisecond)
	c2 := root.Child("second")
	c2.End()
	c1.End() // ends after c2 — emission order differs from start order
	root.End()
	got := st.Query("ddddddddddddddd1")
	if len(got) != 3 {
		t.Fatalf("got %d spans, want 3", len(got))
	}
	var names []string
	for _, r := range got {
		names = append(names, r.Name)
	}
	if names[0] != "request" || names[1] != "first" || names[2] != "second" {
		t.Fatalf("spans not wall-clock ordered: %v", names)
	}
}

// TestSpanStoreReopenRecent: a client stamping one trace id on several
// sequential requests (the CLI -trace flag) must end up with ONE
// queryable trace holding all of them — the recent-ring entry reopens
// instead of being shadowed by a fresh active entry.
func TestSpanStoreReopenRecent(t *testing.T) {
	st := NewSpanStore(SpanStoreConfig{Proc: "p"})
	line := func(sid, name string) {
		st.ingest([]byte(`{"ev":"span","sid":"` + sid + `","trace":"tr","name":"` + name + `","wall_us":1}`))
	}
	line("a-1", "first")
	st.Complete("tr", 10, true) // fast success -> recent ring
	line("a-2", "second")       // same trace id, next request
	st.Complete("tr", 10, true)
	recs := st.Query("tr")
	if len(recs) != 2 {
		t.Fatalf("want both requests' spans under one trace, got %d: %+v", len(recs), recs)
	}
	sums := st.Traces(10)
	n := 0
	for _, s := range sums {
		if s.Trace == "tr" {
			n++
		}
	}
	if n != 1 {
		t.Fatalf("trace listed %d times in index, want 1", n)
	}
}

// TestSpanStoreEscapedTraceIDs: a client-sent trace id that JSON
// escapes is stored under the id itself, so it is queryable and
// Complete closes it.
func TestSpanStoreEscapedTraceIDs(t *testing.T) {
	st := NewSpanStore(SpanStoreConfig{Proc: "p"})
	for _, id := range []string{`a"b`, "a<b>", "tab\tid", `a\b`, `q\"`} {
		feedSpans(t, st, id)
		if got := st.Query(id); len(got) != 2 || got[0].Trace != id {
			t.Fatalf("trace %q: got %d spans %+v, want 2", id, len(got), got)
		}
		st.Complete(id, 10, true)
		done := false
		for _, s := range st.Traces(0) {
			done = done || s.Trace == id && s.Done
		}
		if !done {
			t.Fatalf("trace %q not done after Complete: %+v", id, st.Traces(0))
		}
	}
}

// TestSpanStoreReuseKeepsRecentDistinct: the recent ring holds the last
// Recent distinct traces, however often a client reuses one id — the
// reused trace moves up, it does not crowd the others out.
func TestSpanStoreReuseKeepsRecentDistinct(t *testing.T) {
	st := NewSpanStore(SpanStoreConfig{Proc: "p", Recent: 2})
	feedSpans(t, st, "aaaaaaaaaaaaaaa0")
	st.Complete("aaaaaaaaaaaaaaa0", 10, true)
	for i := 0; i < 5; i++ {
		feedSpans(t, st, "aaaaaaaaaaaaaaa1")
		st.Complete("aaaaaaaaaaaaaaa1", 10, true)
	}
	if got := st.Query("aaaaaaaaaaaaaaa0"); len(got) != 2 {
		t.Fatalf("a reused id crowded the other trace out: %d spans left, want 2", len(got))
	}
	if got := st.Query("aaaaaaaaaaaaaaa1"); len(got) != 10 {
		t.Fatalf("reused trace holds %d spans, want all 10", len(got))
	}
}

// TestSpanStoreOrderBounded: Complete must remove the trace id from
// the active eviction order — before the fix, it grew by one string per
// completed request forever (an unbounded leak in every long-running
// daemon) and held stale ids that corrupted eviction order for reopened
// traces. Completed traces are held only while their ring keeps them.
func TestSpanStoreOrderBounded(t *testing.T) {
	st := NewSpanStore(SpanStoreConfig{Proc: "p", MaxTraces: 8, Recent: 4})
	for i := 0; i < 100; i++ {
		id := string(rune('a'+i%26)) + "aaaaaaaaaaaaaa" + string(rune('0'+i%10))
		feedSpans(t, st, id)
		st.Complete(id, 10, true)
	}
	st.mu.Lock()
	nActive, held := len(st.active), len(st.traces)
	st.mu.Unlock()
	if nActive != 0 {
		t.Fatalf("all traces completed but %d ids still in the active order", nActive)
	}
	if held != 4 {
		t.Fatalf("store holds %d traces, want the 4 the recent ring keeps", held)
	}
}

// TestSpanStoreSlowTraceOutlivesChurn: a request in flight keeps its
// trace however many fast requests start and finish meanwhile, so the
// tail decision at its end still has the whole tree to keep.
func TestSpanStoreSlowTraceOutlivesChurn(t *testing.T) {
	st := NewSpanStore(SpanStoreConfig{Proc: "p", MaxTraces: 4, Recent: 2, RetainOverUS: 1000})
	slow := "fffffffffffffff0"
	feedSpans(t, st, slow)
	for i := 0; i < 50; i++ {
		id := "fffffffffffff" + string(rune('a'+i%26)) + string(rune('a'+i/26)) + "1"
		feedSpans(t, st, id)
		st.Complete(id, 10, true)
	}
	st.Complete(slow, 5000, true)
	if got := st.Query(slow); len(got) != 2 {
		t.Fatalf("slow trace lost to churn: %d spans, want 2", len(got))
	}
	if sums := st.Traces(1); len(sums) != 1 || sums[0].Trace != slow || !sums[0].Done {
		t.Fatalf("kept slow trace not first in the index: %+v", sums)
	}
}

// TestSpanStoreChunkedWrite: a buffered upstream writer may split one
// JSONL line across Write calls. The store must hold the unterminated
// tail until its newline arrives instead of storing a truncated span.
func TestSpanStoreChunkedWrite(t *testing.T) {
	full := `{"ev":"span","sid":"a-1","trace":"eeeeeeeeeeeeeee1","name":"request","wall_us":1,"dur_us":42}` + "\n"
	for i := 1; i < len(full)-1; i += 7 { // several split points, incl. mid-key
		st := NewSpanStore(SpanStoreConfig{Proc: "p"})
		w := storeSink(st)
		w.Write([]byte(full[:i]))
		w.Write([]byte(full[i:]))
		recs := st.Query("eeeeeeeeeeeeeee1")
		if len(recs) != 1 {
			t.Fatalf("split at %d: got %d spans, want 1", i, len(recs))
		}
		if recs[0].Name != "request" || recs[0].DurUS != 42 {
			t.Fatalf("split at %d stored truncated span: %+v", i, recs[0])
		}
	}
}

// TestFlightRecorderChunkedWrite: same contract for the ring — a line
// split across Write calls lands as one intact line, not two fragments.
func TestFlightRecorderChunkedWrite(t *testing.T) {
	fl := NewFlightRecorder("p", 8)
	w := &lineWriter{fn: fl.record}
	w.Write([]byte(`{"ev":"note","msg":"hal`))
	w.Write([]byte(`f"}` + "\n"))
	if fl.Writes() != 1 {
		t.Fatalf("split line recorded as %d lines, want 1", fl.Writes())
	}
	var buf bytes.Buffer
	fl.Dump(&buf, "test")
	if !strings.Contains(buf.String(), `{"ev":"note","msg":"half"}`) {
		t.Fatalf("reassembled line missing or truncated:\n%s", buf.String())
	}
}

// TestSpanStoreThroughFanout: the telemetry attaches one line writer to
// a tracer's Fanout, which detaches any sink reporting a short write —
// so Write must report the full input length even though it consumes
// its argument while splitting lines. A regression here silently drops
// every span after the first, from the store and the ring alike.
func TestSpanStoreThroughFanout(t *testing.T) {
	tel := NewTelemetry(TelemetryConfig{}, "p", nil, 0, nil, "", nil)
	fan := NewFanout()
	tel.AttachSinks(fan)
	tr := NewTracer(fan)
	sp := tr.StartRemote("feedfacefeedface", "", "request")
	sp.Child("inner").End()
	sp.End()
	if fan.Len() != 1 {
		t.Fatalf("want the one line writer attached, %d sinks", fan.Len())
	}
	if got := tel.Store.Query("feedfacefeedface"); len(got) != 2 {
		t.Fatalf("want 2 spans through the fanout, got %d", len(got))
	}
	if tel.Flight.Writes() != 2 {
		t.Fatalf("want 2 flight-recorder lines, got %d", tel.Flight.Writes())
	}
}

// Benchmarks isolating what the always-on trace plane adds to one span
// end: bare = marshal + fanout with no sinks (the cost every arm pays),
// stored = the same with a SpanStore and FlightRecorder attached. The
// delta is the per-span price of leaving the plane on — it must stay
// microseconds, far below any request the store would ever record.
func BenchmarkSpanEndBare(b *testing.B) {
	tr := NewTracer(NewFanout())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr.StartRemote("deadbeefcafe0001", "", "bench", Str("verb", "apply")).End()
	}
}

func BenchmarkSpanEndStored(b *testing.B) {
	tel := NewTelemetry(TelemetryConfig{ProcName: "bench"}, "bench", nil, 0, nil, "", nil)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tel.Tracer.StartRemote("deadbeefcafe0001", "", "bench", Str("verb", "apply")).End()
		if i%256 == 255 {
			// Rotate the trace through Complete the way a request finish
			// would, so the entry never hits its per-trace span cap.
			tel.Store.Complete("deadbeefcafe0001", 100, true)
		}
	}
}
