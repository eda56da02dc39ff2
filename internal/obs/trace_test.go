package obs

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"
	"time"
)

// spanEvent is the span line as encoding/json writes it from a struct
// and a map of the attrs: the oracle appendSpan is held to, and the
// form tests decode lines into.
type spanEvent struct {
	Ev      string         `json:"ev"`
	ID      uint64         `json:"id"`
	Parent  uint64         `json:"parent,omitempty"`
	SID     string         `json:"sid,omitempty"`
	PSID    string         `json:"psid,omitempty"`
	Trace   string         `json:"trace,omitempty"`
	Name    string         `json:"name"`
	StartUS int64          `json:"start_us"`
	DurUS   int64          `json:"dur_us"`
	WallUS  int64          `json:"wall_us,omitempty"`
	Attrs   map[string]any `json:"attrs,omitempty"`
}

// decodeSpans parses a JSONL trace back into events.
func decodeSpans(t *testing.T, data []byte) []spanEvent {
	t.Helper()
	var evs []spanEvent
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		if line == "" {
			continue
		}
		var ev spanEvent
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("bad trace line %q: %v", line, err)
		}
		evs = append(evs, ev)
	}
	return evs
}

func TestTracerSpanTree(t *testing.T) {
	var buf bytes.Buffer
	tr := NewTracer(&buf)
	root := tr.Start("apply_change", Str("version", "v1"))
	child := root.Child("compile")
	grand := child.Child("parse", U64("cycle", 2000))
	grand.End()
	child.End()
	root.Annotate(Bool("no_change", false))
	root.End()

	evs := decodeSpans(t, buf.Bytes())
	if len(evs) != 3 {
		t.Fatalf("got %d events, want 3: %+v", len(evs), evs)
	}
	// Spans emit at End, so leaf-first order.
	byName := map[string]spanEvent{}
	for _, ev := range evs {
		if ev.Ev != "span" {
			t.Errorf("event type %q", ev.Ev)
		}
		byName[ev.Name] = ev
	}
	if byName["parse"].Parent != byName["compile"].ID {
		t.Errorf("parse parent = %d, compile id = %d", byName["parse"].Parent, byName["compile"].ID)
	}
	if byName["compile"].Parent != byName["apply_change"].ID {
		t.Errorf("compile parent = %d", byName["compile"].Parent)
	}
	if byName["apply_change"].Parent != 0 {
		t.Errorf("root has parent %d", byName["apply_change"].Parent)
	}
	if v := byName["parse"].Attrs["cycle"]; v != float64(2000) {
		t.Errorf("parse cycle attr = %v", v)
	}
	if v := byName["apply_change"].Attrs["no_change"]; v != false {
		t.Errorf("annotated attr = %v", v)
	}
}

func TestSpanContextSIDs(t *testing.T) {
	var buf bytes.Buffer
	tr := NewTracer(&buf)
	root := tr.StartRemote("deadbeefdeadbeef", "", "request")
	rootSID := root.SID()
	if rootSID == "" || !strings.Contains(rootSID, "-") {
		t.Fatalf("SID = %q, want prefix-hexid", rootSID)
	}
	child := root.Child("exec")
	childSID := child.SID()
	child.End()
	root.End()

	evs := decodeSpans(t, buf.Bytes())
	byName := map[string]spanEvent{}
	for _, ev := range evs {
		byName[ev.Name] = ev
	}
	if byName["request"].SID != rootSID {
		t.Errorf("emitted root sid %q != SID() %q", byName["request"].SID, rootSID)
	}
	if byName["request"].PSID != "" {
		t.Errorf("true root has psid %q", byName["request"].PSID)
	}
	if byName["exec"].SID != childSID || byName["exec"].PSID != rootSID {
		t.Errorf("child sid/psid = %q/%q, want %q/%q",
			byName["exec"].SID, byName["exec"].PSID, childSID, rootSID)
	}
	if byName["exec"].WallUS == 0 {
		t.Error("wall_us not stamped")
	}

	// Two tracers never collide on sids.
	tr2 := NewTracer(nil)
	if sp := tr2.Start("x"); strings.HasPrefix(sp.SID(), strings.SplitN(rootSID, "-", 2)[0]+"-") {
		t.Errorf("distinct tracers share sid prefix: %q vs %q", sp.SID(), rootSID)
	}
}

func TestStartRemoteParentsAcrossProcesses(t *testing.T) {
	var buf bytes.Buffer
	tr := NewTracer(&buf)
	sp := tr.StartRemote("deadbeefdeadbeef", "gw-7", "request")
	sp.End()
	evs := decodeSpans(t, buf.Bytes())
	if len(evs) != 1 || evs[0].PSID != "gw-7" || evs[0].Parent != 0 {
		t.Fatalf("remote-parented root wrong: %+v", evs)
	}
}

func TestSetTraceContextInheritance(t *testing.T) {
	var buf bytes.Buffer
	tr := NewTracer(&buf)
	tr.SetTraceContext("deadbeefdeadbeef", "req-3")
	sp := tr.Start("eval")
	sp.End()
	tr.SetTraceContext("", "")
	sp2 := tr.Start("idle")
	sp2.End()

	evs := decodeSpans(t, buf.Bytes())
	if evs[0].Trace != "deadbeefdeadbeef" || evs[0].PSID != "req-3" {
		t.Fatalf("inherited context wrong: %+v", evs[0])
	}
	if evs[1].Trace != "" || evs[1].PSID != "" {
		t.Fatalf("cleared context leaked: %+v", evs[1])
	}

	// An empty parent sid is the trace-only form.
	tr.SetTraceContext("feedfacefeedface", "")
	tr.Start("later").End()
	if evs = decodeSpans(t, buf.Bytes()); evs[2].Trace != "feedfacefeedface" || evs[2].PSID != "" {
		t.Fatalf("trace-only context wrong: %+v", evs[2])
	}
}

func TestTracerNilSinkStillTimes(t *testing.T) {
	tr := NewTracer(nil)
	sp := tr.Start("work")
	sp.End()
	if sp.Dur() < 0 {
		t.Errorf("negative duration %v", sp.Dur())
	}
	// End is idempotent.
	d := sp.Dur()
	sp.End()
	if sp.Dur() != d {
		t.Errorf("second End changed duration")
	}
}

func TestNilTracerAndSpan(t *testing.T) {
	var tr *Tracer
	sp := tr.Start("x")
	if sp != nil {
		t.Fatal("nil tracer returned non-nil span")
	}
	// All span ops must no-op on nil.
	sp.Annotate(Str("k", "v"))
	sp.End()
	if sp.Dur() != 0 {
		t.Error("nil span duration nonzero")
	}
	if c := sp.Child("y"); c != nil {
		t.Error("nil span child non-nil")
	}
}

// checkSpanLine fails t unless the tracer's line for s is
// json.Marshal(spanEvent) and a newline.
func checkSpanLine(t testing.TB, tr *Tracer, s *Span) {
	t.Helper()
	sid := func(id uint64) string { return tr.prefix + "-" + strconv.FormatUint(id, 16) }
	ev := spanEvent{Ev: "span", ID: s.id, Parent: s.parent, SID: sid(s.id), PSID: s.remote,
		Trace: s.trace, Name: s.name, StartUS: s.start.Sub(tr.epoch).Microseconds(),
		DurUS: s.dur.Microseconds(), WallUS: s.start.UnixMicro()}
	if s.parent != 0 {
		ev.PSID = sid(s.parent)
	}
	if len(s.attrs) > 0 {
		ev.Attrs = map[string]any{}
		for _, a := range s.attrs {
			ev.Attrs[a.Key] = a.Val
		}
	}
	want, err := json.Marshal(ev)
	if err != nil {
		t.Fatalf("oracle: %v", err)
	}
	want = append(want, '\n')
	if got := tr.appendSpan(nil, s); !bytes.Equal(got, want) {
		t.Fatalf("span line differs from encoding/json\n got %s\nwant %s", got, want)
	}
}

// oracleStrings holds every kind of string the encoder escapes
// differently: quotes, backslashes, HTML characters, control bytes,
// U+2028, invalid UTF-8 and non-ASCII text, beside plain ones.
var oracleStrings = []string{"", "request", "deadbeefdeadbeef", "verb", "k", `a"b`, `a\b`,
	"a<b", "b>c", "x&y", "tab\tid", "nl\n\r\b\f\x01\x1f", "sep\u2028\u2029", "bad\xffutf8\xc3", "naïve ü 日本", "\x7f"}

func TestSpanLineMatchesEncodingJSON(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	tr := NewTracer(nil)
	pick := func() string { return oracleStrings[rng.Intn(len(oracleStrings))] }
	for i := 0; i < 20000; i++ {
		s := &Span{tr: tr, id: rng.Uint64() >> rng.Intn(64), remote: pick(), trace: pick(), name: pick(),
			dur: time.Duration(rng.Int63n(1e10))}
		if rng.Intn(2) == 0 {
			s.parent = rng.Uint64() >> rng.Intn(64)
		}
		switch rng.Intn(8) {
		case 0: // the zero start time
		case 1:
			s.start = time.Unix(0, 0) // wall_us 0, omitted
		default:
			s.start = tr.epoch.Add(time.Duration(rng.Int63n(1e12)))
		}
		if rng.Intn(2) == 0 {
			s.SID() // the cached sid
		}
		for n := rng.Intn(11); n > 0; n-- { // past the 8 appendSpan sorts on the stack
			key := oracleStrings[rng.Intn(6)] // few keys, so they repeat
			switch rng.Intn(5) {
			case 0:
				s.attrs = append(s.attrs, Str(key, pick()))
			case 1:
				s.attrs = append(s.attrs, U64(key, rng.Uint64()>>rng.Intn(64)))
			case 2:
				s.attrs = append(s.attrs, Bool(key, rng.Intn(2) == 0))
			case 3:
				s.attrs = append(s.attrs, Attr{key, rng.Intn(2000) - 1000})
			case 4:
				s.attrs = append(s.attrs, Attr{key, rng.NormFloat64() * 1e6})
			}
		}
		checkSpanLine(t, tr, s)
	}
}

func FuzzSpanLine(f *testing.F) {
	for i, s := range oracleStrings {
		f.Add(s, oracleStrings[(i+5)%len(oracleStrings)], s, "verb", uint64(i), uint64(i*7919))
	}
	tr := NewTracer(nil)
	f.Fuzz(func(t *testing.T, name, trace, key, val string, parent, n uint64) {
		s := &Span{tr: tr, id: n + 1, parent: parent, remote: val, trace: trace, name: name,
			start: time.Now(), dur: time.Duration(n % 1e10),
			attrs: []Attr{Str(key, val), U64(val, n), Bool(name, n%2 == 0), Str(key, name)}}
		checkSpanLine(t, tr, s)
	})
}

// TestRequestSpanAllocs is the request path's span cost as a ceiling:
// the envelope's request span (two attrs, its sid read), two attrs
// annotated, and End into a Telemetry with span store and flight
// recorder on. The trace id is reused, so the store's entry for it is
// made once; 101 spans stay under the store's per-trace cap.
func TestRequestSpanAllocs(t *testing.T) {
	tel := NewTelemetry(TelemetryConfig{ProcName: "p"}, "p", nil, 0, nil, "", nil)
	defer tel.Stop()
	allocs := testing.AllocsPerRun(100, func() {
		sp := tel.Tracer.StartRemote("deadbeefcafe0001", "gw-7", "request", Str("verb", "run"), Str("session", "s1"))
		_ = sp.SID()
		sp.Annotate(U64("cycle", 4), Bool("ok", true))
		sp.End()
	})
	if allocs > 8 {
		t.Fatalf("request span: %.0f allocs, want at most 8", allocs)
	}
}

// TestSpanUnmarshalableAttr: a value encoding/json refuses is written as
// its quoted fmt.Sprint form, as the Logger writes it, and the span's
// line is not lost.
func TestSpanUnmarshalableAttr(t *testing.T) {
	var buf bytes.Buffer
	NewTracer(&buf).Start("x", Attr{"inf", math.Inf(1)}, U64("n", 1)).End()
	evs := decodeSpans(t, buf.Bytes())
	if len(evs) != 1 || evs[0].Attrs["inf"] != "+Inf" || evs[0].Attrs["n"] != float64(1) {
		t.Fatalf("want the line with inf as \"+Inf\", got %s", buf.Bytes())
	}
}
