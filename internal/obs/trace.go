package obs

import (
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
	"unicode/utf8"
)

// Tracer records nested timed spans — one tree per trip around the live
// loop — and emits each completed span as one JSON line on its sink:
//
//	{"ev":"span","id":4,"parent":1,"sid":"a1b2c3d4-4","psid":"a1b2c3d4-1",
//	 "trace":"9f86d081884c7d65","name":"codegen","start_us":182,"dur_us":913,
//	 "wall_us":1723111845123456,"attrs":{"version":"v1","cycle":2000}}
//
// start_us is microseconds since the tracer was created, so a trace file
// is self-contained and diffable; wall_us is the span's start as unix
// microseconds, the clock that lines spans up across processes. A Tracer
// with a nil sink still times spans (the session derives its
// ChangeReport breakdown from them); a nil *Tracer hands out nil spans,
// and every Span method is a no-op on a nil receiver.
//
// The trace field correlates spans across tracers: the server stamps
// each request span with the client's wire TraceID (StartRemote), sets
// the same id as the session tracer's implicit trace (SetTraceContext)
// for the duration of the request, and every span the live loop starts
// inherits it — one hot reload reads as a single tree from client call
// to verify completion even though the request span and the live-loop
// spans come from different tracers.
//
// sid/psid are the distributed span context: sid is the span's globally
// unique id (a per-tracer random prefix plus the local counter), psid
// its parent's. A root span's psid can name a span in ANOTHER process —
// StartRemote accepts the parent sid a wire request carried — which is
// what lets a SpanStore reassemble one gateway→backend→standby tree
// from the per-process JSONL streams.
type Tracer struct {
	mu     sync.Mutex
	sink   io.Writer
	prefix string // random per-tracer sid prefix; makes sids globally unique
	nextID atomic.Uint64
	epoch  time.Time
	trace  atomic.Value // traceCtx: implicit context for new root spans
}

// traceCtx is the implicit (trace id, remote parent sid) pair root spans
// inherit between SetTraceContext calls.
type traceCtx struct {
	trace  string
	parent string
}

// NewTraceID returns a random 16-hex-character trace id — what clients
// stamp on wire requests. Collisions across a daemon's lifetime are
// vanishingly unlikely (64 random bits).
func NewTraceID() string {
	var b [8]byte
	rand.Read(b[:]) // never fails on supported platforms
	return hex.EncodeToString(b[:])
}

// NewTracer returns a tracer writing JSONL span events to sink (nil sink
// = time spans but emit nothing).
func NewTracer(sink io.Writer) *Tracer {
	var b [4]byte
	rand.Read(b[:]) // never fails on supported platforms
	return &Tracer{sink: sink, prefix: hex.EncodeToString(b[:]), epoch: time.Now()}
}

// Attr is one key/value annotation on a span.
type Attr struct {
	Key string
	Val any
}

// Str, U64 and Bool build span attributes.
func Str(k, v string) Attr        { return Attr{k, v} }
func U64(k string, v uint64) Attr { return Attr{k, v} }
func Bool(k string, v bool) Attr  { return Attr{k, v} }

// Span is one timed phase. Spans are owned by one goroutine at a time;
// End may happen on a different goroutine than Start as long as the
// handoff happens-before.
type Span struct {
	tr     *Tracer
	id     uint64
	parent uint64 // 0 = root
	sid    string // formatted on first SID(), "" until then
	remote string // parent sid in another process (roots only), "" = none
	trace  string // wire trace id, "" = uncorrelated
	name   string
	start  time.Time
	dur    time.Duration
	attrs  []Attr
	ended  bool
}

// SID returns the span's globally unique id ("" on nil) — what callers
// put in a wire request's pspan field so the receiver's request span
// parents here. It is formatted on first use and kept.
func (s *Span) SID() string {
	if s == nil {
		return ""
	}
	if s.sid == "" {
		var b [32]byte
		s.sid = string(s.tr.appendSID(b[:0], s.id))
	}
	return s.sid
}

func (t *Tracer) appendSID(b []byte, id uint64) []byte {
	b = append(append(b, t.prefix...), '-')
	return strconv.AppendUint(b, id, 16)
}

// SetTraceContext sets the implicit (trace id, remote parent sid) pair
// inherited by root spans started after this call. The session worker
// brackets each request with SetTraceContext(trace, requestSpanSID) /
// SetTraceContext("", "") so live-loop spans parent under the request
// span in the assembled tree instead of floating as orphan roots.
// Nil-safe.
func (t *Tracer) SetTraceContext(trace, parentSID string) {
	if t != nil {
		t.trace.Store(traceCtx{trace: trace, parent: parentSID})
	}
}

func (t *Tracer) curCtx() traceCtx {
	if t == nil {
		return traceCtx{}
	}
	if v := t.trace.Load(); v != nil {
		return v.(traceCtx)
	}
	return traceCtx{}
}

// Start begins a root span (a nil tracer returns a nil span), carrying
// the tracer's implicit trace context if one is set.
func (t *Tracer) Start(name string, attrs ...Attr) *Span {
	ctx := t.curCtx()
	return t.StartRemote(ctx.trace, ctx.parent, name, attrs...)
}

// StartRemote begins a root span bound to a wire trace id AND parented
// under a span in another process — parentSID is the pspan the request
// carried over the wire ("" = a true root). This is the receiving half
// of distributed span context: the gateway's forward span sid travels in
// the request, and the backend's request span starts here with it.
func (t *Tracer) StartRemote(trace, parentSID, name string, attrs ...Attr) *Span {
	sp := t.start(name, 0, attrs)
	if sp != nil {
		sp.trace = trace
		sp.remote = parentSID
	}
	return sp
}

func (t *Tracer) start(name string, parent uint64, attrs []Attr) *Span {
	if t == nil {
		return nil
	}
	return &Span{
		tr:     t,
		id:     t.nextID.Add(1),
		parent: parent,
		name:   name,
		start:  time.Now(),
		attrs:  attrs,
	}
}

// Child begins a span nested under s, inheriting its trace id (nil-safe:
// a nil span yields nil).
func (s *Span) Child(name string, attrs ...Attr) *Span {
	if s == nil {
		return nil
	}
	sp := s.tr.start(name, s.id, attrs)
	if sp != nil {
		sp.trace = s.trace
	}
	return sp
}

// Annotate attaches attributes to a not-yet-ended span.
func (s *Span) Annotate(attrs ...Attr) {
	if s == nil || s.ended {
		return
	}
	s.attrs = append(s.attrs, attrs...)
}

// End completes the span, fixing its duration and emitting its JSONL
// event. End is idempotent.
func (s *Span) End() {
	if s == nil || s.ended {
		return
	}
	s.ended = true
	s.dur = time.Since(s.start)
	s.tr.emit(s)
}

// Dur returns the span's duration (zero until End, zero on nil).
func (s *Span) Dur() time.Duration {
	if s == nil {
		return 0
	}
	return s.dur
}

func (t *Tracer) emit(s *Span) {
	if t.sink == nil {
		return
	}
	// A fresh buffer, not a pooled one: a pool measured slower end to end
	// (EXPERIMENTS.md, "Telemetry — span lines without reflection").
	line := t.appendSpan(make([]byte, 0, 384), s)
	t.mu.Lock()
	t.sink.Write(line)
	t.mu.Unlock()
}

// appendSpan writes s as one JSONL line: the fields SpanRecord reads, in
// this order, byte for byte what encoding/json writes for them with a
// map of the attrs (keys sorted, the last value of a repeated key
// kept). id/parent are the tracer-local numeric ids (kept for
// single-process trace files); sid/psid are the globally unique forms
// the fleet-wide assembler keys on. psid for a root span is the remote
// parent carried on the wire.
func (t *Tracer) appendSpan(b []byte, s *Span) []byte {
	b = append(b, `{"ev":"span","id":`...)
	b = strconv.AppendUint(b, s.id, 10)
	if s.parent != 0 {
		b = strconv.AppendUint(append(b, `,"parent":`...), s.parent, 10)
	}
	// Sids are a hex prefix, '-' and a hex counter: nothing to escape.
	b = append(b, `,"sid":"`...)
	if s.sid != "" {
		b = append(b, s.sid...)
	} else {
		b = t.appendSID(b, s.id)
	}
	b = append(b, '"')
	if s.parent != 0 {
		b = append(t.appendSID(append(b, `,"psid":"`...), s.parent), '"')
	} else if s.remote != "" {
		b = AppendJSONString(append(b, `,"psid":`...), s.remote)
	}
	if s.trace != "" {
		b = AppendJSONString(append(b, `,"trace":`...), s.trace)
	}
	b = AppendJSONString(append(b, `,"name":`...), s.name)
	b = strconv.AppendInt(append(b, `,"start_us":`...), s.start.Sub(t.epoch).Microseconds(), 10)
	b = strconv.AppendInt(append(b, `,"dur_us":`...), s.dur.Microseconds(), 10)
	if wall := s.start.UnixMicro(); wall != 0 {
		b = strconv.AppendInt(append(b, `,"wall_us":`...), wall, 10)
	}
	if len(s.attrs) > 0 {
		var sorted [8]Attr
		as := append(sorted[:0], s.attrs...)
		for i := 1; i < len(as); i++ { // stable, so equal keys keep call order
			for j := i; j > 0 && as[j].Key < as[j-1].Key; j-- {
				as[j], as[j-1] = as[j-1], as[j]
			}
		}
		b = append(b, `,"attrs":`...)
		sep := byte('{')
		for i, a := range as {
			if i+1 < len(as) && as[i+1].Key == a.Key {
				continue // a later value for the key wins
			}
			b = appendAttr(append(b, sep), a)
			sep = ','
		}
		b = append(b, '}')
	}
	return append(b, "}\n"...)
}

// AppendJSONString appends s as a JSON string exactly as encoding/json
// writes it: '"' and '\\' after a backslash, \b \f \n \r \t short, any
// other control byte and '<', '>', '&' as \u00XX, an invalid UTF-8 byte
// as \ufffd, U+2028 and U+2029 as \u2028 and \u2029, and the rest as
// is. Span and log lines, wire envelopes and journal records all write
// their strings through it.
func AppendJSONString(b []byte, s string) []byte {
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			if jsonPlain[c] {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '"', '\\':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xf])
			}
			i++
			start = i
			continue
		}
		r, n := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && n == 1:
			b = append(append(b, s[start:i]...), `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(append(b, s[start:i]...), '\\', 'u', '2', '0', '2', hexDigits[r&0xf])
		default:
			i += n
			continue
		}
		i += n
		start = i
	}
	return append(append(b, s[start:]...), '"')
}

const hexDigits = "0123456789abcdef"

// jsonPlain marks the ASCII bytes AppendJSONString copies as they are.
var jsonPlain = func() (t [utf8.RuneSelf]bool) {
	for c := ' '; c < utf8.RuneSelf; c++ {
		t[c] = c != '"' && c != '\\' && c != '<' && c != '>' && c != '&'
	}
	return t
}()

// appendAttr appends a as a JSON object member, "key":value. string,
// uint64 and bool values are written directly and any other through
// encoding/json; one it cannot encode is written as its quoted
// fmt.Sprint form rather than lose the line.
func appendAttr(b []byte, a Attr) []byte {
	b = append(AppendJSONString(b, a.Key), ':')
	switch v := a.Val.(type) {
	case string:
		return AppendJSONString(b, v)
	case uint64:
		return strconv.AppendUint(b, v, 10)
	case bool:
		return strconv.AppendBool(b, v)
	}
	data, err := json.Marshal(a.Val)
	if err != nil {
		return AppendJSONString(b, fmt.Sprint(a.Val))
	}
	return append(b, data...)
}
