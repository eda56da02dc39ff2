package obs

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"
)

// Event is one notable operational incident — a rollback, a quarantine
// trip, a recovery, a watchdog cancel, an eviction, a WAL fallback.
// Telemetry.Event is its one recording site: the <prefix>_event_<type>
// counter says how often each type happens, and the event ring says
// which session, when, and why, for the most recent window of them.
type Event struct {
	// Seq is the event's number in the ring (1-based, never reused), so
	// pollers can ask "everything after the last seq I saw" and detect
	// gaps when the ring lapped them.
	Seq     uint64    `json:"seq"`
	TS      time.Time `json:"ts"`
	Type    string    `json:"type"`
	Session string    `json:"session,omitempty"`
	// Trace is the wire trace id of the request the event happened
	// under, when one was in flight — the pivot from a lifecycle event
	// to its assembled span tree.
	Trace string `json:"trace,omitempty"`
	Msg   string `json:"msg"`
}

// Event records one lifecycle incident, with the trace id it happened
// under ("" for none), everywhere it is kept: the event ring (the
// queryable recent history), the black-box ring (so a dump holds the
// event timeline interleaved with the spans), one info log line (the
// durable trail), and the <prefix>_event_<type> counter.
func (t *Telemetry) Event(typ, session, trace, msg string) {
	t.events.Push(Event{TS: time.Now(), Type: typ, Session: session, Trace: trace, Msg: msg})
	t.Flight.Note(typ, session, trace, msg)
	t.log.Info(msg, Str("event", typ), Str("session", session), Str("trace", trace))
	t.reg.Counter(t.prefix + "_event_" + typ).Inc()
}

// Events returns the retained events numbered after since, oldest
// first; Events(0) is every retained event. It is the read path behind
// the `events` verb and /eventsz of both daemons.
func (t *Telemetry) Events(since uint64) []Event {
	evs, first := t.events.Since(since)
	for i := range evs {
		evs[i].Seq = first + uint64(i)
	}
	return evs
}

// EventsVerb answers `events [since-seq]` for either daemon: the events
// after since-seq (all of them without an argument) as a text table and
// as JSON.
func (t *Telemetry) EventsVerb(args []string) (out string, data []byte, err error) {
	since := uint64(0)
	if len(args) > 0 {
		if since, err = strconv.ParseUint(args[0], 10, 64); err != nil {
			return "", nil, fmt.Errorf("events [since-seq]: %w", err)
		}
	}
	evs := t.Events(since)
	var b strings.Builder
	for _, e := range evs {
		fmt.Fprintf(&b, "  #%-5d %s  %-16s %-12s %s",
			e.Seq, e.TS.Format("15:04:05.000"), e.Type, e.Session, e.Msg)
		if e.Trace != "" {
			fmt.Fprintf(&b, " [trace %s]", e.Trace)
		}
		b.WriteString("\n")
	}
	if len(evs) == 0 {
		b.WriteString("  (no events)\n")
	}
	data, _ = json.Marshal(evs)
	return b.String(), data, nil
}

// handleEventsz is /eventsz: the events as JSON, ?since=seq as in the
// verb.
func (t *Telemetry) handleEventsz(w http.ResponseWriter, r *http.Request) {
	since := uint64(0)
	if v := r.URL.Query().Get("since"); v != "" {
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			http.Error(w, fmt.Sprintf("bad since: %v", err), http.StatusBadRequest)
			return
		}
		since = n
	}
	body, _ := json.Marshal(t.Events(since))
	w.Header().Set("Content-Type", "application/json")
	w.Write(append(body, '\n'))
}
