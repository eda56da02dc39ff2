package gateway_test

import (
	"bytes"
	"encoding/json"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"livesim/internal/gateway"
	"livesim/internal/obs"
	"livesim/internal/server"
	"livesim/internal/server/client"
	"livesim/internal/wire"
)

// Every gateway event reaches the black box as well as the event ring,
// and the gateway's `events` verb takes the since-seq livesimd's does.
func TestGatewayEventsReachBlackBoxAndTakeSince(t *testing.T) {
	b := newTestBackend(t)
	g, gaddr := startGateway(t, gateway.Config{Backends: []gateway.BackendSpec{{Addr: b.addr()}}})
	waitUntil(t, 5*time.Second, "a backend_state event", func() bool {
		for _, e := range g.Events() {
			if e.Type == "backend_state" {
				return true
			}
		}
		return false
	})
	dump := adminGet(t, g.AdminHandler(), "/flightz").Body.String()
	if !strings.Contains(dump, `"type":"backend_state"`) {
		t.Fatalf("backend_state event missing from the black box:\n%s", dump)
	}

	c := dial(t, gaddr)
	evs := g.Events()
	last := strconv.FormatUint(evs[len(evs)-1].Seq, 10)
	if out := mustOK(t, c, &server.Request{Verb: "events"}).Output; !strings.Contains(out, "backend_state") {
		t.Fatalf("events = %q", out)
	}
	if out := mustOK(t, c, &server.Request{Verb: "events", Args: []string{last}}).Output; strings.Contains(out, "backend_state") {
		t.Fatalf("events %s repeated events already seen: %q", last, out)
	}
	resp, err := c.Do(&server.Request{Verb: "events", Args: []string{"soon"}})
	if err != nil || resp.OK || resp.Code != wire.CodeBadRequest {
		t.Fatalf("events soon = %+v, %v; want %s", resp, err, wire.CodeBadRequest)
	}
}

// logSink is a log destination a test reads while a daemon writes to it.
type logSink struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (l *logSink) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.buf.Write(p)
}

// eventLines counts the lines logged for events of type typ.
func (l *logSink) eventLines(typ string) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := 0
	for _, line := range bytes.Split(l.buf.Bytes(), []byte("\n")) {
		var f struct{ Event string }
		if json.Unmarshal(line, &f) == nil && f.Event == typ {
			n++
		}
	}
	return n
}

// TestGatewayEventRecordedOnce: a gateway event, as livesimd's, has one
// recording site: its gateway_event_<type> counter rises by one, and
// the log receives exactly one line for it.
func TestGatewayEventRecordedOnce(t *testing.T) {
	for _, tc := range []struct {
		typ   string
		setup func(t *testing.T, c *client.Client)
		act   func(t *testing.T, c *client.Client)
	}{
		{typ: "placed", act: func(t *testing.T, c *client.Client) { createTiny(t, c, "e0") }},
		{typ: "migrated",
			setup: func(t *testing.T, c *client.Client) { createTiny(t, c, "e0") },
			act: func(t *testing.T, c *client.Client) {
				mustOK(t, c, &server.Request{Session: "e0", Verb: "migrate"})
			}},
	} {
		t.Run(tc.typ, func(t *testing.T) {
			b0, b1 := newTestBackend(t), newTestBackend(t)
			reg, logs := obs.NewRegistry(), &logSink{}
			_, gaddr := startGateway(t, gateway.Config{
				Backends: []gateway.BackendSpec{{Addr: b0.addr()}, {Addr: b1.addr()}},
				Metrics:  reg,
				Log:      obs.NewLogger(logs, obs.LevelInfo),
			})
			c := dial(t, gaddr)
			if tc.setup != nil {
				tc.setup(t, c)
			}
			counter := reg.Counter("gateway_event_" + tc.typ)
			before, lines := counter.Value(), logs.eventLines(tc.typ)
			tc.act(t, c)
			if n := counter.Value(); n != before+1 {
				t.Errorf("gateway_event_%s = %d, want %d", tc.typ, n, before+1)
			}
			if n := logs.eventLines(tc.typ) - lines; n != 1 {
				t.Errorf("%d log lines for one %s event, want 1", n, tc.typ)
			}
		})
	}
}
