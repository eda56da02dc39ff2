package server_test

import (
	"bytes"
	"encoding/json"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"livesim/internal/faultinject"
	"livesim/internal/obs"
	"livesim/internal/server"
	"livesim/internal/server/client"
)

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

// eventFixture is one livesimd whose registry and log outlive it, so a
// row can restart it on the same state dir; stop stops the latest.
type eventFixture struct {
	cfg  server.Config
	sock string
	stop func() error
	c    *client.Client
}

// TestEventRecordedOnce: each lifecycle occurrence has one recording
// site, Telemetry.Event. Its server_event_<type> counter rises by one,
// and the log receives exactly one line for it.
func TestEventRecordedOnce(t *testing.T) {
	// Registered before any server starts, so the restore runs after they stop.
	t.Cleanup(server.SetBreakerThreshold(1))
	edited := strings.Replace(tinyDesign, "total + d", "total + d + 1", 1)
	for _, tc := range []struct {
		typ   string
		cfg   server.Config
		setup func(t *testing.T, fx *eventFixture)
		act   func(t *testing.T, fx *eventFixture)
	}{
		{typ: "session_created", act: func(t *testing.T, fx *eventFixture) { createTiny(t, fx.c, "e0", 25) }},
		{typ: "session_closed",
			setup: func(t *testing.T, fx *eventFixture) { createTiny(t, fx.c, "e0", 25) },
			act: func(t *testing.T, fx *eventFixture) {
				mustOK(t, fx.c, &server.Request{Session: "e0", Verb: "close"})
			}},
		{typ: "eviction", cfg: server.Config{IdleTimeout: 100 * time.Millisecond},
			act: func(t *testing.T, fx *eventFixture) { createTiny(t, fx.c, "e0", 25) }},
		{typ: "quarantine_trip",
			setup: func(t *testing.T, fx *eventFixture) { createTiny(t, fx.c, "e0", 25) },
			act: func(t *testing.T, fx *eventFixture) {
				if resp, err := fx.c.Do(&server.Request{Session: "e0", Verb: "testpanic"}); err != nil || resp.OK {
					t.Fatalf("testpanic: %+v, %v; want a failure", resp, err)
				}
			}},
		{typ: "rollback", cfg: server.Config{Faults: faultinject.New().FailReload("accum", 1)},
			setup: func(t *testing.T, fx *eventFixture) { createTiny(t, fx.c, "e0", 25) },
			act: func(t *testing.T, fx *eventFixture) {
				resp, err := fx.c.Do(&server.Request{Session: "e0", Verb: "apply", Files: map[string]string{"top.v": edited}})
				if err != nil || resp.OK || !strings.Contains(resp.Output, "rolled back") {
					t.Fatalf("apply: %+v, %v; want a rolled-back change", resp, err)
				}
			}},
		{typ: "recovery",
			setup: func(t *testing.T, fx *eventFixture) {
				createTiny(t, fx.c, "e0", 25)
				mustOK(t, fx.c, &server.Request{Session: "e0", Verb: "run", Args: []string{"clock", "p0", "30"}})
				if err := fx.stop(); err != nil {
					t.Fatal(err)
				}
			},
			act: func(t *testing.T, fx *eventFixture) {
				var srv *server.Server
				srv, fx.stop = startServerOn(t, fx.cfg, fx.sock)
				srv.WaitRecovered()
				// Served, not only recovered: stopping a server whose Serve has
				// not begun is an error of its own.
				c := dial(t, "unix:"+fx.sock)
				if out := mustOK(t, c, &server.Request{Session: "e0", Verb: "cycle", Args: []string{"p0"}}).Output; !strings.Contains(out, "30") {
					t.Errorf("cycle after recovery: %q", out)
				}
			}},
	} {
		t.Run(tc.typ, func(t *testing.T) {
			dir := shortDir(t)
			logs := &logSink{}
			cfg := tc.cfg
			cfg.StateDir = filepath.Join(dir, "state")
			cfg.Metrics = obs.NewRegistry()
			cfg.Log = obs.NewLogger(logs, obs.LevelInfo)
			if cfg.Faults == nil {
				cfg.Faults = faultinject.New()
			}
			cfg.Faults.ForceDiskFree(50, 100) // the host's free space must not move the disk rung
			fx := &eventFixture{cfg: cfg, sock: filepath.Join(dir, "d.sock")}
			_, fx.stop = startServerOn(t, cfg, fx.sock)
			t.Cleanup(func() { fx.stop() })
			fx.c = dial(t, "unix:"+fx.sock)
			if tc.setup != nil {
				tc.setup(t, fx)
			}
			counter := cfg.Metrics.Counter("server_event_" + tc.typ)
			before, lines := counter.Value(), logs.eventLines(tc.typ)
			tc.act(t, fx)
			for deadline := time.Now().Add(10 * time.Second); counter.Value() == before; time.Sleep(5 * time.Millisecond) {
				if time.Now().After(deadline) {
					t.Fatalf("server_event_%s never rose from %d", tc.typ, before)
				}
			}
			if n := counter.Value(); n != before+1 {
				t.Errorf("server_event_%s = %d, want %d", tc.typ, n, before+1)
			}
			if n := logs.eventLines(tc.typ) - lines; n != 1 {
				t.Errorf("%d log lines for one %s event, want 1", n, tc.typ)
			}
		})
	}
}
