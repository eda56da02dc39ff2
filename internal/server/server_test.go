package server_test

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"livesim/internal/catalogue"
	"livesim/internal/checkpoint"
	"livesim/internal/command"
	"livesim/internal/faultinject"
	"livesim/internal/server"
	"livesim/internal/server/client"
	"livesim/internal/wire"
)

const tinyDesign = `
module accum (input clk, input en, input [15:0] d, output reg [31:0] total);
  always @(posedge clk) begin
    if (en) total <= total + d;
  end
endmodule

module top (input clk, input en, input [15:0] d, output [31:0] total);
  accum u0 (.clk(clk), .en(en), .d(d), .total(total));
endmodule
`

// Test-only session verbs: testblock parks the session worker until the
// gate opens (signalling entry first), testpanic exercises the worker's
// panic-to-error recovery. Registered once for this test binary.
var (
	gateMu  sync.Mutex
	gate    chan struct{}
	entered chan struct{}
)

func armGate() (enteredCh, gateCh chan struct{}) {
	gateMu.Lock()
	defer gateMu.Unlock()
	entered = make(chan struct{}, 8)
	gate = make(chan struct{})
	return entered, gate
}

func init() {
	catalogue.Register(&catalogue.Verb{
		Name: "testblock", Usage: "testblock", Help: "test: block the worker until the gate opens", Cost: 1, Shell: true,
		Run: func(_ *command.Env, _ []string) error {
			gateMu.Lock()
			e, g := entered, gate
			gateMu.Unlock()
			if e != nil {
				e <- struct{}{}
			}
			if g != nil {
				<-g
			}
			return nil
		},
	})
	catalogue.Register(&catalogue.Verb{
		Name: "testpanic", Usage: "testpanic", Help: "test: panic inside the worker", Cost: 1, Shell: true,
		Run: func(_ *command.Env, _ []string) error {
			panic("injected test panic")
		},
	})
}

// startServer runs a server on a unix socket and returns a dialer for it.
// Shutdown runs at cleanup (already-drained servers report an error,
// which is fine).
func startServer(t testing.TB, cfg server.Config) (*server.Server, string) {
	t.Helper()
	dir, err := os.MkdirTemp("", "lss") // short path: unix sockets cap ~104 bytes
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.RemoveAll(dir) })
	sock := filepath.Join(dir, "d.sock")
	ln, err := net.Listen("unix", sock)
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(cfg)
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
		if err := <-done; err != nil {
			t.Errorf("Serve returned %v", err)
		}
	})
	return srv, "unix:" + sock
}

func dial(t testing.TB, addr string) *client.Client {
	t.Helper()
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func mustOK(t testing.TB, c *client.Client, req *server.Request) *server.Response {
	t.Helper()
	resp, err := c.Do(req)
	if err != nil {
		t.Fatalf("%s %v: %v", req.Verb, req.Args, err)
	}
	if !resp.OK {
		t.Fatalf("%s %v: %s (%s)", req.Verb, req.Args, resp.Error, resp.Code)
	}
	return resp
}

func createTiny(t testing.TB, c *client.Client, name string, every uint64) {
	t.Helper()
	mustOK(t, c, &server.Request{Session: name, Verb: "create",
		Files: map[string]string{"top.v": tinyDesign}, Top: "top", CheckpointEvery: every})
	mustOK(t, c, &server.Request{Session: name, Verb: "instpipe", Args: []string{"p0"}})
}

// TestConcurrentClientsDisjointSessions is the acceptance race test: 8
// clients hammer disjoint sessions while a ninth repeatedly hot-reloads
// an edit into one of them. Each session's ops must serialize — the
// final cycle count is exact — and any rejection must be a clean typed
// backpressure error.
func TestConcurrentClientsDisjointSessions(t *testing.T) {
	_, addr := startServer(t, server.Config{QueueDepth: 8})

	// s0 exists up front so the applier has a target from the start.
	c0 := dial(t, addr)
	createTiny(t, c0, "s0", 25)

	edited := strings.Replace(tinyDesign, "total + d", "total + d + 1", 1)
	var wg sync.WaitGroup
	errs := make(chan error, 64)

	// doRetry tolerates (and counts) backpressure; anything else fails.
	doRetry := func(c *client.Client, req *server.Request) (*server.Response, error) {
		for {
			resp, err := c.Do(req)
			if err != nil {
				return nil, err
			}
			if !resp.OK && resp.Code == wire.CodeBackpressure {
				time.Sleep(2 * time.Millisecond)
				continue
			}
			return resp, nil
		}
	}

	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c := c0
			name := "s0"
			if i > 0 {
				c = dial(t, addr)
				name = fmt.Sprintf("s%d", i)
				mustOK(t, c, &server.Request{Session: name, Verb: "create",
					Files: map[string]string{"top.v": tinyDesign}, Top: "top", CheckpointEvery: 25})
				mustOK(t, c, &server.Request{Session: name, Verb: "instpipe", Args: []string{"p0"}})
			}
			for k := 0; k < 5; k++ {
				resp, err := doRetry(c, &server.Request{Session: name, Verb: "run", Args: []string{"clock", "p0", "10"}})
				if err != nil {
					errs <- fmt.Errorf("%s run: %w", name, err)
					return
				}
				if !resp.OK {
					errs <- fmt.Errorf("%s run: %s (%s)", name, resp.Error, resp.Code)
					return
				}
			}
			resp, err := doRetry(c, &server.Request{Session: name, Verb: "cycle", Args: []string{"p0"}})
			if err != nil {
				errs <- fmt.Errorf("%s cycle: %w", name, err)
				return
			}
			if !strings.Contains(resp.Output, "50 (version") {
				errs <- fmt.Errorf("%s: ops did not serialize, cycle output %q", name, resp.Output)
			}
		}(i)
	}

	// The applier hot-reloads s0 back and forth while client 0 runs it.
	wg.Add(1)
	go func() {
		defer wg.Done()
		ca := dial(t, addr)
		for k := 0; k < 3; k++ {
			files := map[string]string{"top.v": edited}
			if k%2 == 1 {
				files = map[string]string{"top.v": tinyDesign}
			}
			resp, err := doRetry(ca, &server.Request{Session: "s0", Verb: "apply", Files: files})
			if err != nil {
				errs <- fmt.Errorf("apply: %w", err)
				return
			}
			if !resp.OK {
				errs <- fmt.Errorf("apply: %s (%s)", resp.Error, resp.Code)
				return
			}
			if !strings.Contains(resp.Output, "swapped") {
				errs <- fmt.Errorf("apply output %q", resp.Output)
				return
			}
		}
	}()

	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestBackpressureRejectsCleanly parks the worker, fills the depth-1
// queue, and checks the next request is rejected immediately with the
// typed backpressure code — then everything accepted still completes.
func TestBackpressureRejectsCleanly(t *testing.T) {
	_, addr := startServer(t, server.Config{QueueDepth: 1})
	c := dial(t, addr)
	createTiny(t, c, "s", 100)
	mustOK(t, c, &server.Request{Session: "s", Verb: "run", Args: []string{"clock", "p0", "7"}})

	enteredCh, gateCh := armGate()
	type result struct {
		resp *server.Response
		err  error
	}
	blockRes := make(chan result, 1)
	go func() {
		resp, err := c.Do(&server.Request{Session: "s", Verb: "testblock"})
		blockRes <- result{resp, err}
	}()
	<-enteredCh // the worker is now parked inside testblock; queue is empty

	queuedRes := make(chan result, 1)
	go func() {
		resp, err := c.Do(&server.Request{Session: "s", Verb: "cycle", Args: []string{"p0"}})
		queuedRes <- result{resp, err}
	}()
	// Wait for the cycle request to occupy the single queue slot.
	c2 := dial(t, addr)
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp := mustOK(t, c2, &server.Request{Verb: "sessions"})
		var infos []server.SessionInfo
		if err := json.Unmarshal(resp.Data, &infos); err != nil {
			t.Fatal(err)
		}
		if len(infos) == 1 && infos[0].Queued == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("queue never filled: %+v", infos)
		}
		time.Sleep(2 * time.Millisecond)
	}

	resp, err := c.Do(&server.Request{Session: "s", Verb: "cycle", Args: []string{"p0"}})
	if err != nil {
		t.Fatal(err)
	}
	if resp.OK || resp.Code != wire.CodeBackpressure {
		t.Fatalf("wanted a backpressure rejection, got ok=%v code=%q err=%q", resp.OK, resp.Code, resp.Error)
	}
	if !strings.Contains(resp.Error, "backpressure") {
		t.Errorf("rejection error %q should mention backpressure", resp.Error)
	}

	close(gateCh)
	if r := <-blockRes; r.err != nil || !r.resp.OK {
		t.Fatalf("blocked request: %+v", r)
	}
	if r := <-queuedRes; r.err != nil || !r.resp.OK || !strings.Contains(r.resp.Output, "7 (version") {
		t.Fatalf("queued request: %+v", r)
	}
}

// TestRequestTimeout checks the deadline path: a request stuck behind a
// parked worker times out with the typed code, its late result is
// discarded, and the session stays usable.
func TestRequestTimeout(t *testing.T) {
	// Registered before startServer, so the restore runs after shutdown.
	t.Cleanup(server.SetRequestDeadline(80 * time.Millisecond))
	_, addr := startServer(t, server.Config{QueueDepth: 4})
	c := dial(t, addr)
	createTiny(t, c, "s", 100)
	mustOK(t, c, &server.Request{Session: "s", Verb: "run", Args: []string{"clock", "p0", "5"}})

	enteredCh, gateCh := armGate()
	blockRes := make(chan *server.Response, 1)
	go func() {
		resp, err := c.Do(&server.Request{Session: "s", Verb: "testblock"})
		if err == nil {
			blockRes <- resp
		}
	}()
	<-enteredCh
	// Each answer is awaited while the gate is still shut: a waiter whose
	// timer fires late takes a reply that is already there, so opening the
	// gate first would race the timeout it is meant to test.
	if r := <-blockRes; r.OK || r.Code != wire.CodeTimeout {
		t.Fatalf("parked request should time out, got %+v", r)
	}

	resp, err := c.Do(&server.Request{Session: "s", Verb: "cycle", Args: []string{"p0"}})
	if err != nil {
		t.Fatal(err)
	}
	if resp.OK || resp.Code != wire.CodeTimeout {
		t.Fatalf("wanted timeout, got ok=%v code=%q err=%q", resp.OK, resp.Code, resp.Error)
	}
	close(gateCh)
	// The worker drained both stale tasks; a fresh request must succeed.
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, err = c.Do(&server.Request{Session: "s", Verb: "cycle", Args: []string{"p0"}})
		if err != nil {
			t.Fatal(err)
		}
		if resp.OK {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("session never recovered: %s (%s)", resp.Error, resp.Code)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if !strings.Contains(resp.Output, "5 (version") {
		t.Errorf("cycle after recovery: %q", resp.Output)
	}
}

// TestPanicMidRequestServerStaysUp: a panic inside a session verb comes
// back as a typed error response and neither the worker nor the daemon
// dies.
func TestPanicMidRequestServerStaysUp(t *testing.T) {
	_, addr := startServer(t, server.Config{})
	c := dial(t, addr)
	createTiny(t, c, "s", 100)
	mustOK(t, c, &server.Request{Session: "s", Verb: "run", Args: []string{"clock", "p0", "10"}})

	resp, err := c.Do(&server.Request{Session: "s", Verb: "testpanic"})
	if err != nil {
		t.Fatal(err)
	}
	if resp.OK || resp.Code != wire.CodePanic || !strings.Contains(resp.Error, "injected test panic") {
		t.Fatalf("wanted recovered panic, got ok=%v code=%q err=%q", resp.OK, resp.Code, resp.Error)
	}

	mustOK(t, c, &server.Request{Verb: "ping"})
	out := mustOK(t, c, &server.Request{Session: "s", Verb: "cycle", Args: []string{"p0"}})
	if !strings.Contains(out.Output, "10 (version") {
		t.Errorf("session state after panic: %q", out.Output)
	}
}

// TestDrainCheckpointsDirtySessions covers the SIGTERM path end to end:
// dirty sessions are checkpointed through the atomic writer, the
// manifest is written, and the report says what went where.
func TestDrainCheckpointsDirtySessions(t *testing.T) {
	drainDir := t.TempDir()
	srv, addr := startServer(t, server.Config{DrainDir: drainDir})
	c := dial(t, addr)
	createTiny(t, c, "s1", 20)
	mustOK(t, c, &server.Request{Session: "s1", Verb: "run", Args: []string{"clock", "p0", "37"}})
	mustOK(t, c, &server.Request{Session: "s2", Verb: "create", PGAS: 1, CheckpointEvery: 20})
	mustOK(t, c, &server.Request{Session: "s2", Verb: "instpipe", Args: []string{"p0"}})
	mustOK(t, c, &server.Request{Session: "s2", Verb: "run", Args: []string{"tb0", "p0", "15"}})

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	rep, err := srv.Shutdown(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Timeout {
		t.Error("drain reported a timeout")
	}
	if len(rep.Sessions) != 2 || rep.Sessions[0].Name != "s1" || rep.Sessions[1].Name != "s2" {
		t.Fatalf("drain report sessions: %+v", rep.Sessions)
	}
	for _, ds := range rep.Sessions {
		path, ok := ds.Files["p0"]
		if !ok {
			t.Fatalf("session %s missing p0 checkpoint: %+v", ds.Name, ds.Files)
		}
		if _, fromBackup, err := checkpoint.LoadFile(path); err != nil || fromBackup {
			t.Errorf("checkpoint %s: err=%v fromBackup=%v", path, err, fromBackup)
		}
		// Every stopped session's final metrics snapshot rides in the
		// manifest for post-mortem inspection.
		if ds.Metrics == nil || ds.Metrics.Counters["session_requests"] == 0 {
			t.Errorf("session %s drain metrics missing or empty: %+v", ds.Name, ds.Metrics)
		}
	}

	data, err := os.ReadFile(filepath.Join(drainDir, "drain.json"))
	if err != nil {
		t.Fatal(err)
	}
	var manifest server.DrainReport
	if err := json.Unmarshal(data, &manifest); err != nil {
		t.Fatal(err)
	}
	if len(manifest.Sessions) != 2 {
		t.Errorf("manifest sessions: %+v", manifest.Sessions)
	}

	// The drain closed every connection; the old client is dead.
	if _, err := c.Do(&server.Request{Verb: "ping"}); err == nil {
		t.Error("request after drain should fail")
	}
}

// TestConnDropMidRequestRollsBackNothing injects the connection-drop
// fault: the transport dies after the server reads the request, the work
// still completes, nothing rolls back, and the worker is free for the
// next client.
func TestConnDropMidRequestRollsBackNothing(t *testing.T) {
	plan := faultinject.New().DropConnAfter(4)
	_, addr := startServer(t, server.Config{Faults: plan})

	c := dial(t, addr)
	createTiny(t, c, "s", 100)                                                                    // requests 1+2
	mustOK(t, c, &server.Request{Session: "s", Verb: "run", Args: []string{"clock", "p0", "25"}}) // 3
	// Request 4: the fault severs this connection mid-request.
	if resp, err := c.Do(&server.Request{Session: "s", Verb: "run", Args: []string{"clock", "p0", "25"}}); err == nil {
		t.Fatalf("expected the dropped connection to kill the call, got %+v", resp)
	}

	c2 := dial(t, addr)
	// The dropped request must have executed to completion (cycle 50) and
	// the worker must be free to serve this.
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp := mustOK(t, c2, &server.Request{Session: "s", Verb: "cycle", Args: []string{"p0"}})
		if strings.Contains(resp.Output, "50 (version") {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("dropped request's work missing: %q", resp.Output)
		}
		time.Sleep(5 * time.Millisecond)
	}
	health := mustOK(t, c2, &server.Request{Session: "s", Verb: "health"})
	if !strings.Contains(health.Output, "(0 rolled back)") || !strings.Contains(health.Output, "status: ok") {
		t.Errorf("health after conn drop: %q", health.Output)
	}
}

// TestSlowClientFault delays one response by the injected amount without
// wedging anything else.
func TestSlowClientFault(t *testing.T) {
	plan := faultinject.New().SlowClient(60*time.Millisecond, 1)
	_, addr := startServer(t, server.Config{Faults: plan})
	c := dial(t, addr)

	t0 := time.Now()
	mustOK(t, c, &server.Request{Verb: "ping"})
	if d := time.Since(t0); d < 60*time.Millisecond {
		t.Errorf("slow-client fault did not delay the response (%v)", d)
	}
	t1 := time.Now()
	mustOK(t, c, &server.Request{Verb: "ping"})
	if d := time.Since(t1); d >= 60*time.Millisecond {
		t.Errorf("fault should be exhausted after one use (second ping took %v)", d)
	}

	// The delay is on the connection's write path: the session worker that
	// answered a held worker verb is free for the next connection's.
	createTiny(t, c, "s", 100)
	const hold = time.Second
	plan.SlowClient(hold, 1)
	held := make(chan time.Duration, 1)
	go func() {
		t0 := time.Now()
		c.Do(&server.Request{Session: "s", Verb: "run", Args: []string{"clock", "p0", "5"}})
		held <- time.Since(t0)
	}()
	eventually(t, "the held answer", func() bool { return strings.Count(strings.Join(plan.Fired(), " "), "slow-client") == 2 })
	c2 := dial(t, addr)
	t2 := time.Now()
	if resp := mustOK(t, c2, &server.Request{Session: "s", Verb: "cycle", Args: []string{"p0"}}); !strings.Contains(resp.Output, "5 (version") {
		t.Errorf("cycle beside a held answer: %q", resp.Output)
	}
	if d := time.Since(t2); d >= hold/2 {
		t.Errorf("a worker verb on a second connection took %v beside a held answer", d)
	}
	if d := <-held; d < hold {
		t.Errorf("the held answer arrived after %v, want at least %v", d, hold)
	}
}

// TestIdleEviction: an untouched dirty session is evicted and its
// checkpoint lands in DrainDir.
func TestIdleEviction(t *testing.T) {
	drainDir := t.TempDir()
	srv, addr := startServer(t, server.Config{IdleTimeout: 60 * time.Millisecond, DrainDir: drainDir})
	c := dial(t, addr)
	createTiny(t, c, "s", 50)
	mustOK(t, c, &server.Request{Session: "s", Verb: "run", Args: []string{"clock", "p0", "12"}})

	// The janitor unlinks the session first and checkpoints it afterwards,
	// so an empty session list does not mean the checkpoint is on disk;
	// the eviction counter moves once it is.
	evicted := srv.Metrics().Counter("server_event_eviction")
	for deadline := time.Now().Add(5 * time.Second); evicted.Value() == 0; time.Sleep(10 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("session was never evicted")
		}
	}
	resp := mustOK(t, c, &server.Request{Verb: "sessions"})
	var infos []server.SessionInfo
	if err := json.Unmarshal(resp.Data, &infos); err != nil {
		t.Fatal(err)
	}
	if len(infos) != 0 {
		t.Fatalf("evicted session still listed: %+v", infos)
	}

	path := filepath.Join(drainDir, "s.p0.lscp")
	if _, fromBackup, err := checkpoint.LoadFile(path); err != nil || fromBackup {
		t.Fatalf("eviction checkpoint %s: err=%v fromBackup=%v", path, err, fromBackup)
	}
	resp, err := c.Do(&server.Request{Session: "s", Verb: "cycle", Args: []string{"p0"}})
	if err != nil {
		t.Fatal(err)
	}
	if resp.OK || resp.Code != wire.CodeNoSession {
		t.Errorf("evicted session should be gone, got ok=%v code=%q", resp.OK, resp.Code)
	}
}

// TestSubscribeStreamsSpans checks both subscription scopes: server
// request spans and a session's live-loop spans (apply_change).
func TestSubscribeStreamsSpans(t *testing.T) {
	_, addr := startServer(t, server.Config{})
	c := dial(t, addr)
	createTiny(t, c, "s", 25)
	mustOK(t, c, &server.Request{Session: "s", Verb: "run", Args: []string{"clock", "p0", "30"}})

	mustOK(t, c, &server.Request{Verb: "subscribe"})               // server spans
	mustOK(t, c, &server.Request{Session: "s", Verb: "subscribe"}) // session live-loop spans
	edited := strings.Replace(tinyDesign, "total + d", "total + d + 1", 1)
	mustOK(t, c, &server.Request{Session: "s", Verb: "apply", Files: map[string]string{"top.v": edited}})

	want := map[string]bool{`"name":"request"`: false, `"name":"apply_change"`: false}
	deadline := time.After(5 * time.Second)
	for {
		done := true
		for _, seen := range want {
			if !seen {
				done = false
			}
		}
		if done {
			break
		}
		select {
		case ev, ok := <-c.Events():
			if !ok {
				t.Fatalf("event stream closed early, still waiting for %v", want)
			}
			for frag := range want {
				if strings.Contains(string(ev), frag) {
					want[frag] = true
				}
			}
		case <-deadline:
			t.Fatalf("span events missing: %v", want)
		}
	}
}

// TestSessionLifecycleVerbs: sessions/close/duplicate/bad-name handling.
func TestSessionLifecycleVerbs(t *testing.T) {
	_, addr := startServer(t, server.Config{})
	c := dial(t, addr)
	createTiny(t, c, "a", 100)
	createTiny(t, c, "b", 100)

	resp := mustOK(t, c, &server.Request{Verb: "sessions"})
	var infos []server.SessionInfo
	if err := json.Unmarshal(resp.Data, &infos); err != nil {
		t.Fatal(err)
	}
	if len(infos) != 2 || infos[0].Name != "a" || infos[1].Name != "b" {
		t.Fatalf("sessions list: %+v", infos)
	}
	if len(infos[0].Pipes) != 1 || infos[0].Pipes[0] != "p0" {
		t.Errorf("pipes of a: %+v", infos[0].Pipes)
	}

	mustOK(t, c, &server.Request{Session: "a", Verb: "close"})
	if r, _ := c.Do(&server.Request{Session: "a", Verb: "cycle", Args: []string{"p0"}}); r == nil || r.Code != wire.CodeNoSession {
		t.Errorf("closed session: %+v", r)
	}
	if r, _ := c.Do(&server.Request{Session: "b", Verb: "create", PGAS: 1}); r == nil || r.Code != wire.CodeBadRequest {
		t.Errorf("duplicate create: %+v", r)
	}
	if r, _ := c.Do(&server.Request{Session: "no such name", Verb: "create", PGAS: 1}); r == nil || r.Code != wire.CodeBadRequest {
		t.Errorf("bad name create: %+v", r)
	}
}
