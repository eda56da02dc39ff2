package gateway_test

import (
	"context"
	"encoding/json"
	"net"
	"os"
	"path/filepath"
	"testing"
	"time"

	"livesim/internal/faultinject"
	"livesim/internal/gateway"
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

// testBackend is one restartable in-process livesimd: Halt() leaves
// the state dir as a SIGKILL would, restart() recovers from it on the
// same socket — the crash half of every fault-matrix test. faults is
// its fault plan: its disk probe reads half the disk free, so the
// host's own free space never moves the backend's health, and nothing
// else is armed until a test does it.
type testBackend struct {
	t         testing.TB
	dir, sock string
	srv       *server.Server
	faults    *faultinject.Plan
}

func newTestBackend(t testing.TB) *testBackend {
	t.Helper()
	dir, err := os.MkdirTemp("", "lsgw") // short path: unix sockets cap ~104 bytes
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.RemoveAll(dir) })
	b := &testBackend{t: t, dir: filepath.Join(dir, "state"), sock: filepath.Join(dir, "d.sock"),
		faults: faultinject.New().ForceDiskFree(50, 100)}
	if err := os.MkdirAll(b.dir, 0o755); err != nil {
		t.Fatal(err)
	}
	b.start()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		b.srv.Shutdown(ctx) // after Halt this is a tolerated no-op
	})
	return b
}

func (b *testBackend) addr() string { return "unix:" + b.sock }

// start boots a server on the backend's state dir: WALSyncEvery -1
// means every acked mutation is fsynced, so anything a test observed
// as committed must survive Halt+restart bit-identically. The disk
// governor polls every 10ms, so a forced disk level shows at once.
func (b *testBackend) start() {
	b.t.Helper()
	srv := server.New(server.Config{StateDir: b.dir, WALSyncEvery: -1, Faults: b.faults,
		DiskPollEvery: 10 * time.Millisecond})
	if err := srv.Recover(); err != nil {
		b.t.Fatal(err)
	}
	srv.WaitRecovered()
	ln, err := net.Listen("unix", b.sock)
	if err != nil {
		b.t.Fatal(err)
	}
	go srv.Serve(ln)
	b.srv = srv
}

func (b *testBackend) halt()    { b.srv.Halt() }
func (b *testBackend) restart() { b.start() }

// sessionNames lists what the backend itself hosts, bypassing the
// gateway — the ground truth the exactly-one-copy assertions use.
func (b *testBackend) sessionNames(t *testing.T) []string {
	t.Helper()
	c, err := client.Dial(b.addr())
	if err != nil {
		t.Fatalf("dial %s: %v", b.addr(), err)
	}
	defer c.Close()
	resp, err := c.Do(&server.Request{Verb: "sessions"})
	if err != nil || !resp.OK {
		t.Fatalf("sessions on %s: %+v err=%v", b.addr(), resp, err)
	}
	var infos []server.SessionInfo
	if resp.Data != nil {
		json.Unmarshal(resp.Data, &infos)
	}
	names := make([]string, 0, len(infos))
	for _, info := range infos {
		names = append(names, info.Name)
	}
	return names
}

func startGateway(t testing.TB, cfg gateway.Config) (*gateway.Gateway, string) {
	t.Helper()
	if cfg.HealthEvery == 0 {
		cfg.HealthEvery = 50 * time.Millisecond
	}
	g, err := gateway.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	dir, err := os.MkdirTemp("", "lsgw")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.RemoveAll(dir) })
	sock := filepath.Join(dir, "g.sock")
	ln, err := net.Listen("unix", sock)
	if err != nil {
		t.Fatal(err)
	}
	go g.Serve(ln)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		g.Shutdown(ctx)
	})
	return g, "unix:" + sock
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

func createTiny(t testing.TB, c *client.Client, name string) {
	t.Helper()
	mustOK(t, c, &server.Request{Session: name, Verb: "create",
		Files: map[string]string{"top.v": tinyDesign}, Top: "top", CheckpointEvery: 25})
	mustOK(t, c, &server.Request{Session: name, Verb: "instpipe", Args: []string{"p0"}})
}

// drive advances a session to a known state and returns its
// fingerprint: the accumulator value and the cycle report.
func drive(t *testing.T, c *client.Client, name string) (peek, cycle string) {
	t.Helper()
	mustOK(t, c, &server.Request{Session: name, Verb: "poke", Args: []string{"p0", "top.en", "1"}})
	mustOK(t, c, &server.Request{Session: name, Verb: "poke", Args: []string{"p0", "top.d", "7"}})
	mustOK(t, c, &server.Request{Session: name, Verb: "run", Args: []string{"clock", "p0", "50"}})
	return fingerprint(t, c, name)
}

// fingerprint reads the session's observable state without mutating it.
func fingerprint(t *testing.T, c *client.Client, name string) (peek, cycle string) {
	t.Helper()
	peek = mustOK(t, c, &server.Request{Session: name, Verb: "peek", Args: []string{"p0", "top.u0.total"}}).Output
	cycle = mustOK(t, c, &server.Request{Session: name, Verb: "cycle", Args: []string{"p0"}}).Output
	return peek, cycle
}

func waitUntil(t testing.TB, d time.Duration, what string, fn func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if fn() {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestGatewayPlacementAndAggregation: sessions created through the
// gateway land on pool backends and stay fully usable; `backends` and
// the aggregated `sessions` see all of them; sessions created behind
// the gateway's back are found by the lookup sweep.
func TestGatewayPlacementAndAggregation(t *testing.T) {
	b0, b1, b2 := newTestBackend(t), newTestBackend(t), newTestBackend(t)
	_, gaddr := startGateway(t, gateway.Config{Backends: []gateway.BackendSpec{
		{Addr: b0.addr()}, {Addr: b1.addr()}, {Addr: b2.addr()},
	}})
	c := dial(t, gaddr)

	names := []string{"g0", "g1", "g2", "g3", "g4", "g5"}
	for _, name := range names {
		createTiny(t, c, name)
		drive(t, c, name)
	}

	// The pool hosts all of them, exactly once each.
	hosted := map[string]int{}
	for _, b := range []*testBackend{b0, b1, b2} {
		for _, n := range b.sessionNames(t) {
			hosted[n]++
		}
	}
	for _, name := range names {
		if hosted[name] != 1 {
			t.Errorf("session %s hosted %d times, want exactly 1", name, hosted[name])
		}
	}

	// backends verb: route counts sum to the session count.
	var infos []gateway.BackendInfo
	resp := mustOK(t, c, &server.Request{Verb: "backends"})
	if err := json.Unmarshal(resp.Data, &infos); err != nil {
		t.Fatal(err)
	}
	routes := 0
	for _, info := range infos {
		routes += info.Routes
		if info.State != "ok" {
			t.Errorf("backend %s state = %s, want ok", info.Addr, info.State)
		}
	}
	if routes != len(names) {
		t.Errorf("route count = %d, want %d", routes, len(names))
	}

	// Aggregated sessions: every row tagged with its backend.
	var rows []gateway.FleetSessionInfo
	resp = mustOK(t, c, &server.Request{Verb: "sessions"})
	if err := json.Unmarshal(resp.Data, &rows); err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(names) {
		t.Fatalf("aggregated sessions = %d rows, want %d: %+v", len(rows), len(names), rows)
	}
	for _, row := range rows {
		if row.Backend == "" || row.WALBytes == 0 {
			t.Errorf("aggregated row missing backend/wal_bytes: %+v", row)
		}
	}

	// A session the gateway never placed is still found by the sweep.
	direct := dial(t, b1.addr())
	createTiny(t, direct, "stray")
	if out := mustOK(t, c, &server.Request{Session: "stray", Verb: "cycle", Args: []string{"p0"}}).Output; out == "" {
		t.Error("sweep-found session returned empty cycle output")
	}

	// subscribe needs a direct backend connection.
	if resp, _ := c.Do(&server.Request{Verb: "subscribe"}); resp.OK || resp.Code != wire.CodeBadRequest {
		t.Errorf("subscribe through gateway = %+v, want bad_request", resp)
	}
}

// TestGatewayRerouteOnBackendCrash: killing the backend under a
// session yields typed unavailable (with a retry hint), and once the
// backend recovers from its journal the same gateway connection serves
// the session again with no committed mutation lost.
func TestGatewayRerouteOnBackendCrash(t *testing.T) {
	b0, b1 := newTestBackend(t), newTestBackend(t)
	backends := []*testBackend{b0, b1}
	_, gaddr := startGateway(t, gateway.Config{Backends: []gateway.BackendSpec{
		{Addr: b0.addr()}, {Addr: b1.addr()},
	}})
	c := dial(t, gaddr)

	createTiny(t, c, "c0")
	wantPeek, wantCycle := drive(t, c, "c0")

	var owner *testBackend
	for _, b := range backends {
		for _, n := range b.sessionNames(t) {
			if n == "c0" {
				owner = b
			}
		}
	}
	if owner == nil {
		t.Fatal("no backend hosts c0")
	}
	owner.halt()

	resp, err := c.Do(&server.Request{Session: "c0", Verb: "cycle", Args: []string{"p0"}})
	if err != nil {
		t.Fatal(err)
	}
	if resp.OK || resp.Code != wire.CodeUnavailable || resp.RetryAfterMs < 1 {
		t.Fatalf("request against dead backend = %+v, want unavailable with retry hint", resp)
	}

	owner.restart()
	waitUntil(t, 5*time.Second, "session served again after restart", func() bool {
		r, err := c.Do(&server.Request{Session: "c0", Verb: "peek", Args: []string{"p0", "top.u0.total"}})
		return err == nil && r.OK
	})
	gotPeek, gotCycle := fingerprint(t, c, "c0")
	if gotPeek != wantPeek || gotCycle != wantCycle {
		t.Errorf("state after crash+recover = (%q, %q), want (%q, %q)", gotPeek, gotCycle, wantPeek, wantCycle)
	}
}

// TestGatewayMigrationMovesLiveSession: the migrate verb moves a
// session between backends with an identical fingerprint and a working
// moved tombstone on the source.
func TestGatewayMigrationMovesLiveSession(t *testing.T) {
	b0, b1 := newTestBackend(t), newTestBackend(t)
	backends := []*testBackend{b0, b1}
	_, gaddr := startGateway(t, gateway.Config{Backends: []gateway.BackendSpec{
		{Addr: b0.addr()}, {Addr: b1.addr()},
	}})
	c := dial(t, gaddr)

	createTiny(t, c, "m0")
	wantPeek, wantCycle := drive(t, c, "m0")

	resp := mustOK(t, c, &server.Request{Session: "m0", Verb: "migrate"})
	var rep gateway.MigrationReport
	if err := json.Unmarshal(resp.Data, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.From == rep.To {
		t.Errorf("migration report = %+v, want distinct backends", rep)
	}

	gotPeek, gotCycle := fingerprint(t, c, "m0")
	if gotPeek != wantPeek || gotCycle != wantCycle {
		t.Errorf("state after migration = (%q, %q), want (%q, %q)", gotPeek, gotCycle, wantPeek, wantCycle)
	}
	// Still live: mutations keep working through the same gateway conn.
	mustOK(t, c, &server.Request{Session: "m0", Verb: "run", Args: []string{"clock", "p0", "10"}})

	// Exactly one copy, on the migration target.
	for _, b := range backends {
		hosts := false
		for _, n := range b.sessionNames(t) {
			if n == "m0" {
				hosts = true
			}
		}
		if want := b.addr() == rep.To; hosts != want {
			t.Errorf("backend %s hosts m0 = %v, want %v", b.addr(), hosts, want)
		}
	}

	// The source answers direct clients with a typed redirect.
	var source *testBackend
	for _, b := range backends {
		if b.addr() == rep.From {
			source = b
		}
	}
	direct := dial(t, source.addr())
	moved, err := direct.Do(&server.Request{Session: "m0", Verb: "cycle", Args: []string{"p0"}})
	if err != nil {
		t.Fatal(err)
	}
	if moved.OK || moved.Code != wire.CodeMoved || moved.MovedTo != rep.To {
		t.Errorf("source response after migration = %+v, want moved to %s", moved, rep.To)
	}
}

// TestGatewayDrainBackend: draining migrates every session off
// (cheapest journal first), fires the backend's DrainRequested signal,
// and excludes the backend from future placement.
func TestGatewayDrainBackend(t *testing.T) {
	b0, b1 := newTestBackend(t), newTestBackend(t)
	backends := []*testBackend{b0, b1}
	_, gaddr := startGateway(t, gateway.Config{Backends: []gateway.BackendSpec{
		{Addr: b0.addr()}, {Addr: b1.addr()},
	}})
	c := dial(t, gaddr)

	names := []string{"d0", "d1", "d2", "d3"}
	for _, name := range names {
		createTiny(t, c, name)
		drive(t, c, name)
	}

	// Drain whichever backend got at least one session.
	var victim, survivor *testBackend
	for i, b := range backends {
		if len(b.sessionNames(t)) > 0 {
			victim, survivor = b, backends[1-i]
			break
		}
	}
	moving := len(victim.sessionNames(t))

	resp := mustOK(t, c, &server.Request{Verb: "drain", Args: []string{victim.addr()}})
	var rep gateway.DrainBackendReport
	if err := json.Unmarshal(resp.Data, &rep); err != nil {
		t.Fatal(err)
	}
	if len(rep.Migrated) != moving || len(rep.Failed) != 0 || !rep.DrainSent {
		t.Fatalf("drain report = %+v, want %d migrated, none failed, drain sent", rep, moving)
	}
	select {
	case <-victim.srv.DrainRequested():
	case <-time.After(2 * time.Second):
		t.Fatal("drain verb never reached the backend")
	}
	if left := victim.sessionNames(t); len(left) != 0 {
		t.Fatalf("drained backend still hosts %v", left)
	}

	// Every session still serves through the gateway.
	for _, name := range names {
		mustOK(t, c, &server.Request{Session: name, Verb: "run", Args: []string{"clock", "p0", "5"}})
	}

	// New sessions avoid the drained backend.
	createTiny(t, c, "post-drain")
	found := false
	for _, n := range survivor.sessionNames(t) {
		if n == "post-drain" {
			found = true
		}
	}
	if !found {
		t.Error("post-drain create did not land on the surviving backend")
	}
}
