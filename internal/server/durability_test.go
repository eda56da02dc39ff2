package server_test

import (
	"context"
	"encoding/json"
	"errors"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"livesim/internal/checkpoint"
	"livesim/internal/faultinject"
	"livesim/internal/frame"
	"livesim/internal/server"
	"livesim/internal/server/client"
	"livesim/internal/sim"
	"livesim/internal/wire"
)

// startServerOn runs a server on an explicit socket with manual
// lifecycle control: it calls Recover (the livesimd boot sequence) and
// returns a stop func that drains and reports the Shutdown error.
// Nothing is stopped automatically — restart tests own the lifecycle.
func startServerOn(t *testing.T, cfg server.Config, sock string) (*server.Server, func() error) {
	t.Helper()
	ln, err := net.Listen("unix", sock)
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(cfg)
	if err := srv.Recover(); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	stop := func() error {
		ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
		defer cancel()
		_, err := srv.Shutdown(ctx)
		if serr := <-done; serr != nil {
			t.Errorf("Serve returned %v", serr)
		}
		return err
	}
	return srv, stop
}

func shortDir(t *testing.T) string {
	t.Helper()
	dir, err := os.MkdirTemp("", "lsd") // short path: unix sockets cap ~104 bytes
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.RemoveAll(dir) })
	return dir
}

// doUntilRecovered issues a request, tolerating CodeRecovering while a
// restarted daemon replays the session, and returns the first real
// response. Anything else non-OK fails the test.
func doUntilRecovered(t *testing.T, c *client.Client, req *server.Request) *server.Response {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := c.Do(req)
		if err != nil {
			t.Fatalf("%s: %v", req.Verb, err)
		}
		if resp.OK {
			return resp
		}
		if resp.Code != wire.CodeRecovering || time.Now().After(deadline) {
			t.Fatalf("%s: %s (%s)", req.Verb, resp.Error, resp.Code)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestRestartRecoversDrainedSession: create → mutate → SIGTERM-style
// drain → new daemon on the same state dir. Recovery must restore the
// session to the same observable state (cycle, signal values, version),
// using the watermark checkpoints the drain saved.
func TestRestartRecoversDrainedSession(t *testing.T) {
	dir := shortDir(t)
	state := filepath.Join(dir, "state")
	cfg := server.Config{StateDir: state, WALSyncEvery: -1}

	_, stopA := startServerOn(t, cfg, filepath.Join(dir, "a.sock"))
	cA := dial(t, "unix:"+filepath.Join(dir, "a.sock"))
	createTiny(t, cA, "r0", 25)
	mustOK(t, cA, &server.Request{Session: "r0", Verb: "run", Args: []string{"clock", "p0", "200"}})
	mustOK(t, cA, &server.Request{Session: "r0", Verb: "poke", Args: []string{"p0", "top.en", "1"}})
	mustOK(t, cA, &server.Request{Session: "r0", Verb: "run", Args: []string{"clock", "p0", "100"}})
	wantCycle := mustOK(t, cA, &server.Request{Session: "r0", Verb: "cycle", Args: []string{"p0"}}).Output
	wantPeek := mustOK(t, cA, &server.Request{Session: "r0", Verb: "peek", Args: []string{"p0", "top.u0.total"}}).Output
	if err := stopA(); err != nil {
		t.Fatalf("drain: %v", err)
	}

	srvB, stopB := startServerOn(t, cfg, filepath.Join(dir, "b.sock"))
	defer stopB()
	srvB.WaitRecovered()
	if srvB.Session("r0") == nil {
		t.Fatal("session r0 not recovered")
	}
	cB := dial(t, "unix:"+filepath.Join(dir, "b.sock"))
	if got := mustOK(t, cB, &server.Request{Session: "r0", Verb: "cycle", Args: []string{"p0"}}).Output; got != wantCycle {
		t.Errorf("recovered cycle %q, want %q", got, wantCycle)
	}
	if got := mustOK(t, cB, &server.Request{Session: "r0", Verb: "peek", Args: []string{"p0", "top.u0.total"}}).Output; got != wantPeek {
		t.Errorf("recovered peek %q, want %q", got, wantPeek)
	}
	// The recovered session must accept new work.
	mustOK(t, cB, &server.Request{Session: "r0", Verb: "run", Args: []string{"clock", "p0", "50"}})
}

// TestCrashRecoveryWithoutDrain: the daemon dies with no drain — no
// watermark, just the journal. A new daemon must rebuild the session by
// full re-execution to the same observable state.
func TestCrashRecoveryWithoutDrain(t *testing.T) {
	dir := shortDir(t)
	state := filepath.Join(dir, "state")
	cfg := server.Config{StateDir: state, WALSyncEvery: -1}

	// No stop: the "crash" is simply never draining this server.
	_, _ = startServerOn(t, cfg, filepath.Join(dir, "a.sock"))
	cA := dial(t, "unix:"+filepath.Join(dir, "a.sock"))
	createTiny(t, cA, "c0", 25)
	mustOK(t, cA, &server.Request{Session: "c0", Verb: "run", Args: []string{"clock", "p0", "120"}})
	mustOK(t, cA, &server.Request{Session: "c0", Verb: "poke", Args: []string{"p0", "top.u0.total", "9999"}})
	mustOK(t, cA, &server.Request{Session: "c0", Verb: "run", Args: []string{"clock", "p0", "30"}})
	wantCycle := mustOK(t, cA, &server.Request{Session: "c0", Verb: "cycle", Args: []string{"p0"}}).Output
	wantPeek := mustOK(t, cA, &server.Request{Session: "c0", Verb: "peek", Args: []string{"p0", "top.u0.total"}}).Output

	srvB, stopB := startServerOn(t, cfg, filepath.Join(dir, "b.sock"))
	defer stopB()
	cB := dial(t, "unix:"+filepath.Join(dir, "b.sock"))
	gotCycle := doUntilRecovered(t, cB, &server.Request{Session: "c0", Verb: "cycle", Args: []string{"p0"}}).Output
	if gotCycle != wantCycle {
		t.Errorf("recovered cycle %q, want %q", gotCycle, wantCycle)
	}
	if got := mustOK(t, cB, &server.Request{Session: "c0", Verb: "peek", Args: []string{"p0", "top.u0.total"}}).Output; got != wantPeek {
		t.Errorf("recovered peek %q, want %q", got, wantPeek)
	}
	_ = srvB
}

// TestTornJournalTailTruncated: a WAL append torn mid-frame (injected
// partial write, as a crash would leave it) must not poison recovery —
// the restarted daemon truncates the torn tail and recovers every
// record before it.
func TestTornJournalTailTruncated(t *testing.T) {
	dir := shortDir(t)
	state := filepath.Join(dir, "state")
	plan := faultinject.New()
	// Appends for this session: 1 boot, 2 instpipe, 3 run(200), 4 run(100)
	// — tear the 4th a few bytes in.
	plan.TornWALWrite(4, 5)
	cfgA := server.Config{StateDir: state, WALSyncEvery: -1, Faults: plan}

	_, _ = startServerOn(t, cfgA, filepath.Join(dir, "a.sock"))
	cA := dial(t, "unix:"+filepath.Join(dir, "a.sock"))
	createTiny(t, cA, "t0", 25)
	mustOK(t, cA, &server.Request{Session: "t0", Verb: "run", Args: []string{"clock", "p0", "200"}})
	// This run's journal append is torn: the mutation is undone and the
	// request refused, as for any append the journal does not take.
	if resp, err := cA.Do(&server.Request{Session: "t0", Verb: "run", Args: []string{"clock", "p0", "100"}}); err != nil || resp.Code != wire.CodeDiskFull {
		t.Fatalf("run with a torn append: resp=%+v err=%v, want disk_full", resp, err)
	}

	cfgB := server.Config{StateDir: state, WALSyncEvery: -1}
	srvB, stopB := startServerOn(t, cfgB, filepath.Join(dir, "b.sock"))
	defer stopB()
	srvB.WaitRecovered()
	if srvB.Session("t0") == nil {
		t.Fatal("session t0 not recovered after torn tail")
	}
	cB := dial(t, "unix:"+filepath.Join(dir, "b.sock"))
	got := mustOK(t, cB, &server.Request{Session: "t0", Verb: "cycle", Args: []string{"p0"}}).Output
	if !strings.Contains(got, "200") || strings.Contains(got, "300") {
		t.Errorf("recovered cycle %q, want the pre-tear 200, not 300", got)
	}
}

// TestCorruptWatermarkFallsBack: a watermark checkpoint file damaged on
// disk (a crash mid-checkpoint-save) must push recovery past the fast
// path — to an earlier mark or full re-execution — never corrupt state
// or fail to boot.
func TestCorruptWatermarkFallsBack(t *testing.T) {
	dir := shortDir(t)
	state := filepath.Join(dir, "state")
	cfg := server.Config{StateDir: state, WALSyncEvery: -1, JournalCheckpointEvery: 2}

	_, _ = startServerOn(t, cfg, filepath.Join(dir, "a.sock"))
	cA := dial(t, "unix:"+filepath.Join(dir, "a.sock"))
	createTiny(t, cA, "w0", 25)
	mustOK(t, cA, &server.Request{Session: "w0", Verb: "run", Args: []string{"clock", "p0", "75"}})
	mustOK(t, cA, &server.Request{Session: "w0", Verb: "run", Args: []string{"clock", "p0", "75"}})
	wantCycle := mustOK(t, cA, &server.Request{Session: "w0", Verb: "cycle", Args: []string{"p0"}}).Output

	// Crash mid-checkpoint-save: the watermark file is half-written.
	ckpt := filepath.Join(state, "w0.p0.lscp")
	data, err := os.ReadFile(ckpt)
	if err != nil {
		t.Fatalf("watermark was not saved: %v", err)
	}
	if err := os.WriteFile(ckpt, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if bak := ckpt + ".bak"; fileExists(bak) {
		os.Remove(bak) // no intact fallback copy either
	}

	srvB, stopB := startServerOn(t, cfg, filepath.Join(dir, "b.sock"))
	defer stopB()
	srvB.WaitRecovered()
	if srvB.Session("w0") == nil {
		t.Fatal("session w0 not recovered despite corrupt watermark")
	}
	cB := dial(t, "unix:"+filepath.Join(dir, "b.sock"))
	got := mustOK(t, cB, &server.Request{Session: "w0", Verb: "cycle", Args: []string{"p0"}}).Output
	if got != wantCycle {
		t.Errorf("recovered cycle %q, want %q", got, wantCycle)
	}
}

// TestWatermarkFromAnotherSlotLayoutReplaysInFull: checkpoints are not
// portable across code generator versions — a lowering change moves the
// temporaries, so the slot arrays no longer fit — but journals are. A
// watermark written under another slot layout must be refused by
// sim.Restore, and recovery must then re-execute the whole journal to
// exactly the state the session had.
func TestWatermarkFromAnotherSlotLayoutReplaysInFull(t *testing.T) {
	dir := shortDir(t)
	state := filepath.Join(dir, "state")
	cfg := server.Config{StateDir: state, WALSyncEvery: -1}

	srvA, stopA := startServerOn(t, cfg, filepath.Join(dir, "a.sock"))
	cA := dial(t, "unix:"+filepath.Join(dir, "a.sock"))
	createTiny(t, cA, "v0", 25)
	mustOK(t, cA, &server.Request{Session: "v0", Verb: "run", Args: []string{"clock", "p0", "150"}})
	mustOK(t, cA, &server.Request{Session: "v0", Verb: "poke", Args: []string{"p0", "top.en", "1"}})
	mustOK(t, cA, &server.Request{Session: "v0", Verb: "run", Args: []string{"clock", "p0", "90"}})
	pipeState := func(srv *server.Server) *sim.State {
		p, ok := srv.Session("v0").Pipe("p0")
		if !ok {
			t.Fatal("no pipe p0")
		}
		return p.Sim.Snapshot()
	}
	want := pipeState(srvA)
	if err := stopA(); err != nil {
		t.Fatalf("drain: %v", err)
	}

	// The drain saved a watermark; rewrite it as the compiler before an
	// upgrade would have: the same state with more temporaries per node.
	ckpt := filepath.Join(state, "v0.p0.lscp")
	fc, _, err := checkpoint.LoadFile(ckpt)
	if err != nil {
		t.Fatalf("watermark was not saved: %v", err)
	}
	for i := range fc.State.Nodes {
		if n := &fc.State.Nodes[i]; n.Present == nil {
			n.Slots = append(n.Slots, 0, 0, 0)
		} else {
			n.NumSlots += 3
		}
	}
	cp := checkpoint.NewStore().Add(fc.State, fc.Version, fc.HistoryPos)
	cp.Aux = fc.Aux
	if err := os.WriteFile(ckpt, checkpoint.EncodeFile(cp), 0o644); err != nil {
		t.Fatal(err)
	}
	os.Remove(frame.BackupPath(ckpt))

	srvB, stopB := startServerOn(t, cfg, filepath.Join(dir, "b.sock"))
	defer stopB()
	srvB.WaitRecovered()
	if srvB.Session("v0") == nil {
		t.Fatal("session v0 not recovered")
	}
	var fallback string
	for _, ev := range srvB.Events() {
		if ev.Type == "wal_fallback" {
			fallback = ev.Msg
		}
	}
	if !strings.Contains(fallback, "shape mismatch") {
		t.Errorf("wal_fallback event %q, want the restore refused for a shape mismatch", fallback)
	}
	if got := pipeState(srvB); !reflect.DeepEqual(got, want) {
		t.Errorf("state after full replay differs from the live session's: cycle %d, want %d", got.Cycle, want.Cycle)
	}
	cB := dial(t, "unix:"+filepath.Join(dir, "b.sock"))
	mustOK(t, cB, &server.Request{Session: "v0", Verb: "run", Args: []string{"clock", "p0", "10"}})
}

func fileExists(path string) bool {
	_, err := os.Stat(path)
	return err == nil
}

// TestWatchdogCancelsRunawayRunServer: a wedged run (injected stall
// beyond the run budget) is deadline-cancelled; the client gets a clean
// typed error, the session rolls back and stays usable, and a first
// offense does NOT quarantine.
func TestWatchdogCancelsRunawayRunServer(t *testing.T) {
	plan := faultinject.New()
	plan.StallRunAt(25, 2*time.Second)
	_, addr := startServer(t, server.Config{
		Faults:    plan,
		RunBudget: 50 * time.Millisecond,
	})
	c := dial(t, addr)
	createTiny(t, c, "wd0", 25)

	t0 := time.Now()
	resp, err := c.Do(&server.Request{Session: "wd0", Verb: "run", Args: []string{"clock", "p0", "200"}})
	if err != nil {
		t.Fatal(err)
	}
	if resp.OK || !strings.Contains(resp.Error, "run cancelled") {
		t.Fatalf("expected run-cancelled error, got ok=%v %q", resp.OK, resp.Error)
	}
	// Cancelled when the injected stall returned — not after the full
	// request deadline.
	if d := time.Since(t0); d > 10*time.Second {
		t.Errorf("cancellation took %v", d)
	}

	// Rolled back and usable: the failed run left no partial progress.
	if got := mustOK(t, c, &server.Request{Session: "wd0", Verb: "cycle", Args: []string{"p0"}}).Output; !strings.Contains(got, "0") {
		t.Errorf("cycle after rollback: %q", got)
	}
	mustOK(t, c, &server.Request{Session: "wd0", Verb: "run", Args: []string{"clock", "p0", "50"}})

	// One offense must not quarantine.
	var infos []server.SessionInfo
	if err := json.Unmarshal(mustOK(t, c, &server.Request{Verb: "sessions"}).Data, &infos); err != nil {
		t.Fatal(err)
	}
	for _, info := range infos {
		if info.Name == "wd0" && info.Quarantined {
			t.Error("session quarantined on first watchdog offense")
		}
	}
}

// TestQuarantineTripsAndClears: consecutive failures trip the breaker —
// mutations rejected with the typed code, reads still served — and the
// unquarantine verb restores the session.
func TestQuarantineTripsAndClears(t *testing.T) {
	_, addr := startServer(t, server.Config{
		RunBudget: time.Nanosecond, // every run blows the budget instantly
	})
	c := dial(t, addr)
	createTiny(t, c, "q0", 25)

	for i := 0; i < 3; i++ {
		resp, err := c.Do(&server.Request{Session: "q0", Verb: "run", Args: []string{"clock", "p0", "50"}})
		if err != nil {
			t.Fatal(err)
		}
		if resp.OK || !strings.Contains(resp.Error, "run cancelled") {
			t.Fatalf("failure %d: ok=%v %q (%s)", i+1, resp.OK, resp.Error, resp.Code)
		}
	}

	resp, err := c.Do(&server.Request{Session: "q0", Verb: "run", Args: []string{"clock", "p0", "50"}})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Code != wire.CodeQuarantined {
		t.Fatalf("after 3 failures: code %s (%s), want %s", resp.Code, resp.Error, wire.CodeQuarantined)
	}
	// Reads keep working while quarantined.
	mustOK(t, c, &server.Request{Session: "q0", Verb: "cycle", Args: []string{"p0"}})
	var infos []server.SessionInfo
	if err := json.Unmarshal(mustOK(t, c, &server.Request{Verb: "sessions"}).Data, &infos); err != nil {
		t.Fatal(err)
	}
	if len(infos) != 1 || !infos[0].Quarantined {
		t.Fatalf("sessions list should show quarantine: %+v", infos)
	}

	mustOK(t, c, &server.Request{Session: "q0", Verb: "unquarantine"})
	// Mutations accepted again; a healthy one resets the streak.
	mustOK(t, c, &server.Request{Session: "q0", Verb: "poke", Args: []string{"p0", "top.en", "1"}})
}

// TestSessionLimit: a create past the session cap is answered
// session_limit and counted, while boot-time recovery is exempt — a
// daemon restarted under a lower cap still brings back every journaled
// session, and only then refuses new ones.
func TestSessionLimit(t *testing.T) {
	t.Cleanup(server.SetSessionCap(2))
	dir := shortDir(t)
	cfg := server.Config{StateDir: filepath.Join(dir, "state"), WALSyncEvery: -1}
	create := func(c *client.Client, name string) *server.Response {
		t.Helper()
		resp, err := c.Do(&server.Request{Session: name, Verb: "create",
			Files: map[string]string{"top.v": tinyDesign}, Top: "top"})
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}

	srvA, stopA := startServerOn(t, cfg, filepath.Join(dir, "a.sock"))
	cA := dial(t, "unix:"+filepath.Join(dir, "a.sock"))
	createTiny(t, cA, "s0", 25)
	createTiny(t, cA, "s1", 25)
	if resp := create(cA, "s2"); resp.OK || resp.Code != wire.CodeSessionLimit {
		t.Fatalf("create at the cap: ok=%v code=%q, want %q", resp.OK, resp.Code, wire.CodeSessionLimit)
	}
	if n := srvA.Metrics().Counter("server_refused_session_limit").Value(); n != 1 {
		t.Fatalf("server_refused_session_limit = %d, want 1", n)
	}
	mustOK(t, cA, &server.Request{Session: "s1", Verb: "run", Args: []string{"clock", "p0", "10"}})
	if err := stopA(); err != nil {
		t.Fatalf("drain: %v", err)
	}

	server.SetSessionCap(1) // the Cleanup above restores the stock cap
	srvB, stopB := startServerOn(t, cfg, filepath.Join(dir, "b.sock"))
	defer stopB()
	srvB.WaitRecovered()
	for _, name := range []string{"s0", "s1"} {
		if srvB.Session(name) == nil {
			t.Fatalf("session %s not recovered past the cap", name)
		}
	}
	cB := dial(t, "unix:"+filepath.Join(dir, "b.sock"))
	if resp := create(cB, "s2"); resp.OK || resp.Code != wire.CodeSessionLimit {
		t.Fatalf("create past the cap after recovery: ok=%v code=%q", resp.OK, resp.Code)
	}
}

// TestClientReconnectAcrossRestart: a reconnecting client survives a
// daemon restart — idempotent requests are resent transparently, while
// a mutation caught by the downtime fails rather than risking a double
// apply.
func TestClientReconnectAcrossRestart(t *testing.T) {
	dir := shortDir(t)
	state := filepath.Join(dir, "state")
	sock := filepath.Join(dir, "d.sock")
	cfg := server.Config{StateDir: state, WALSyncEvery: -1}

	_, stopA := startServerOn(t, cfg, sock)
	reconnected := make(chan int, 1)
	c, err := client.DialOptions("unix:"+sock, client.Options{
		Reconnect:   true,
		OnReconnect: func(attempts int) { reconnected <- attempts },
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })

	createTiny(t, c, "rc0", 25)
	mustOK(t, c, &server.Request{Session: "rc0", Verb: "run", Args: []string{"clock", "p0", "50"}})

	if err := stopA(); err != nil {
		t.Fatalf("drain: %v", err)
	}
	time.Sleep(100 * time.Millisecond) // let the client observe the disconnect

	// A mutation during downtime must fail — the client cannot know
	// whether a resend would double-apply.
	if _, err := c.Do(&server.Request{Session: "rc0", Verb: "run", Args: []string{"clock", "p0", "10"}}); err == nil {
		t.Fatal("mutation during downtime should fail")
	} else if !errors.Is(err, client.ErrDisconnected) {
		t.Logf("mutation failed with %v (acceptable: raced the disconnect)", err)
	}

	srvB, stopB := startServerOn(t, cfg, sock)
	defer stopB()
	srvB.WaitRecovered()

	// Idempotent request rides the reconnect (registered while down or
	// sent after redial — either way it must come back).
	resp := doUntilRecovered(t, c, &server.Request{Session: "rc0", Verb: "cycle", Args: []string{"p0"}})
	if !strings.Contains(resp.Output, "50") {
		t.Errorf("cycle after reconnect: %q", resp.Output)
	}
	// The callback may run after the resent request is answered.
	select {
	case n := <-reconnected:
		if n < 1 {
			t.Errorf("reconnect attempts = %d", n)
		}
	case <-time.After(5 * time.Second):
		t.Error("OnReconnect never fired")
	}
}

// TestDrainSaveFailureExitsNonzero: a drain whose checkpoint saves fail
// must say so — errors recorded in the manifest report and a non-nil
// Shutdown error (livesimd exits nonzero) — instead of silently
// dropping the state.
func TestDrainSaveFailureExitsNonzero(t *testing.T) {
	dir := shortDir(t)
	// DrainDir is a regular file: every checkpoint save into it fails.
	badDir := filepath.Join(dir, "drain")
	if err := os.WriteFile(badDir, []byte("not a dir"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, stop := startServerOn(t, server.Config{DrainDir: badDir}, filepath.Join(dir, "d.sock"))
	c := dial(t, "unix:"+filepath.Join(dir, "d.sock"))
	createTiny(t, c, "d0", 25)
	mustOK(t, c, &server.Request{Session: "d0", Verb: "run", Args: []string{"clock", "p0", "50"}})

	err := stop()
	if err == nil {
		t.Fatal("Shutdown must return an error when drain saves fail")
	}
	if !strings.Contains(err.Error(), "checkpoint save") {
		t.Errorf("drain error %q should name the failed saves", err)
	}
}

// TestDrainCreatesDrainDir: a DrainDir that does not exist yet is made
// at boot, as StateDir is, so the drain saves into it instead of failing
// every checkpoint and the manifest.
func TestDrainCreatesDrainDir(t *testing.T) {
	dir := shortDir(t)
	drain := filepath.Join(dir, "not", "yet")
	_, stop := startServerOn(t, server.Config{DrainDir: drain}, filepath.Join(dir, "d.sock"))
	c := dial(t, "unix:"+filepath.Join(dir, "d.sock"))
	createTiny(t, c, "s1", 25)
	mustOK(t, c, &server.Request{Session: "s1", Verb: "run", Args: []string{"clock", "p0", "50"}})
	if err := stop(); err != nil {
		t.Fatalf("drain into a drain dir made at boot: %v", err)
	}
	for _, f := range []string{"s1.p0.lscp", "drain.json"} {
		if _, err := os.Stat(filepath.Join(drain, f)); err != nil {
			t.Error(err)
		}
	}
}
