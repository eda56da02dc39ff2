package server_test

import (
	"bytes"
	"context"
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"livesim/internal/faultinject"
	"livesim/internal/server"
	"livesim/internal/server/client"
	"livesim/internal/wal"
	"livesim/internal/wire"
)

// The lifecycle table: every way a hosted session enters a server
// crossed with every way it leaves. Each pair is judged by what the way
// out leaves in the state dir, what the server answers for the name
// afterwards, and what a restart on the same dir rebuilds.

// lcServer is one in-process daemon with its own client. Cleanup halts
// it; a test may stop it earlier through srv.
type lcServer struct {
	srv  *server.Server
	addr string
	c    *client.Client
}

func lcStart(t *testing.T, cfg server.Config, sock string) *lcServer {
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
	t.Cleanup(func() {
		srv.Halt()
		<-done
	})
	return &lcServer{srv: srv, addr: "unix:" + sock, c: dial(t, "unix:"+sock)}
}

// lcFingerprint reads the session's observable state without mutating it.
func lcFingerprint(t *testing.T, c *client.Client) string {
	t.Helper()
	peek := mustOK(t, c, &server.Request{Session: "l0", Verb: "peek", Args: []string{"p0", "top.u0.total"}}).Output
	return peek + mustOK(t, c, &server.Request{Session: "l0", Verb: "cycle", Args: []string{"p0"}}).Output
}

// lcFiles maps each of l0's files in the state dir to its contents.
func lcFiles(t *testing.T, state string) map[string][]byte {
	t.Helper()
	matches, err := filepath.Glob(filepath.Join(state, "l0.*"))
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string][]byte, len(matches))
	for _, m := range matches {
		data, err := os.ReadFile(m)
		if err != nil {
			t.Fatal(err)
		}
		out[filepath.Base(m)] = data
	}
	return out
}

// lcMarks counts the mark records in a journal image.
func lcMarks(t *testing.T, journal []byte) int {
	t.Helper()
	recs, _, err := wal.DecodeAll(journal)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, r := range recs {
		if r.Type == wal.TypeMark {
			n++
		}
	}
	return n
}

// waitCounter polls a server counter until it reaches want.
func waitCounter(t *testing.T, srv *server.Server, name string, want uint64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for srv.Metrics().Counter(name).Value() < want {
		if time.Now().After(deadline) {
			t.Fatalf("%s never reached %d", name, want)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// lcWayIn hosts session l0 on a server configured with cfg, whose state
// dir it sets, and returns that server plus the client mutations go
// through (the primary's, when the session arrives as a follower).
type lcWayIn struct {
	name     string
	follower bool
	host     func(t *testing.T, dir string, cfg server.Config) (*lcServer, *client.Client)
}

// lcMutate is the mutation stream every way in applies before the way
// out: the accumulator enabled, fed 3 per cycle, run 200 cycles.
func lcMutate(t *testing.T, c *client.Client, between func()) {
	t.Helper()
	mustOK(t, c, &server.Request{Session: "l0", Verb: "poke", Args: []string{"p0", "top.en", "1"}})
	mustOK(t, c, &server.Request{Session: "l0", Verb: "poke", Args: []string{"p0", "top.d", "3"}})
	between()
	mustOK(t, c, &server.Request{Session: "l0", Verb: "run", Args: []string{"clock", "p0", "200"}})
}

var lcWaysIn = []lcWayIn{
	{name: "create", host: func(t *testing.T, dir string, cfg server.Config) (*lcServer, *client.Client) {
		T := lcStart(t, cfg, filepath.Join(dir, "t.sock"))
		createTiny(t, T.c, "l0", 25)
		lcMutate(t, T.c, func() {})
		return T, T.c
	}},
	{name: "recovery", host: func(t *testing.T, dir string, cfg server.Config) (*lcServer, *client.Client) {
		// The first daemon dies without a drain; the second rebuilds the
		// session from the journal alone.
		A := lcStart(t, server.Config{StateDir: cfg.StateDir, WALSyncEvery: -1}, filepath.Join(dir, "a.sock"))
		createTiny(t, A.c, "l0", 25)
		lcMutate(t, A.c, func() {})
		A.srv.Halt()
		T := lcStart(t, cfg, filepath.Join(dir, "t.sock"))
		T.srv.WaitRecovered()
		if T.srv.Session("l0") == nil {
			t.Fatal("l0 not recovered")
		}
		return T, T.c
	}},
	{name: "import", follower: true, host: func(t *testing.T, dir string, cfg server.Config) (*lcServer, *client.Client) {
		// A primary seeds T through `replicate`, then ships the run.
		A := lcStart(t, server.Config{StateDir: filepath.Join(dir, "a"), WALSyncEvery: -1}, filepath.Join(dir, "a.sock"))
		T := lcStart(t, cfg, filepath.Join(dir, "t.sock"))
		createTiny(t, A.c, "l0", 25)
		lcMutate(t, A.c, func() {
			mustOK(t, A.c, &server.Request{Session: "l0", Verb: "replicate", Args: []string{T.addr}})
		})
		return T, A.c
	}},
}

// lcWayOut takes l0 off its server T.
type lcWayOut struct {
	name string
	cfg  func(*server.Config) // what T needs for this way out
	// refused fails the journal append of one more mutation (run 150)
	// before the way out: it is answered disk_full and undone, so the way
	// out leaves the acked history. A follower takes no direct
	// mutations, so these rows skip the import way in.
	refused bool
	leave   func(t *testing.T, T *lcServer)
	// answer is the code T gives for l0 afterwards ("" when T is down).
	answer string
	// kept: the journal stays and a restart rebuilds the acked state;
	// otherwise every file of l0 is gone and a restart finds nothing.
	kept bool
	// marks: the way out watermarks a primary's journal (checkpoints plus
	// mark records). A kept journal without marks, a follower's included,
	// is left byte for byte.
	marks bool
}

func lcClose(args ...string) func(t *testing.T, T *lcServer) {
	return func(t *testing.T, T *lcServer) {
		mustOK(t, T.c, &server.Request{Session: "l0", Verb: "close", Args: args})
	}
}

func lcIdle(cfg *server.Config) { cfg.IdleTimeout = 300 * time.Millisecond }
func lcShed(cfg *server.Config) { cfg.MemBudget, cfg.DiskPollEvery = 1, 5*time.Millisecond }

func lcEvicted(t *testing.T, T *lcServer) { waitCounter(t, T.srv, "server_event_eviction", 1) }

var lcWaysOut = []lcWayOut{
	{name: "close", leave: lcClose(), answer: wire.CodeNoSession},
	{name: "close_moved", leave: lcClose("moved", "unix:/elsewhere.sock"), answer: wire.CodeMoved},
	{name: "idle_eviction", cfg: lcIdle, leave: lcEvicted, answer: wire.CodeNoSession, kept: true, marks: true},
	{name: "memory_shed", cfg: lcShed, leave: lcEvicted, answer: wire.CodeNoSession, kept: true, marks: true},
	{name: "drain", leave: func(t *testing.T, T *lcServer) {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if _, err := T.srv.Shutdown(ctx); err != nil {
			t.Fatalf("drain: %v", err)
		}
	}, kept: true, marks: true},
	{name: "halt", leave: func(t *testing.T, T *lcServer) { T.srv.Halt() }, kept: true},
	{name: "idle_eviction_refused", cfg: lcIdle, refused: true, leave: lcEvicted,
		answer: wire.CodeNoSession, kept: true, marks: true},
	{name: "memory_shed_refused", cfg: lcShed, refused: true, leave: lcEvicted,
		answer: wire.CodeNoSession, kept: true, marks: true},
	{name: "drain_refused", refused: true, leave: func(t *testing.T, T *lcServer) {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if _, err := T.srv.Shutdown(ctx); err != nil {
			t.Fatalf("drain: %v", err)
		}
	}, kept: true, marks: true},
}

func TestSessionLifecycle(t *testing.T) {
	defer server.SetMemEvictIdle(100 * time.Millisecond)()
	for _, in := range lcWaysIn {
		for _, out := range lcWaysOut {
			if out.refused && in.follower {
				continue
			}
			t.Run(in.name+"/"+out.name, func(t *testing.T) {
				dir := shortDir(t)
				state := filepath.Join(dir, "t")
				// The disk probe is pinned at 50% free: the governor's real
				// probe must not change the rung on a nearly full host disk.
				plan := faultinject.New().ForceDiskFree(50, 100)
				cfg := server.Config{StateDir: state, WALSyncEvery: -1, Faults: plan}
				if out.cfg != nil {
					out.cfg(&cfg)
				}
				T, primary := in.host(t, dir, cfg)
				want := lcFingerprint(t, primary)
				if out.refused {
					plan.DiskFullAppends(1, 3) // the next append and both retries
					refusedRun(t, primary, "l0", 150)
					if got := lcFingerprint(t, primary); got != want {
						t.Fatalf("refused run left %q, want the acked %q", got, want)
					}
				}
				before := lcFiles(t, state)

				out.leave(t, T)

				after := lcFiles(t, state)
				if out.answer != "" {
					resp, err := T.c.Do(&server.Request{Session: "l0", Verb: "cycle", Args: []string{"p0"}})
					if err != nil || resp.Code != out.answer {
						t.Fatalf("l0 after %s = %+v err=%v, want code %q", out.name, resp, err, out.answer)
					}
				}
				switch {
				case !out.kept:
					if len(after) != 0 {
						t.Fatalf("%s left files: %v", out.name, keys(after))
					}
				case out.marks && !in.follower: // the stream is a follower's only journal writer
					if lcMarks(t, after["l0.wal"]) <= lcMarks(t, before["l0.wal"]) {
						t.Errorf("%s wrote no marks into the journal", out.name)
					}
					if _, ok := after["l0.p0.lscp"]; !ok {
						t.Errorf("%s left no watermark checkpoint: %v", out.name, keys(after))
					}
				default:
					if !sameFiles(before, after) {
						t.Errorf("%s changed the state dir: %v -> %v", out.name, keys(before), keys(after))
					}
				}
				if out.kept {
					if _, ok := after["l0.wal"]; !ok {
						t.Fatalf("%s dropped the journal: %v", out.name, keys(after))
					}
					if _, ok := after["l0.follower"]; ok != in.follower {
						t.Errorf("follower sidecar present=%v, want %v", ok, in.follower)
					}
				}

				T.srv.Halt()
				R := lcStart(t, server.Config{StateDir: state, WALSyncEvery: -1}, filepath.Join(dir, "r.sock"))
				R.srv.WaitRecovered()
				if !out.kept {
					if R.srv.Session("l0") != nil {
						t.Fatal("restart rebuilt a session its way out discarded")
					}
					return
				}
				if got := lcFingerprint(t, R.c); got != want {
					t.Fatalf("restart after %s = %q, want %q", out.name, got, want)
				}
				if in.follower {
					if info, _ := sessionInfo(t, R.c, "l0"); !info.Follower {
						t.Errorf("restarted copy = %+v, want a follower", info)
					}
				}
			})
		}
	}
}

func keys(m map[string][]byte) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}

func sameFiles(a, b map[string][]byte) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if w, ok := b[k]; !ok || !bytes.Equal(v, w) {
			return false
		}
	}
	return true
}

// TestEvictionAfterRefusedAppendKeepsAckedHistory is
// TestDrainAfterRefusedAppendKeepsAckedHistory with idle eviction in
// place of the drain: the eviction watermarks the rebuilt session, so
// the restart recovers exactly the acked history.
func TestEvictionAfterRefusedAppendKeepsAckedHistory(t *testing.T) {
	dir := shortDir(t)
	state := filepath.Join(dir, "state")
	plan := faultinject.New().ForceDiskFree(50, 100).DiskFullAppends(4, 3)
	cfgA := server.Config{
		StateDir: state, WALSyncEvery: -1, Faults: plan,
		IdleTimeout: 300 * time.Millisecond,
	}
	A := lcStart(t, cfgA, filepath.Join(dir, "a.sock"))
	createTiny(t, A.c, "e0", 25)
	mustOK(t, A.c, &server.Request{Session: "e0", Verb: "run", Args: []string{"clock", "p0", "200"}})
	refusedRun(t, A.c, "e0", 100)
	mustOK(t, A.c, &server.Request{Session: "e0", Verb: "run", Args: []string{"clock", "p0", "50"}})
	waitCounter(t, A.srv, "server_event_eviction", 1)
	A.srv.Halt()

	B := lcStart(t, server.Config{StateDir: state, WALSyncEvery: -1}, filepath.Join(dir, "b.sock"))
	B.srv.WaitRecovered()
	got := doUntilRecovered(t, B.c, &server.Request{Session: "e0", Verb: "cycle", Args: []string{"p0"}})
	if !strings.Contains(got.Output, "250 (version") {
		t.Fatalf("recovered cycle %q after eviction, want the acked 250", got.Output)
	}
}

// TestStopWaitsForRecovery stops a daemon while a journal replay is
// stalled mid-run. The stop must wait for the replay, and a replay that
// ends after the stop began — replayed or failed — must start nothing
// and leave the journal where it was: no worker, no recovery event, no
// .wal.failed set-aside.
func TestStopWaitsForRecovery(t *testing.T) {
	stops := map[string]func(*server.Server){
		"halt": (*server.Server).Halt,
		"drain": func(srv *server.Server) {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			if _, err := srv.Shutdown(ctx); err != nil {
				t.Errorf("drain: %v", err)
			}
		},
	}
	for stopName, stop := range stops {
		for _, fails := range []bool{false, true} {
			name := stopName + "/replays"
			if fails {
				name = stopName + "/fails"
			}
			t.Run(name, func(t *testing.T) {
				dir := shortDir(t)
				state := filepath.Join(dir, "state")
				A := lcStart(t, server.Config{StateDir: state, WALSyncEvery: -1}, filepath.Join(dir, "a.sock"))
				createTiny(t, A.c, "l0", 25)
				mustOK(t, A.c, &server.Request{Session: "l0", Verb: "run", Args: []string{"clock", "p0", "200"}})
				A.srv.Halt()
				if fails {
					// A record no replay can execute, after the stalled run.
					w, _, err := wal.Open(filepath.Join(state, "l0.wal"), wal.Options{})
					if err != nil {
						t.Fatal(err)
					}
					err = w.Append(&wal.Record{Type: wal.TypeCmd, Verb: "poke", Args: []string{"p0", "top.nosuch", "1"}})
					if cerr := w.Close(); err == nil {
						err = cerr
					}
					if err != nil {
						t.Fatal(err)
					}
				}
				journal, err := os.ReadFile(filepath.Join(state, "l0.wal"))
				if err != nil {
					t.Fatal(err)
				}

				plan := faultinject.New().StallRunAt(25, 500*time.Millisecond)
				B := lcStart(t, server.Config{StateDir: state, WALSyncEvery: -1, Faults: plan}, filepath.Join(dir, "b.sock"))
				for deadline := time.Now().Add(10 * time.Second); !strings.Contains(strings.Join(plan.Fired(), ","), "run-stall:25"); time.Sleep(time.Millisecond) {
					if time.Now().After(deadline) {
						t.Fatal("replay never reached the stall")
					}
				}
				stop(B.srv)
				B.srv.WaitRecovered()

				for _, ev := range B.srv.Events() {
					if ev.Type == "recovery" || ev.Type == "recovery_failed" {
						t.Errorf("a replay that ended after the stop recorded %s: %s", ev.Type, ev.Msg)
					}
				}
				if n := B.srv.Metrics().Counter("server_event_recovery").Value(); n != 0 {
					t.Errorf("%d session(s) started after the stop", n)
				}
				if fileExists(filepath.Join(state, "l0.wal.failed")) {
					t.Error("journal set aside as .wal.failed after the stop")
				}
				if got, err := os.ReadFile(filepath.Join(state, "l0.wal")); err != nil || !bytes.Equal(got, journal) {
					t.Errorf("journal changed across the stop (err=%v)", err)
				}
			})
		}
	}
}

// TestFollowerRestartKeepsTheStream drains a follower, restarts it on the
// same state dir and keeps shipping to it. The drain must not watermark
// the follower's journal: marks of its own would put its head past the
// primary's seq, the next batch would be answered repl_resync, and the
// shipper would skip as many of the primary's records.
func TestFollowerRestartKeepsTheStream(t *testing.T) {
	dir := shortDir(t)
	A := lcStart(t, server.Config{StateDir: filepath.Join(dir, "a"), WALSyncEvery: -1}, filepath.Join(dir, "a.sock"))
	tcfg := server.Config{StateDir: filepath.Join(dir, "t"), WALSyncEvery: -1}
	T := lcStart(t, tcfg, filepath.Join(dir, "t.sock"))
	createTiny(t, A.c, "l0", 25)
	lcMutate(t, A.c, func() {
		mustOK(t, A.c, &server.Request{Session: "l0", Verb: "replicate", Args: []string{T.addr}})
	})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if _, err := T.srv.Shutdown(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	T.c.Close()
	R := lcStart(t, tcfg, filepath.Join(dir, "t.sock"))
	R.srv.WaitRecovered()

	// The shipper redials the restarted follower on a later mutation.
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(100 * time.Millisecond) {
		mustOK(t, A.c, &server.Request{Session: "l0", Verb: "run", Args: []string{"clock", "p0", "5"}})
		if info, _ := sessionInfo(t, A.c, "l0"); info.HeadSeq > 0 && info.ReplAckedSeq == info.HeadSeq {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the stream never caught up with the restarted follower")
		}
	}
	if n := R.srv.Metrics().Counter("server_refused_repl_resync").Value(); n != 0 {
		t.Errorf("restarted follower answered %d batch(es) repl_resync", n)
	}
	if got, want := lcFingerprint(t, R.c), lcFingerprint(t, A.c); got != want {
		t.Errorf("follower after restart = %q, primary = %q", got, want)
	}
}
