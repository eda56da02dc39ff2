package server_test

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"livesim/internal/server"
	"livesim/internal/server/client"
	"livesim/internal/wal"
	"livesim/internal/wire"
)

// The subprocess crash matrix: a real livesimd child is SIGKILLed at
// faultinject-chosen durable WAL offsets (-crash-wal-offset wires
// Plan.CrashWALAt to a self-SIGKILL), then restarted on the same state
// dir. Whatever prefix of the journal survived, recovery must reproduce
// exactly the state that prefix claims — the journaled post-run cycle
// and version are the pre-kill fingerprint — and the daemon must never
// fail to boot.

var (
	livesimdOnce sync.Once
	livesimdBin  string
	livesimdErr  error
)

// buildLivesimd compiles the daemon once per test binary run.
func buildLivesimd(t *testing.T) string {
	t.Helper()
	livesimdOnce.Do(func() {
		dir, err := os.MkdirTemp("", "lsdbin")
		if err != nil {
			livesimdErr = err
			return
		}
		livesimdBin = filepath.Join(dir, "livesimd")
		out, err := exec.Command("go", "build", "-o", livesimdBin, "livesim/cmd/livesimd").CombinedOutput()
		if err != nil {
			livesimdErr = fmt.Errorf("go build livesimd: %v\n%s", err, out)
		}
	})
	if livesimdErr != nil {
		t.Fatal(livesimdErr)
	}
	return livesimdBin
}

// daemon is one livesimd child process under test control. done is
// closed (not sent to) when the child exits, so wait and the kill-on-
// cleanup path can both observe it.
type daemon struct {
	cmd  *exec.Cmd
	done chan struct{}
	log  *os.File
}

func startDaemon(t *testing.T, bin, sock, state string, extra ...string) *daemon {
	t.Helper()
	logf, err := os.CreateTemp("", "lsdlog")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { logf.Close(); os.Remove(logf.Name()) })
	args := append([]string{"-unix", sock, "-state-dir", state,
		"-wal-fsync-every", "0", "-metrics=false"}, extra...)
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = logf, logf
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	d := &daemon{cmd: cmd, done: make(chan struct{}), log: logf}
	go func() { cmd.Wait(); close(d.done) }()
	t.Cleanup(func() {
		cmd.Process.Kill()
		<-d.done
	})
	return d
}

func (d *daemon) dumpLog(t *testing.T) {
	t.Helper()
	data, _ := os.ReadFile(d.log.Name())
	t.Logf("daemon log:\n%s", data)
}

// wait blocks until the child exits and returns its WaitStatus.
func (d *daemon) wait(t *testing.T) syscall.WaitStatus {
	t.Helper()
	select {
	case <-d.done:
	case <-time.After(15 * time.Second):
		d.dumpLog(t)
		t.Fatal("daemon did not exit")
	}
	ws, ok := d.cmd.ProcessState.Sys().(syscall.WaitStatus)
	if !ok {
		t.Fatalf("no wait status: %v", d.cmd.ProcessState)
	}
	return ws
}

// waitDial polls until the daemon's socket accepts a connection.
func waitDial(t *testing.T, sock string) *client.Client {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		c, err := client.Dial("unix:" + sock)
		if err == nil {
			t.Cleanup(func() { c.Close() })
			return c
		}
		if time.Now().After(deadline) {
			t.Fatalf("daemon never listened on %s: %v", sock, err)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// driveMatrixSession plays the fixed mutation sequence the matrix kills
// at different points: create pgas → instpipe → run 200 → run 100.
// Errors are tolerated — once the child SIGKILLs itself, in-flight and
// later requests fail at the transport.
func driveMatrixSession(c *client.Client) {
	reqs := []*server.Request{
		{Session: "s1", Verb: "create", PGAS: 1, CheckpointEvery: 25},
		{Session: "s1", Verb: "instpipe", Args: []string{"p0"}},
		{Session: "s1", Verb: "run", Args: []string{"tb0", "p0", "200"}},
		{Session: "s1", Verb: "run", Args: []string{"tb0", "p0", "100"}},
	}
	for _, req := range reqs {
		if _, err := c.Do(req); err != nil {
			return
		}
	}
}

// waitSessionSettled polls `sessions` until s1 exists and has left the
// recovering state, so the matrix can distinguish "still replaying"
// from "recovered to a boot-only session with no pipes".
func waitSessionSettled(t *testing.T, c *client.Client) server.SessionInfo {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := c.Do(&server.Request{Verb: "sessions"})
		if err != nil {
			t.Fatalf("sessions: %v", err)
		}
		var infos []server.SessionInfo
		if err := json.Unmarshal(resp.Data, &infos); err != nil {
			t.Fatalf("sessions data: %v", err)
		}
		for _, info := range infos {
			if info.Name == "s1" && !info.Recovering {
				return info
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("session s1 never finished recovering: %s", resp.Data)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestCrashMatrixSIGKILLAtWALOffsets(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and kills livesimd subprocesses")
	}
	bin := buildLivesimd(t)

	// Probe run: same sequence, no crash point, killed hard at the end so
	// no drain watermark inflates the journal. Its size bounds the offset
	// sweep; the sequence is deterministic, so every offset in [1, size]
	// is reachable by the crashing runs.
	probeDir := shortDir(t)
	probe := startDaemon(t, bin, filepath.Join(probeDir, "d.sock"), filepath.Join(probeDir, "state"))
	driveMatrixSession(waitDial(t, filepath.Join(probeDir, "d.sock")))
	probe.cmd.Process.Kill()
	probe.wait(t)
	fi, err := os.Stat(filepath.Join(probeDir, "state", "s1.wal"))
	if err != nil {
		probe.dumpLog(t)
		t.Fatal(err)
	}
	walSize := fi.Size()

	offsets := []int64{1, walSize / 3, 2 * walSize / 3, walSize}
	seen := map[int64]bool{}
	for _, off := range offsets {
		if off < 1 || seen[off] {
			continue
		}
		seen[off] = true
		t.Run(fmt.Sprintf("offset-%d", off), func(t *testing.T) {
			dir := shortDir(t)
			sock, state := filepath.Join(dir, "d.sock"), filepath.Join(dir, "state")

			// Phase 1: drive until the armed offset SIGKILLs the child.
			d := startDaemon(t, bin, sock, state, "-crash-wal-offset", fmt.Sprint(off))
			driveMatrixSession(waitDial(t, sock))
			if ws := d.wait(t); !ws.Signaled() || ws.Signal() != syscall.SIGKILL {
				d.dumpLog(t)
				t.Fatalf("child exit = %v, want SIGKILL", d.cmd.ProcessState)
			}

			// Oracle: read the durable journal prefix ourselves. The last
			// journaled run's post-run cycle (and version) is the pre-kill
			// fingerprint recovery must reproduce.
			w, recs, err := wal.Open(filepath.Join(state, "s1.wal"), wal.Options{})
			if err != nil {
				t.Fatalf("journal unreadable after SIGKILL: %v", err)
			}
			w.Close()
			if len(recs) == 0 || recs[0].Type != wal.TypeBoot {
				t.Fatalf("durable journal lost its boot record: %d recs", len(recs))
			}
			wantCycle, wantVersion, havePipe := uint64(0), "v0", false
			for _, rec := range recs {
				if rec.Type != wal.TypeCmd {
					continue
				}
				wantVersion = rec.Version
				switch rec.Verb {
				case "instpipe":
					havePipe = true
				case "run":
					wantCycle = rec.Cycle
				}
			}

			// Phase 2: restart on the same state dir; the session must come
			// back at exactly the durable prefix's state and accept new work.
			d2 := startDaemon(t, bin, sock, state)
			c := waitDial(t, sock)
			waitSessionSettled(t, c)
			cycleReq := &server.Request{Session: "s1", Verb: "cycle", Args: []string{"p0"}}
			if !havePipe {
				if resp, err := c.Do(cycleReq); err != nil || resp.OK {
					t.Fatalf("boot-only recovery should have no pipe p0: resp=%+v err=%v", resp, err)
				}
			} else {
				resp := mustOK(t, c, cycleReq)
				want := fmt.Sprintf("%d (version %s)", wantCycle, wantVersion)
				if !strings.Contains(resp.Output, want) {
					d2.dumpLog(t)
					t.Fatalf("recovered cycle = %q, want %q", resp.Output, want)
				}
				mustOK(t, c, &server.Request{Session: "s1", Verb: "run", Args: []string{"tb0", "p0", "10"}})
				resp = mustOK(t, c, cycleReq)
				if !strings.Contains(resp.Output, fmt.Sprint(wantCycle+10)) {
					t.Fatalf("post-recovery run: %q", resp.Output)
				}
			}

			// Phase 3: the restarted daemon must still drain cleanly.
			d2.cmd.Process.Signal(syscall.SIGTERM)
			if ws := d2.wait(t); ws.ExitStatus() != 0 {
				d2.dumpLog(t)
				t.Fatalf("restarted daemon exit = %d on SIGTERM", ws.ExitStatus())
			}
		})
	}
}

// replicatedPair starts a primary+standby livesimd pair on their own
// state dirs and returns the primary daemon plus both socket paths.
// extra flags go to the primary (the one the matrix kills). It returns
// once the standby listens: a `replicate` sent to a standby still
// starting fails, and the row would then promote a session never seeded.
func replicatedPair(t *testing.T, bin, dir string, extra ...string) (prim, stby *daemon, sockA, sockB string) {
	t.Helper()
	sockA, sockB = filepath.Join(dir, "a.sock"), filepath.Join(dir, "b.sock")
	prim = startDaemon(t, bin, sockA, filepath.Join(dir, "a"), extra...)
	stby = startDaemon(t, bin, sockB, filepath.Join(dir, "b"))
	waitDial(t, sockB)
	return prim, stby, sockA, sockB
}

// driveReplicatedSession arms replication after the session exists, then
// runs the same fixed mutation tail as the plain matrix. It returns how
// many cycles the client holds acks for: every OK run response was only
// sent after the standby fsynced the shipped record, so the promoted
// standby owes the client at least this many cycles. Transport errors
// are tolerated — the primary SIGKILLs itself mid-sequence.
func driveReplicatedSession(c *client.Client, standbyAddr string) (ackedCycles uint64) {
	reqs := []*server.Request{
		{Session: "s1", Verb: "create", PGAS: 1, CheckpointEvery: 25},
		{Session: "s1", Verb: "instpipe", Args: []string{"p0"}},
		{Session: "s1", Verb: "replicate", Args: []string{standbyAddr}},
		{Session: "s1", Verb: "run", Args: []string{"tb0", "p0", "200"}},
		{Session: "s1", Verb: "run", Args: []string{"tb0", "p0", "100"}},
	}
	cycles := map[int]uint64{3: 200, 4: 100}
	for i, req := range reqs {
		resp, err := c.Do(req)
		if err != nil {
			return ackedCycles
		}
		if resp.OK {
			ackedCycles += cycles[i]
		}
	}
	return ackedCycles
}

// promotedCycle promotes s1 on the standby and returns the cycle count
// it serves at, asserting the session is now a writable primary.
func promotedCycle(t *testing.T, c *client.Client) uint64 {
	t.Helper()
	mustOK(t, c, &server.Request{Session: "s1", Verb: "promote"})
	resp := mustOK(t, c, &server.Request{Session: "s1", Verb: "cycle", Args: []string{"p0"}})
	var n uint64
	if _, err := fmt.Sscanf(strings.TrimSpace(resp.Output), "%d", &n); err != nil {
		t.Fatalf("unparseable cycle output %q: %v", resp.Output, err)
	}
	return n
}

// TestCrashMatrixReplicatedPrimarySIGKILL is the replication row of the
// crash matrix: the primary of a replicated pair SIGKILLs itself at
// swept durable-WAL offsets while the stream is armed. At every offset
// the standby must promote into a primary that (a) holds every cycle the
// client was acked — the ship-on-commit ack ordering makes anything less
// a durability lie — and (b) replays bit-identically from its own
// shipped journal after a crash of its own.
func TestCrashMatrixReplicatedPrimarySIGKILL(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and kills livesimd subprocesses")
	}
	bin := buildLivesimd(t)

	// Probe run: find the journal size when replication arms (the sweep
	// only kills past it — earlier offsets are the plain matrix's rows)
	// and the final size bounding the sweep.
	probeDir := shortDir(t)
	probeA, probeB, pSockA, pSockB := replicatedPair(t, bin, probeDir)
	pc := waitDial(t, pSockA)
	for _, req := range []*server.Request{
		{Session: "s1", Verb: "create", PGAS: 1, CheckpointEvery: 25},
		{Session: "s1", Verb: "instpipe", Args: []string{"p0"}},
		{Session: "s1", Verb: "replicate", Args: []string{"unix:" + pSockB}},
	} {
		mustOK(t, pc, req)
	}
	fi, err := os.Stat(filepath.Join(probeDir, "a", "s1.wal"))
	if err != nil {
		t.Fatal(err)
	}
	seedSize := fi.Size()
	mustOK(t, pc, &server.Request{Session: "s1", Verb: "run", Args: []string{"tb0", "p0", "200"}})
	mustOK(t, pc, &server.Request{Session: "s1", Verb: "run", Args: []string{"tb0", "p0", "100"}})
	if fi, err = os.Stat(filepath.Join(probeDir, "a", "s1.wal")); err != nil {
		t.Fatal(err)
	}
	walSize := fi.Size()
	probeA.cmd.Process.Kill()
	probeB.cmd.Process.Kill()
	probeA.wait(t)
	probeB.wait(t)

	offsets := []int64{seedSize + 1, seedSize + (walSize-seedSize)/2, walSize}
	seen := map[int64]bool{}
	for _, off := range offsets {
		if off <= seedSize || seen[off] {
			continue
		}
		seen[off] = true
		t.Run(fmt.Sprintf("offset-%d", off), func(t *testing.T) {
			dir := shortDir(t)
			prim, stby, sockA, sockB := replicatedPair(t, bin, dir,
				"-crash-wal-offset", fmt.Sprint(off))

			acked := driveReplicatedSession(waitDial(t, sockA), "unix:"+sockB)
			if ws := prim.wait(t); !ws.Signaled() || ws.Signal() != syscall.SIGKILL {
				prim.dumpLog(t)
				t.Fatalf("primary exit = %v, want SIGKILL", prim.cmd.ProcessState)
			}

			// Promote the standby: zero lost acked mutations means its cycle
			// counter covers every acked run. (It may exceed it — a shipped
			// record whose client ack died with the primary is at-least-once,
			// never a loss.)
			cB := waitDial(t, sockB)
			cycle := promotedCycle(t, cB)
			if cycle < acked {
				stby.dumpLog(t)
				t.Fatalf("promoted standby at cycle %d < %d acked cycles: acked mutations lost", cycle, acked)
			}
			mustOK(t, cB, &server.Request{Session: "s1", Verb: "run", Args: []string{"tb0", "p0", "10"}})
			fp := mustOK(t, cB, &server.Request{Session: "s1", Verb: "cycle", Args: []string{"p0"}}).Output

			// Survivor replay: SIGKILL the promoted copy too; its shipped
			// journal must recover the exact fingerprint it served live.
			stby.cmd.Process.Kill()
			stby.wait(t)
			d2 := startDaemon(t, bin, sockB, filepath.Join(dir, "b"))
			c2 := waitDial(t, sockB)
			waitSessionSettled(t, c2)
			resp := mustOK(t, c2, &server.Request{Session: "s1", Verb: "cycle", Args: []string{"p0"}})
			if resp.Output != fp {
				d2.dumpLog(t)
				t.Fatalf("survivor replay fingerprint = %q, want %q", resp.Output, fp)
			}
			d2.cmd.Process.Signal(syscall.SIGTERM)
			if ws := d2.wait(t); ws.ExitStatus() != 0 {
				d2.dumpLog(t)
				t.Fatalf("survivor exit = %d on SIGTERM", ws.ExitStatus())
			}
		})
	}
}

// TestCrashMatrixStalePrimaryFenced: after a SIGKILL + promotion, the
// old primary restarts on its own state dir with no memory of being
// superseded. The first mutation stamped with the promoted epoch must
// make it fence itself with the typed code — across a real process
// boundary, not just in-process flags.
func TestCrashMatrixStalePrimaryFenced(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and kills livesimd subprocesses")
	}
	bin := buildLivesimd(t)
	dir := shortDir(t)
	prim, _, sockA, sockB := replicatedPair(t, bin, dir)

	c := waitDial(t, sockA)
	if acked := driveReplicatedSession(c, "unix:"+sockB); acked != 300 {
		t.Fatalf("healthy pair acked %d cycles, want 300", acked)
	}
	prim.cmd.Process.Kill()
	prim.wait(t)

	cB := waitDial(t, sockB)
	if cycle := promotedCycle(t, cB); cycle != 300 {
		t.Fatalf("promoted standby at cycle %d, want 300", cycle)
	}
	var epoch uint64
	resp := mustOK(t, cB, &server.Request{Verb: "sessions"})
	var infos []server.SessionInfo
	if err := json.Unmarshal(resp.Data, &infos); err != nil {
		t.Fatal(err)
	}
	for _, info := range infos {
		if info.Name == "s1" {
			epoch = info.Epoch
		}
	}
	if epoch == 0 {
		t.Fatalf("promoted session has no epoch: %s", resp.Data)
	}

	// Resurrect the corpse. It recovers s1 as a primary at epoch 0 —
	// the epoch stamp on the next mutation is what fences it.
	d2 := startDaemon(t, bin, sockA, filepath.Join(dir, "a"))
	c2 := waitDial(t, sockA)
	waitSessionSettled(t, c2)
	fenced, err := c2.Do(&server.Request{Session: "s1", Verb: "run",
		Args: []string{"tb0", "p0", "10"}, Epoch: epoch})
	if err != nil {
		t.Fatal(err)
	}
	if fenced.OK || fenced.Code != wire.CodeFenced {
		d2.dumpLog(t)
		t.Fatalf("stale primary mutation = %+v, want code %q", fenced, wire.CodeFenced)
	}
	// The fence is sticky: even an unstamped mutation is now rejected.
	sticky, err := c2.Do(&server.Request{Session: "s1", Verb: "run", Args: []string{"tb0", "p0", "10"}})
	if err != nil {
		t.Fatal(err)
	}
	if sticky.OK || sticky.Code != wire.CodeFenced {
		t.Fatalf("fence not sticky: %+v", sticky)
	}
	// And the survivor is untouched by the corpse's attempts.
	if out := mustOK(t, cB, &server.Request{Session: "s1", Verb: "cycle", Args: []string{"p0"}}).Output; !strings.Contains(out, "300 (version") {
		t.Fatalf("survivor cycle = %q, want 300", out)
	}
}

// waitSessionDurable polls `sessions` until s1's nondurable flag
// reaches want, failing fast if the session ever lands in quarantine —
// an ENOSPC incident must degrade durability, not condemn the session.
func waitSessionDurable(t *testing.T, c *client.Client, nondurable bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := c.Do(&server.Request{Verb: "sessions"})
		if err != nil {
			t.Fatalf("sessions: %v", err)
		}
		var infos []server.SessionInfo
		if err := json.Unmarshal(resp.Data, &infos); err != nil {
			t.Fatalf("sessions data: %v", err)
		}
		for _, info := range infos {
			if info.Name != "s1" {
				continue
			}
			if info.Quarantined {
				t.Fatalf("session quarantined during ENOSPC incident: %+v", info)
			}
			if info.Nondurable == nondurable {
				return
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("session never reached nondurable=%v: %s", nondurable, resp.Data)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestCrashMatrixENOSPCDuringAppend extends the matrix with the
// disk-full row: a real livesimd child whose 4th WAL append (run 100)
// and its retries fail with injected ENOSPC. The mutation must still
// succeed, the session must land journal-paused (nondurable) — NOT
// quarantined — and once space returns the next mutation resumes
// durability via reanchor, proven by a clean drain, a restart
// recovering the exact state, and continued service.
func TestCrashMatrixENOSPCDuringAppend(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and restarts livesimd subprocesses")
	}
	bin := buildLivesimd(t)
	dir := shortDir(t)
	sock, state := filepath.Join(dir, "d.sock"), filepath.Join(dir, "state")

	// Appends for s1: 1 boot, 2 instpipe, 3 run(200), 4 run(100) — fail
	// append 4 plus both bounded retries so the journal pauses.
	d := startDaemon(t, bin, sock, state,
		"-fault-disk-full", "4:3", "-journal-resume-delay", "50ms")
	c := waitDial(t, sock)
	for _, req := range []*server.Request{
		{Session: "s1", Verb: "create", PGAS: 1, CheckpointEvery: 25},
		{Session: "s1", Verb: "instpipe", Args: []string{"p0"}},
		{Session: "s1", Verb: "run", Args: []string{"tb0", "p0", "200"}},
		{Session: "s1", Verb: "run", Args: []string{"tb0", "p0", "100"}},
	} {
		resp, err := c.Do(req)
		if err != nil || !resp.OK {
			d.dumpLog(t)
			t.Fatalf("%s %v: resp=%+v err=%v", req.Verb, req.Args, resp, err)
		}
	}
	waitSessionDurable(t, c, true)

	// The fault plan is exhausted — space has "returned". The next
	// mutation after the cooldown must resume and reanchor the journal.
	time.Sleep(80 * time.Millisecond)
	if resp, err := c.Do(&server.Request{Session: "s1", Verb: "run", Args: []string{"tb0", "p0", "50"}}); err != nil || !resp.OK {
		d.dumpLog(t)
		t.Fatalf("post-incident run: resp=%+v err=%v", resp, err)
	}
	waitSessionDurable(t, c, false)

	// A daemon that weathered ENOSPC must still drain cleanly.
	d.cmd.Process.Signal(syscall.SIGTERM)
	if ws := d.wait(t); ws.ExitStatus() != 0 {
		d.dumpLog(t)
		t.Fatalf("daemon exit = %d on SIGTERM after ENOSPC incident", ws.ExitStatus())
	}

	// Restart: the reanchored journal recovers everything, including the
	// mutations made while nondurable (200 + 100 + 50 = 350).
	d2 := startDaemon(t, bin, sock, state)
	c2 := waitDial(t, sock)
	info := waitSessionSettled(t, c2)
	if info.Nondurable || info.Quarantined {
		t.Fatalf("recovered session not healthy: %+v", info)
	}
	resp := mustOK(t, c2, &server.Request{Session: "s1", Verb: "cycle", Args: []string{"p0"}})
	if !strings.Contains(resp.Output, "350 (version") {
		d2.dumpLog(t)
		t.Fatalf("recovered cycle = %q, want 350", resp.Output)
	}
	mustOK(t, c2, &server.Request{Session: "s1", Verb: "run", Args: []string{"tb0", "p0", "10"}})
	d2.cmd.Process.Signal(syscall.SIGTERM)
	if ws := d2.wait(t); ws.ExitStatus() != 0 {
		d2.dumpLog(t)
		t.Fatalf("restarted daemon exit = %d on SIGTERM", ws.ExitStatus())
	}
}
