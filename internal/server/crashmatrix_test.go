package server_test

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"livesim/internal/faultinject"
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
	binsOnce sync.Once
	binsDir  string
	binsErr  error
)

// emergencyDaemonEnv, set to "<socket>|<state dir>", makes this test
// binary serve as a daemon instead of running tests: a livesimd whose
// disk probe reads the emergency rung, which no livesimd flag forces.
// The crash matrix SIGKILLs it like any other child.
const emergencyDaemonEnv = "LIVESIM_TEST_EMERGENCY_DAEMON"

func TestMain(m *testing.M) {
	if spec := os.Getenv(emergencyDaemonEnv); spec != "" {
		sock, state, _ := strings.Cut(spec, "|")
		srv := server.New(server.Config{StateDir: state, WALSyncEvery: -1,
			Faults: faultinject.New().ForceDiskFree(2, 100), DiskPollEvery: time.Millisecond})
		os.Remove(sock) // a SIGKILLed daemon's socket file
		ln, err := net.Listen("unix", sock)
		if err == nil {
			err = srv.Recover()
		}
		if err == nil {
			err = srv.Serve(ln)
		}
		fmt.Fprintln(os.Stderr, "emergency daemon:", err)
		os.Exit(2)
	}
	code := m.Run()
	if binsDir != "" {
		os.RemoveAll(binsDir)
	}
	os.Exit(code)
}

// buildBinary returns the path of one shipped command — livesimd, lsgate
// or livesim — compiling all three once per test binary run.
func buildBinary(t *testing.T, name string) string {
	t.Helper()
	binsOnce.Do(func() {
		if binsDir, binsErr = os.MkdirTemp("", "lsdbin"); binsErr != nil {
			return
		}
		out, err := exec.Command("go", "build", "-o", binsDir+string(filepath.Separator),
			"livesim/cmd/livesimd", "livesim/cmd/lsgate", "livesim/cmd/livesim").CombinedOutput()
		if err != nil {
			binsErr = fmt.Errorf("go build: %v\n%s", err, out)
		}
	})
	if binsErr != nil {
		t.Fatal(binsErr)
	}
	return filepath.Join(binsDir, name)
}

// daemon is one child process under test control. done is closed (not
// sent to) when the child exits, so wait and the kill-on-cleanup path
// can both observe it.
type daemon struct {
	cmd  *exec.Cmd
	done chan struct{}
	log  *os.File
}

// startDaemon starts a livesimd with a state dir and per-append fsync.
// -disk-poll 1h keeps the disk-pressure ladder at its first rung: the
// host's free space must not batch the fsyncs or refuse the mutations
// the test relies on.
func startDaemon(t *testing.T, bin, sock, state string, extra ...string) *daemon {
	t.Helper()
	return startProc(t, bin, append([]string{"-unix", sock, "-state-dir", state,
		"-wal-fsync-every", "0", "-disk-poll", "1h", "-metrics=false"}, extra...)...)
}

// startProc starts bin with its output in a temp log file, and kills and
// reaps it in t.Cleanup.
func startProc(t *testing.T, bin string, args ...string) *daemon {
	t.Helper()
	return startCmd(t, exec.Command(bin, args...))
}

// startCmd is startProc for a command already built.
func startCmd(t *testing.T, cmd *exec.Cmd) *daemon {
	t.Helper()
	logf, err := os.CreateTemp("", "lsdlog")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { logf.Close(); os.Remove(logf.Name()) })
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

func (d *daemon) kill(t *testing.T) {
	t.Helper()
	d.cmd.Process.Kill()
	d.wait(t)
}

// terminate sends SIGTERM and requires exit status 0.
func (d *daemon) terminate(t *testing.T) {
	t.Helper()
	d.cmd.Process.Signal(syscall.SIGTERM)
	if ws := d.wait(t); ws.ExitStatus() != 0 {
		d.dumpLog(t)
		t.Fatalf("%s exit = %d on SIGTERM", filepath.Base(d.cmd.Path), ws.ExitStatus())
	}
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
	bin := buildBinary(t, "livesimd")

	// Probe run: same sequence, no crash point, killed hard at the end so
	// no drain watermark inflates the journal. Its size bounds the offset
	// sweep; the sequence is deterministic, so every offset in [1, size]
	// is reachable by the crashing runs.
	probeDir := shortDir(t)
	probe := startDaemon(t, bin, filepath.Join(probeDir, "d.sock"), filepath.Join(probeDir, "state"))
	driveMatrixSession(waitDial(t, filepath.Join(probeDir, "d.sock")))
	probe.kill(t)
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
			d2.terminate(t)
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
	bin := buildBinary(t, "livesimd")

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
	probeA.kill(t)
	probeB.kill(t)

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
			stby.kill(t)
			d2 := startDaemon(t, bin, sockB, filepath.Join(dir, "b"))
			c2 := waitDial(t, sockB)
			waitSessionSettled(t, c2)
			resp := mustOK(t, c2, &server.Request{Session: "s1", Verb: "cycle", Args: []string{"p0"}})
			if resp.Output != fp {
				d2.dumpLog(t)
				t.Fatalf("survivor replay fingerprint = %q, want %q", resp.Output, fp)
			}
			d2.terminate(t)
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
	bin := buildBinary(t, "livesimd")
	dir := shortDir(t)
	prim, _, sockA, sockB := replicatedPair(t, bin, dir)

	c := waitDial(t, sockA)
	if acked := driveReplicatedSession(c, "unix:"+sockB); acked != 300 {
		t.Fatalf("healthy pair acked %d cycles, want 300", acked)
	}
	prim.kill(t)

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

// matrixFingerprint is s1's observable state: its cycle line and the
// SHA-256 of a checkpoint file of pipe p0 — state, run history position,
// design version and testbench state — saved through the daemon to path.
func matrixFingerprint(t *testing.T, c *client.Client, path string) string {
	t.Helper()
	cycle := mustOK(t, c, &server.Request{Session: "s1", Verb: "cycle", Args: []string{"p0"}}).Output
	mustOK(t, c, &server.Request{Session: "s1", Verb: "chkp", Args: []string{"p0", path}})
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(data)
	return cycle + hex.EncodeToString(sum[:])
}

// restartSettled starts a livesimd on state and returns a client once s1
// has recovered.
func restartSettled(t *testing.T, bin, sock, state string) (*daemon, *client.Client) {
	t.Helper()
	d := startDaemon(t, bin, sock, state)
	c := waitDial(t, sock)
	waitSessionSettled(t, c)
	return d, c
}

// TestCrashMatrixENOSPCDuringAppend is the disk-full row: a real livesimd
// child whose 4th WAL append (run 100) and its retries fail with
// injected ENOSPC. The request gets the typed disk_full answer; the live
// session afterwards is a cold replay of its journal, checkpoint file
// for checkpoint file; the next mutation is taken; and after a SIGKILL
// the restart recovers exactly the acked history — 200 + 50 cycles, not
// the refused 100 — and keeps serving.
func TestCrashMatrixENOSPCDuringAppend(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and kills livesimd subprocesses")
	}
	bin := buildBinary(t, "livesimd")
	dir := shortDir(t)
	sock, state := filepath.Join(dir, "d.sock"), filepath.Join(dir, "state")

	// Appends for s1: 1 boot, 2 instpipe, 3 run(200), 4 run(100) — fail
	// append 4 plus both bounded retries.
	d := startDaemon(t, bin, sock, state, "-fault-disk-full", "4:3")
	c := waitDial(t, sock)
	mustOK(t, c, &server.Request{Session: "s1", Verb: "create", PGAS: 1, CheckpointEvery: 25})
	mustOK(t, c, &server.Request{Session: "s1", Verb: "instpipe", Args: []string{"p0"}})
	mustOK(t, c, &server.Request{Session: "s1", Verb: "run", Args: []string{"tb0", "p0", "200"}})
	resp, err := c.Do(&server.Request{Session: "s1", Verb: "run", Args: []string{"tb0", "p0", "100"}})
	if err != nil || resp.OK || resp.Code != wire.CodeDiskFull {
		d.dumpLog(t)
		t.Fatalf("run with a refused append: resp=%+v err=%v, want disk_full", resp, err)
	}
	live := matrixFingerprint(t, c, filepath.Join(dir, "live.lscp"))
	if !strings.HasPrefix(live, "  200 (version v0)") {
		t.Fatalf("live session after the refusal: %q, want cycle 200", live)
	}
	if info := waitSessionSettled(t, c); info.Quarantined {
		t.Fatalf("session quarantined by a refused append: %+v", info)
	}

	// Cold replay: a second daemon recovers a copy of the journal.
	cold := filepath.Join(dir, "cold")
	if err := os.MkdirAll(cold, 0o755); err != nil {
		t.Fatal(err)
	}
	journal, err := os.ReadFile(filepath.Join(state, "s1.wal"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(cold, "s1.wal"), journal, 0o644); err != nil {
		t.Fatal(err)
	}
	dc, cc := restartSettled(t, bin, filepath.Join(dir, "c.sock"), cold)
	if got := matrixFingerprint(t, cc, filepath.Join(dir, "cold.lscp")); got != live {
		dc.dumpLog(t)
		t.Fatalf("cold replay of the journal = %q, live session = %q", got, live)
	}
	dc.kill(t)

	mustOK(t, c, &server.Request{Session: "s1", Verb: "run", Args: []string{"tb0", "p0", "50"}})
	acked := matrixFingerprint(t, c, filepath.Join(dir, "acked.lscp"))
	d.kill(t)

	d2, c2 := restartSettled(t, bin, sock, state)
	if got := matrixFingerprint(t, c2, filepath.Join(dir, "recovered.lscp")); got != acked {
		d2.dumpLog(t)
		t.Fatalf("recovered %q, want the acked %q", got, acked)
	}
	mustOK(t, c2, &server.Request{Session: "s1", Verb: "run", Args: []string{"tb0", "p0", "10"}})
	d2.terminate(t)
}

// TestCrashMatrixEmergencyRefusalSIGKILL is the emergency-rung row: a
// session with acked history comes back on a daemon whose disk reads
// the emergency rung, a mutation there is refused with disk_full, and
// the daemon is SIGKILLed. The restart recovers exactly the acked
// history and keeps serving.
func TestCrashMatrixEmergencyRefusalSIGKILL(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and kills livesimd subprocesses")
	}
	bin := buildBinary(t, "livesimd")
	dir := shortDir(t)
	sock, state := filepath.Join(dir, "d.sock"), filepath.Join(dir, "state")

	d := startDaemon(t, bin, sock, state)
	c := waitDial(t, sock)
	mustOK(t, c, &server.Request{Session: "s1", Verb: "create", PGAS: 1, CheckpointEvery: 25})
	mustOK(t, c, &server.Request{Session: "s1", Verb: "instpipe", Args: []string{"p0"}})
	mustOK(t, c, &server.Request{Session: "s1", Verb: "run", Args: []string{"tb0", "p0", "200"}})
	acked := matrixFingerprint(t, c, filepath.Join(dir, "acked.lscp"))
	d.kill(t)

	// The emergency daemon recovers s1, then refuses the mutation.
	self, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(self)
	cmd.Env = append(os.Environ(), emergencyDaemonEnv+"="+sock+"|"+state)
	e := startCmd(t, cmd)
	c = waitDial(t, sock)
	waitSessionSettled(t, c)
	deadline := time.Now().Add(10 * time.Second)
	for {
		var h server.Health
		if err := json.Unmarshal(mustOK(t, c, &server.Request{Verb: "ping"}).Data, &h); err != nil {
			t.Fatal(err)
		}
		if h.DiskLevel == "emergency" {
			break
		}
		if time.Now().After(deadline) {
			e.dumpLog(t)
			t.Fatalf("the emergency daemon never reached the emergency rung: %+v", h)
		}
		time.Sleep(5 * time.Millisecond)
	}
	resp, err := c.Do(&server.Request{Session: "s1", Verb: "run", Args: []string{"tb0", "p0", "100"}})
	if err != nil || resp.OK || resp.Code != wire.CodeDiskFull {
		e.dumpLog(t)
		t.Fatalf("run at the emergency rung: resp=%+v err=%v, want disk_full", resp, err)
	}
	e.kill(t)

	d2, c2 := restartSettled(t, bin, sock, state)
	if got := matrixFingerprint(t, c2, filepath.Join(dir, "recovered.lscp")); got != acked {
		d2.dumpLog(t)
		t.Fatalf("recovered %q, want the acked %q", got, acked)
	}
	mustOK(t, c2, &server.Request{Session: "s1", Verb: "run", Args: []string{"tb0", "p0", "10"}})
	d2.terminate(t)
}
