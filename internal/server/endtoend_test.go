package server_test

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"livesim/internal/core"
	"livesim/internal/server"
)

// The shipped binaries end to end: livesimd, lsgate and the livesim
// client run as child processes and are driven the way an operator
// drives them — transcripts on the client's stdin, the admin plane over
// HTTP, signals to the daemons.

// cli pipes lines to `livesim -connect unix:<sock> -session s1 flags...`
// and returns what it printed. A piped transcript gets no prompt, so a
// "livesim>" anywhere in the output fails the test.
func cli(t *testing.T, sock string, flags []string, lines ...string) string {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	args := append([]string{"-connect", "unix:" + sock, "-session", "s1"}, flags...)
	cmd := exec.CommandContext(ctx, buildBinary(t, "livesim"), args...)
	cmd.Stdin = strings.NewReader(strings.Join(lines, "\n") + "\n")
	out, _ := cmd.CombinedOutput()
	if strings.Contains(string(out), "livesim>") {
		t.Fatalf("prompt in a piped transcript:\n%s", out)
	}
	return string(out)
}

func mustContain(t *testing.T, out string, wants ...string) {
	t.Helper()
	for _, want := range wants {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
}

// eventually polls cond until it holds, failing the test after 10 s.
func eventually(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(50 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("never: %s", what)
		}
	}
}

// jsonLines reads a JSONL file, failing the test on a line that is not
// a JSON object.
func jsonLines(t *testing.T, path string) []map[string]any {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var lines []map[string]any
	for i, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		var m map[string]any
		if err := json.Unmarshal([]byte(line), &m); err != nil {
			t.Fatalf("%s line %d is not JSON: %v: %q", path, i+1, err, line)
		}
		lines = append(lines, m)
	}
	return lines
}

// logged returns the fields of the first log line whose msg starts with
// prefix.
func (d *daemon) logged(t *testing.T, prefix string) map[string]any {
	t.Helper()
	for _, m := range jsonLines(t, d.log.Name()) {
		if msg, _ := m["msg"].(string); strings.HasPrefix(msg, prefix) {
			return m
		}
	}
	d.dumpLog(t)
	t.Fatalf("no %q line in the log", prefix)
	return nil
}

func httpGet(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s = %s, %v: %s", url, resp.Status, err, body)
	}
	return string(body)
}

// checkBlackbox requires dir to hold a blackbox-*.jsonl whose lines all
// parse, the first being the dump's header.
func checkBlackbox(t *testing.T, dir string) {
	t.Helper()
	paths, _ := filepath.Glob(filepath.Join(dir, "blackbox-*.jsonl"))
	if len(paths) == 0 {
		t.Fatalf("no blackbox-*.jsonl in %s", dir)
	}
	for _, path := range paths {
		if ev := jsonLines(t, path)[0]["ev"]; ev != "blackbox" {
			t.Fatalf("%s starts with ev %v, not its header", path, ev)
		}
	}
}

// TestDaemonEndToEnd drives one livesimd through a profiled session, its
// admin plane, a SIGKILL and restart on the same state dir, and a
// SIGTERM drain into a drain dir the daemon made itself.
func TestDaemonEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs livesimd and livesim")
	}
	bin := buildBinary(t, "livesimd")
	dir := shortDir(t)
	sock, state, drain := filepath.Join(dir, "d.sock"), filepath.Join(dir, "state"), filepath.Join(dir, "drain")
	flags := []string{"-admin-addr", "127.0.0.1:0", "-drain-dir", drain, "-blackbox-flush", "100ms"}
	d := startDaemon(t, bin, sock, state, flags...)
	waitDial(t, sock)
	admin := "http://" + d.logged(t, "admin endpoint listening")["addr"].(string)

	out := cli(t, sock, nil, "create pgas 1", "instpipe p0", "profile start", "run tb0 p0 200",
		"profile report", "cycle p0", "top", "events")
	mustContain(t, out, "pipe p0 (recording):", "quiescence:", "200 (version v0)", "SESSION", "session_created")
	insts := regexp.MustCompile(`profile: (\d+) instances`).FindStringSubmatch(out)
	if insts == nil || insts[1] == "0" {
		t.Fatalf("no instance count in the profile report:\n%s", out)
	}

	mustContain(t, httpGet(t, admin+"/healthz"), `"status":"ok"`)
	mustContain(t, "\n"+httpGet(t, admin+"/metrics"),
		"\n# TYPE livesim_server_requests counter\n", "\nlivesim_server_requests ",
		"\nlivesim_session_requests{session=\"s1\"}",
		"\nlivesim_request_latency_seconds{quantile=\"0.99\",verb=\"run\"}")
	mustContain(t, httpGet(t, admin+"/eventsz"), `"session_created"`)
	var profiles map[string][]core.PipeProfile
	if err := json.Unmarshal([]byte(httpGet(t, admin+"/profilez?session=s1")), &profiles); err != nil {
		t.Fatal(err)
	}
	if p := profiles["s1"]; len(p) != 1 || !p[0].Enabled || p[0].Snapshot.Cycles != 200 ||
		fmt.Sprint(p[0].Snapshot.Instances) != insts[1] {
		t.Fatalf("/profilez = %+v, want p0 recording 200 cycles over the report's %s instances", profiles, insts[1])
	}

	// SIGKILL leaves the periodically flushed black box; the restart
	// replays the journal to the pre-kill cycle and takes new work.
	d.kill(t)
	jsonLines(t, d.log.Name())
	checkBlackbox(t, state)
	if _, err := os.Stat(filepath.Join(state, "s1.wal")); err != nil {
		t.Fatal(err)
	}
	d2 := startDaemon(t, bin, sock, state, flags...)
	waitSessionSettled(t, waitDial(t, sock))
	mustContain(t, cli(t, sock, nil, "cycle p0", "run tb0 p0 50", "cycle p0"), "200 (version v0)", "250 (version v0)")

	d2.terminate(t)
	d2.logged(t, "drained cleanly")
	if _, err := os.Stat(filepath.Join(drain, "s1.p0.lscp")); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(drain, "drain.json"))
	if err != nil {
		t.Fatal(err)
	}
	var rep server.DrainReport
	if err := json.Unmarshal(data, &rep); err != nil || len(rep.Sessions) != 1 || rep.Sessions[0].Name != "s1" {
		t.Fatalf("drain.json = %s (%v), want session s1", data, err)
	}
}

// TestFleetEndToEnd drives two replicating livesimd behind an lsgate:
// one client-stamped trace across three processes, a live migration, a
// SIGKILL of the primary promoting its standby, and the resurrected
// corpse fencing itself.
func TestFleetEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs livesimd, lsgate and livesim")
	}
	bin := buildBinary(t, "livesimd")
	dir := shortDir(t)
	a, b, sockA, sockB := replicatedPair(t, bin, dir)
	waitDial(t, sockA)
	gsock := filepath.Join(dir, "g.sock")
	gate := startProc(t, buildBinary(t, "lsgate"), "-unix", gsock,
		"-backend", "unix:"+sockA, "-backend", "unix:"+sockB, "-replicate",
		"-failover-grace", "300ms", "-health-every", "50ms", "-metrics=false", "-admin-addr", "127.0.0.1:0")
	waitDial(t, gsock)
	gadmin := "http://" + gate.logged(t, "admin endpoint listening")["addr"].(string)

	type backend struct {
		d           *daemon
		sock, state string
	}
	fleet := []backend{{a, sockA, filepath.Join(dir, "a")}, {b, sockB, filepath.Join(dir, "b")}}
	// primary finds the backend of the sessions row carrying the stream.
	primary := func(out string) (prim, other backend) {
		m := regexp.MustCompile(`(?m)^s1\s+@unix:(\S+) .* repl=`).FindStringSubmatch(out)
		if m == nil {
			t.Fatalf("no primary row in:\n%s", out)
		}
		if m[1] == sockA {
			return fleet[0], fleet[1]
		}
		return fleet[1], fleet[0]
	}

	const tid = "deadbeefcafef00d"
	out := cli(t, gsock, []string{"-trace", tid}, "create pgas 1", "instpipe p0", "run tb0 p0 50", "cycle p0", "sessions")
	mustContain(t, out, "50 (version v0)", " repl=", " FOLLOWER")
	trace := cli(t, gsock, nil, "trace "+tid)
	mustContain(t, trace, "across 3 processes", "request", "forward", "replicate_ship", "replapply")
	if strings.Contains(trace, "incomplete") {
		t.Fatalf("a healthy fleet assembled an incomplete tree:\n%s", trace)
	}
	var health struct {
		Gateway         bool
		Backends, Alive int
	}
	if body := httpGet(t, gadmin+"/healthz"); json.Unmarshal([]byte(body), &health) != nil ||
		!health.Gateway || health.Backends != 2 || health.Alive != 2 {
		t.Fatalf("lsgate /healthz = %s", body)
	}
	mustContain(t, httpGet(t, gadmin+"/metrics"), "# TYPE lsgate_gateway_")

	src, dst := primary(out)
	out = cli(t, gsock, nil, "migrate", "cycle p0", "sessions")
	mustContain(t, out, `"to":"unix:`+dst.sock+`"`, "50 (version v0)")
	prim, surv := primary(out)
	if prim != dst {
		t.Fatalf("after migrating off %s the stream starts at %s", src.sock, prim.sock)
	}

	prim.d.kill(t)
	checkBlackbox(t, prim.state)
	eventually(t, "the standby serves the acked cycle", func() bool {
		return strings.Contains(cli(t, gsock, nil, "cycle p0"), "50 (version v0)")
	})
	out = cli(t, gsock, nil, "run tb0 p0 25", "cycle p0", "sessions")
	mustContain(t, out, "75 (version v0)", " epoch=")
	epoch := regexp.MustCompile(` epoch=(\d+)`).FindStringSubmatch(out)[1]
	eventually(t, "backends marks the corpse down", func() bool {
		return strings.Contains(cli(t, gsock, nil, "backends"), `"state":"down"`)
	})
	eventually(t, "a partial tree marked incomplete", func() bool {
		tr := cli(t, gsock, nil, "trace "+tid)
		return strings.Contains(tr, "incomplete") && strings.Contains(tr, "request")
	})
	// The gateway goes first: its reconcile sweep would close the
	// corpse's copy before the probe reaches it.
	gate.terminate(t)
	gate.logged(t, "signal received; shutting down")
	gate.logged(t, "gateway stopped")

	startDaemon(t, bin, prim.sock, prim.state)
	waitDial(t, prim.sock)
	eventually(t, "the resurrected primary fences itself", func() bool {
		return strings.Contains(cli(t, prim.sock, []string{"-epoch", epoch}, "run tb0 p0 5"), "(fenced)")
	})
	mustContain(t, cli(t, surv.sock, nil, "cycle p0"), "75 (version v0)")
	surv.d.terminate(t)
}
