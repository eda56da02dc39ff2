package server_test

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"livesim/internal/faultinject"
	"livesim/internal/server"
	"livesim/internal/server/client"
	"livesim/internal/wire"
)

// Resource-governance tests: the global admission budget, the
// disk-pressure ladder, and the ENOSPC journal-pause/reanchor cycle.

// rawDial returns a client with overload retries disabled, so tests see
// the typed rejections instead of the client absorbing them.
func rawDial(t testing.TB, addr string) *client.Client {
	t.Helper()
	c, err := client.DialOptions(addr, client.Options{OverloadRetries: -1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// sessionInfo polls the sessions verb for one named row.
func sessionInfo(t *testing.T, c *client.Client, name string) (server.SessionInfo, bool) {
	t.Helper()
	resp := mustOK(t, c, &server.Request{Verb: "sessions"})
	var infos []server.SessionInfo
	if err := json.Unmarshal(resp.Data, &infos); err != nil {
		t.Fatal(err)
	}
	for _, info := range infos {
		if info.Name == name {
			return info, true
		}
	}
	return server.SessionInfo{}, false
}

// waitNondurable polls until the named session's nondurable flag
// reaches want, asserting it is never quarantined along the way — a
// full disk is the daemon's condition, not the session's fault.
func waitNondurable(t *testing.T, c *client.Client, name string, want bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		info, ok := sessionInfo(t, c, name)
		if ok && info.Quarantined {
			t.Fatalf("session %s quarantined during a disk incident: %+v", name, info)
		}
		if ok && info.Nondurable == want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("session %s never reached nondurable=%v: %+v (found=%v)", name, want, info, ok)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func healthz(t testing.TB, srv *server.Server) (int, map[string]any) {
	t.Helper()
	rec := httptest.NewRecorder()
	srv.AdminHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/healthz", nil))
	var body map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatalf("healthz body: %v", err)
	}
	return rec.Code, body
}

// TestAdmissionRejectsOverBudget is the deterministic admission test: a
// parked request holds one budget unit, so a run (cost 8) no longer
// fits an 8-unit budget and is rejected with the typed code and a
// retry hint, while free operator verbs still work. Releasing the
// parked request restores admission.
func TestAdmissionRejectsOverBudget(t *testing.T) {
	srv, addr := startServer(t, server.Config{AdmitBudget: 8, QueueDepth: 4})
	c := rawDial(t, addr)
	createTiny(t, c, "s", 100)

	enteredCh, gateCh := armGate()
	blockRes := make(chan *server.Response, 1)
	go func() {
		resp, err := c.Do(&server.Request{Session: "s", Verb: "testblock"})
		if err == nil {
			blockRes <- resp
		}
	}()
	<-enteredCh // testblock holds 1 admission unit until the gate opens

	c2 := rawDial(t, addr)
	resp, err := c2.Do(&server.Request{Session: "s", Verb: "run", Args: []string{"clock", "p0", "10"}})
	if err != nil {
		t.Fatal(err)
	}
	if resp.OK || resp.Code != wire.CodeOverloaded {
		t.Fatalf("run over budget: ok=%v code=%q err=%q", resp.OK, resp.Code, resp.Error)
	}
	if resp.RetryAfterMs < 1 {
		t.Errorf("overload rejection carries no retry hint: %+v", resp)
	}

	// Operator verbs are admission-free so overload can be diagnosed.
	mustOK(t, c2, &server.Request{Verb: "ping"})
	mustOK(t, c2, &server.Request{Verb: "sessions"})
	if _, body := healthz(t, srv); body["overload_rejects"].(float64) < 1 {
		t.Errorf("healthz overload_rejects: %v", body)
	}

	close(gateCh)
	if r := <-blockRes; !r.OK {
		t.Fatalf("parked request failed: %+v", r)
	}
	// The released unit makes room; the run must go through again.
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, err = c2.Do(&server.Request{Session: "s", Verb: "run", Args: []string{"clock", "p0", "10"}})
		if err != nil {
			t.Fatal(err)
		}
		if resp.OK {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("admission never recovered: %s (%s)", resp.Error, resp.Code)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

const soakSessions = 4

// startOverloaded is the overload soak's daemon: 4 sessions on a
// 16-unit admission budget with a depth-2 queue. A run costs 8 units,
// so 2 runs are admitted at once, and 4 clients keep that full.
func startOverloaded(t testing.TB) (*server.Server, string, *client.Client) {
	srv, addr := startServer(t, server.Config{AdmitBudget: 16, QueueDepth: 2})
	setup := dial(t, addr)
	for i := 0; i < soakSessions; i++ {
		createTiny(t, setup, fmt.Sprintf("o%d", i), 100)
	}
	return srv, addr, setup
}

// stormResult is what a storm's clients saw: latencies sorted.
type stormResult struct {
	lats           []time.Duration
	ok, over, back int
}

// storm has workers raw clients share requests runs of `run clock p0
// 50`, client w on session o(w mod soakSessions). A transport error, an untyped
// rejection or an overload rejection without a retry hint fails t:
// overload must turn into typed rejections and nothing else.
func storm(t testing.TB, addr string, workers, requests int) stormResult {
	t.Helper()
	var (
		mu        sync.Mutex
		res       stormResult
		transport []error
		badCodes  []string
		left      atomic.Int64
	)
	left.Store(int64(requests))
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		c := rawDial(t, addr)
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			req := &server.Request{Session: fmt.Sprintf("o%d", w%soakSessions), Verb: "run", Args: []string{"clock", "p0", "50"}}
			for left.Add(-1) >= 0 {
				t0 := time.Now()
				resp, err := c.Do(req)
				d := time.Since(t0)
				mu.Lock()
				res.lats = append(res.lats, d)
				switch {
				case err != nil:
					transport = append(transport, err)
				case resp.OK:
					res.ok++
				case resp.Code == wire.CodeOverloaded:
					res.over++
					if resp.RetryAfterMs < 1 {
						badCodes = append(badCodes, "overloaded-without-hint")
					}
				case resp.Code == wire.CodeBackpressure:
					res.back++
				default:
					badCodes = append(badCodes, fmt.Sprintf("%s(%s)", resp.Code, resp.Error))
				}
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()
	if len(transport) > 0 {
		t.Fatalf("%d transport errors under overload, first: %v", len(transport), transport[0])
	}
	if len(badCodes) > 0 {
		t.Fatalf("untyped rejections under overload: %v", badCodes)
	}
	sort.Slice(res.lats, func(i, j int) bool { return res.lats[i] < res.lats[j] })
	return res
}

// TestOverloadSoak drives ~4x the admission capacity of concurrent run
// traffic through raw clients. Invariants: no transport errors or
// panics, every rejection is a typed overload/backpressure code (with a
// retry hint on overloads), the daemon keeps answering free verbs
// throughout, latencies stay bounded, and after the storm admission
// drains to zero and normal service resumes.
func TestOverloadSoak(t *testing.T) {
	srv, addr, setup := startOverloaded(t)

	// A pinger proves the daemon stays diagnosable under the storm.
	pingStop := make(chan struct{})
	pingErr := make(chan error, 1)
	pc := rawDial(t, addr)
	go func() {
		for {
			select {
			case <-pingStop:
				pingErr <- nil
				return
			default:
			}
			if resp, err := pc.Do(&server.Request{Verb: "ping"}); err != nil || !resp.OK {
				pingErr <- fmt.Errorf("ping during overload: resp=%+v err=%v", resp, err)
				return
			}
			time.Sleep(5 * time.Millisecond)
		}
	}()

	res := storm(t, addr, 16, 16*25) // 16 workers x cost 8 vs budget 16: ~4x over capacity
	close(pingStop)
	if err := <-pingErr; err != nil {
		t.Error(err)
	}
	if res.ok == 0 {
		t.Fatal("no request succeeded under overload")
	}
	if res.over == 0 {
		t.Fatalf("4x-capacity storm produced no overload rejections (ok=%d back=%d)", res.ok, res.back)
	}
	lats := res.lats
	if p99 := lats[len(lats)*99/100]; p99 > 5*time.Second {
		t.Errorf("p99 latency unbounded under overload: %v", p99)
	}

	// Full recovery: in-flight drains to zero and a plain run succeeds.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, body := healthz(t, srv); body["admit_inflight"].(float64) == 0 {
			break
		}
		if time.Now().After(deadline) {
			_, body := healthz(t, srv)
			t.Fatalf("admission did not drain after the storm: %v", body)
		}
		time.Sleep(5 * time.Millisecond)
	}
	mustOK(t, setup, &server.Request{Session: "o0", Verb: "run", Args: []string{"clock", "p0", "10"}})
	t.Logf("soak: ok=%d overloaded=%d backpressure=%d p50=%v p99=%v",
		res.ok, res.over, res.back, lats[len(lats)/2], lats[len(lats)*99/100])
}

// BenchmarkOverload drives TestOverloadSoak's daemon at 1x, 2x and 4x
// its admission capacity: 4, 8 and 16 raw clients (overload retries
// off) share b.N runs. It reports completed, overload-rejected and
// backpressured requests per second, p50 and p99 request latency, and
// the blackout: the time from the end of the load until a run succeeds
// again. ns/op is wall time per offered request. A transport error or
// an untyped rejection fails the benchmark.
//
//	make fleet
func BenchmarkOverload(b *testing.B) {
	for _, mult := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("%dx", mult), func(b *testing.B) {
			_, addr, _ := startOverloaded(b)
			probe := rawDial(b, addr)
			b.ResetTimer()
			t0 := time.Now()
			res := storm(b, addr, 4*mult, b.N)
			el := time.Since(t0).Seconds()
			b.StopTimer()

			t0 = time.Now()
			for {
				resp, err := probe.Do(&server.Request{Session: "o0", Verb: "run", Args: []string{"clock", "p0", "50"}})
				if err != nil {
					b.Fatal(err)
				}
				if resp.OK {
					break
				}
				if resp.Code != wire.CodeOverloaded && resp.Code != wire.CodeBackpressure {
					b.Fatalf("probe after the load: %s (%s)", resp.Error, resp.Code)
				}
				time.Sleep(time.Duration(resp.RetryAfterMs) * time.Millisecond)
			}
			blackout := time.Since(t0)

			ms := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
			b.ReportMetric(float64(res.ok)/el, "ok/s")
			b.ReportMetric(float64(res.over)/el, "overloaded/s")
			b.ReportMetric(float64(res.back)/el, "backpressure/s")
			b.ReportMetric(ms(res.lats[len(res.lats)/2]), "p50_ms")
			b.ReportMetric(ms(res.lats[len(res.lats)*99/100]), "p99_ms")
			b.ReportMetric(ms(blackout), "blackout_ms")
		})
	}
}

// TestDiskPressureLadder walks every rung with a forced disk probe:
// elevated GCs checkpoint backups, critical pauses journals (sessions
// nondurable but still mutable), emergency rejects mutations and
// creates with the typed disk_full code while reads keep working, and
// clearing pressure resumes durability via reanchor — proven by a
// restart recovering the exact final state.
func TestDiskPressureLadder(t *testing.T) {
	dir := shortDir(t)
	state := filepath.Join(dir, "state")
	plan := faultinject.New().ForceDiskFree(50, 100) // start at OK
	cfgA := server.Config{
		StateDir: state, WALSyncEvery: -1, Faults: plan,
		DiskPollEvery: 2 * time.Millisecond, JournalResumeDelay: 10 * time.Millisecond,
	}
	srvA, _ := startServerOn(t, cfgA, filepath.Join(dir, "a.sock"))
	c := dial(t, "unix:"+filepath.Join(dir, "a.sock"))
	createTiny(t, c, "d0", 25)
	mustOK(t, c, &server.Request{Session: "d0", Verb: "run", Args: []string{"clock", "p0", "200"}})
	cycles := 200

	// Rung 1 — elevated: the redundant .bak checkpoint copies are GC'd.
	bak := filepath.Join(state, "d0.p0.lscp.bak")
	if err := os.WriteFile(bak, []byte("redundant"), 0o644); err != nil {
		t.Fatal(err)
	}
	plan.ForceDiskFree(15, 100)
	deadline := time.Now().Add(10 * time.Second)
	for {
		if _, err := os.Stat(bak); os.IsNotExist(err) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("elevated rung never GC'd the .bak checkpoint copy")
		}
		time.Sleep(2 * time.Millisecond)
	}

	// Rung 2 — critical: journals pause, sessions go nondurable (never
	// quarantined), but mutations still work from memory.
	plan.ForceDiskFree(8, 100)
	waitNondurable(t, c, "d0", true)
	mustOK(t, c, &server.Request{Session: "d0", Verb: "run", Args: []string{"clock", "p0", "30"}})
	cycles += 30
	if code, body := healthz(t, srvA); code != http.StatusOK || body["status"] != "degraded" || body["disk_level"] != "critical" {
		t.Errorf("healthz at critical: code=%d body=%v", code, body)
	}
	if out := mustOK(t, c, &server.Request{Verb: "sessions"}).Output; !strings.Contains(out, " NONDURABLE") || strings.Contains(out, "QUARANTINED") {
		t.Errorf("sessions at critical: %q, want NONDURABLE and not QUARANTINED", out)
	}

	// Rung 3 — emergency: mutations and creates are rejected with the
	// typed code; reads keep working; healthz turns 503.
	plan.ForceDiskFree(2, 100)
	deadline = time.Now().Add(10 * time.Second)
	for {
		resp, err := c.Do(&server.Request{Session: "d0", Verb: "run", Args: []string{"clock", "p0", "10"}})
		if err != nil {
			t.Fatal(err)
		}
		if !resp.OK {
			if resp.Code != wire.CodeDiskFull {
				t.Fatalf("emergency rejection code = %q (%s), want disk_full", resp.Code, resp.Error)
			}
			break
		}
		cycles += 10 // the governor had not latched emergency yet
		if time.Now().After(deadline) {
			t.Fatal("emergency rung never rejected a mutation")
		}
	}
	if resp, err := c.Do(&server.Request{Session: "d1", Verb: "create", PGAS: 1}); err != nil || resp.OK || resp.Code != wire.CodeDiskFull {
		t.Fatalf("create at emergency: resp=%+v err=%v", resp, err)
	}
	if resp := mustOK(t, c, &server.Request{Session: "d0", Verb: "cycle", Args: []string{"p0"}}); !strings.Contains(resp.Output, fmt.Sprint(cycles)) {
		t.Fatalf("read at emergency: %q, want cycle %d", resp.Output, cycles)
	}
	if code, body := healthz(t, srvA); code != http.StatusServiceUnavailable || body["status"] != "disk_emergency" {
		t.Errorf("healthz at emergency: code=%d body=%v", code, body)
	}

	// Pressure clears: the next mutation after the cooldown resumes the
	// journal with a reanchor record and the session is durable again.
	plan.ForceDiskFree(60, 100)
	deadline = time.Now().Add(10 * time.Second)
	for {
		resp, err := c.Do(&server.Request{Session: "d0", Verb: "run", Args: []string{"clock", "p0", "10"}})
		if err != nil {
			t.Fatal(err)
		}
		if resp.OK {
			cycles += 10
			if info, ok := sessionInfo(t, c, "d0"); ok && !info.Nondurable {
				break
			}
		} else if resp.Code != wire.CodeDiskFull {
			t.Fatalf("unexpected rejection while clearing: %s (%s)", resp.Error, resp.Code)
		}
		if time.Now().After(deadline) {
			t.Fatal("journal never resumed after pressure cleared")
		}
		time.Sleep(5 * time.Millisecond)
	}
	want := fmt.Sprintf("%d (version", cycles)
	if resp := mustOK(t, c, &server.Request{Session: "d0", Verb: "cycle", Args: []string{"p0"}}); !strings.Contains(resp.Output, want) {
		t.Fatalf("live cycle %q, want %q", resp.Output, want)
	}

	// The reanchored journal must recover the exact final state.
	cfgB := server.Config{StateDir: state, WALSyncEvery: -1}
	srvB, stopB := startServerOn(t, cfgB, filepath.Join(dir, "b.sock"))
	defer stopB()
	srvB.WaitRecovered()
	cB := dial(t, "unix:"+filepath.Join(dir, "b.sock"))
	got := doUntilRecovered(t, cB, &server.Request{Session: "d0", Verb: "cycle", Args: []string{"p0"}})
	if !strings.Contains(got.Output, want) {
		t.Fatalf("recovered cycle %q, want %q", got.Output, want)
	}
}

// TestENOSPCJournalPauseAndReanchorResume injects ENOSPC into a WAL
// append (and its retries): the mutation still succeeds (write-behind
// journal), the session degrades to journal-paused — nondurable, NOT
// quarantined — and the next mutation after the cooldown re-anchors the
// journal so a restart recovers everything including the mutations
// made while paused.
func TestENOSPCJournalPauseAndReanchorResume(t *testing.T) {
	dir := shortDir(t)
	state := filepath.Join(dir, "state")
	plan := faultinject.New()
	// Appends for this session: 1 boot, 2 instpipe, 3 run(200), 4
	// run(100). Fail append 4 and both its retries so the bounded retry
	// budget exhausts and the journal pauses.
	plan.DiskFullAppends(4, 3)
	cfgA := server.Config{
		StateDir: state, WALSyncEvery: -1, Faults: plan,
		JournalResumeDelay: 20 * time.Millisecond,
	}
	_, _ = startServerOn(t, cfgA, filepath.Join(dir, "a.sock"))
	c := dial(t, "unix:"+filepath.Join(dir, "a.sock"))
	createTiny(t, c, "e0", 25)
	mustOK(t, c, &server.Request{Session: "e0", Verb: "run", Args: []string{"clock", "p0", "200"}})

	// The ENOSPC mutation commits in memory; durability pauses.
	mustOK(t, c, &server.Request{Session: "e0", Verb: "run", Args: []string{"clock", "p0", "100"}})
	waitNondurable(t, c, "e0", true)
	fired := strings.Join(plan.Fired(), ",")
	if !strings.Contains(fired, "disk-full:4") {
		t.Fatalf("ENOSPC fault never fired: %q", fired)
	}

	// Space has "returned" (the fault plan is exhausted): the next
	// mutation after the cooldown resumes and re-anchors.
	time.Sleep(25 * time.Millisecond)
	mustOK(t, c, &server.Request{Session: "e0", Verb: "run", Args: []string{"clock", "p0", "50"}})
	waitNondurable(t, c, "e0", false)

	// Restart: the reanchor closes over the missed run(100), and the
	// post-resume run(50) is journaled normally — cycle 350 total.
	cfgB := server.Config{StateDir: state, WALSyncEvery: -1}
	srvB, stopB := startServerOn(t, cfgB, filepath.Join(dir, "b.sock"))
	defer stopB()
	srvB.WaitRecovered()
	cB := dial(t, "unix:"+filepath.Join(dir, "b.sock"))
	got := doUntilRecovered(t, cB, &server.Request{Session: "e0", Verb: "cycle", Args: []string{"p0"}})
	if !strings.Contains(got.Output, "350 (version") {
		t.Fatalf("recovered cycle %q, want 350", got.Output)
	}
	mustOK(t, cB, &server.Request{Session: "e0", Verb: "run", Args: []string{"clock", "p0", "10"}})
}

// TestDrainReanchorsPausedJournal: a drain hitting a session whose
// journal is still paused (the live resume cooldown never elapsed) must
// use its last chance to reanchor — the worker is stopped, so it is
// safe — and the restart recovers the full state including the
// mutations missed while paused.
func TestDrainReanchorsPausedJournal(t *testing.T) {
	dir := shortDir(t)
	state := filepath.Join(dir, "state")
	plan := faultinject.New()
	plan.DiskFullAppends(4, 3)
	cfgA := server.Config{
		StateDir: state, WALSyncEvery: -1, Faults: plan,
		JournalResumeDelay: time.Hour, // the live path never resumes
	}
	_, stopA := startServerOn(t, cfgA, filepath.Join(dir, "a.sock"))
	c := dial(t, "unix:"+filepath.Join(dir, "a.sock"))
	createTiny(t, c, "e0", 25)
	mustOK(t, c, &server.Request{Session: "e0", Verb: "run", Args: []string{"clock", "p0", "200"}})
	mustOK(t, c, &server.Request{Session: "e0", Verb: "run", Args: []string{"clock", "p0", "100"}})
	waitNondurable(t, c, "e0", true)
	mustOK(t, c, &server.Request{Session: "e0", Verb: "run", Args: []string{"clock", "p0", "50"}})
	if err := stopA(); err != nil {
		t.Fatalf("drain with a paused journal: %v", err)
	}

	cfgB := server.Config{StateDir: state, WALSyncEvery: -1}
	srvB, stopB := startServerOn(t, cfgB, filepath.Join(dir, "b.sock"))
	defer stopB()
	srvB.WaitRecovered()
	cB := dial(t, "unix:"+filepath.Join(dir, "b.sock"))
	got := doUntilRecovered(t, cB, &server.Request{Session: "e0", Verb: "cycle", Args: []string{"p0"}})
	if !strings.Contains(got.Output, "350 (version") {
		t.Fatalf("drain-time reanchor lost state: recovered cycle %q, want 350", got.Output)
	}
}

// TestDrainSkipsWatermarkWhileDiskCritical: when the disk is still at
// the critical rung at drain time the resume must fail and the drain
// must NOT watermark the paused journal — a mark appended after missed
// mutations would silently diverge replay. The restart recovers
// honestly to the pre-pause prefix.
func TestDrainSkipsWatermarkWhileDiskCritical(t *testing.T) {
	dir := shortDir(t)
	state := filepath.Join(dir, "state")
	plan := faultinject.New().ForceDiskFree(50, 100)
	cfgA := server.Config{
		StateDir: state, WALSyncEvery: -1, Faults: plan,
		DiskPollEvery: 2 * time.Millisecond, JournalResumeDelay: 10 * time.Millisecond,
	}
	_, stopA := startServerOn(t, cfgA, filepath.Join(dir, "a.sock"))
	c := dial(t, "unix:"+filepath.Join(dir, "a.sock"))
	createTiny(t, c, "d0", 25)
	mustOK(t, c, &server.Request{Session: "d0", Verb: "run", Args: []string{"clock", "p0", "200"}})

	plan.ForceDiskFree(8, 100) // critical: journal pauses
	waitNondurable(t, c, "d0", true)
	mustOK(t, c, &server.Request{Session: "d0", Verb: "run", Args: []string{"clock", "p0", "100"}}) // missed
	if err := stopA(); err != nil {
		t.Fatalf("drain at critical rung: %v", err)
	}

	cfgB := server.Config{StateDir: state, WALSyncEvery: -1}
	srvB, stopB := startServerOn(t, cfgB, filepath.Join(dir, "b.sock"))
	defer stopB()
	srvB.WaitRecovered()
	if srvB.Session("d0") == nil {
		t.Fatal("session d0 not recovered (journal set aside => replay diverged)")
	}
	cB := dial(t, "unix:"+filepath.Join(dir, "b.sock"))
	got := doUntilRecovered(t, cB, &server.Request{Session: "d0", Verb: "cycle", Args: []string{"p0"}})
	if !strings.Contains(got.Output, "200 (version") || strings.Contains(got.Output, "300") {
		t.Fatalf("recovered cycle %q, want the pre-pause 200, not 300", got.Output)
	}
}
