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
// disk-pressure ladder, and the refusal of a mutation whose journal
// append fails.

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
// elevated GCs checkpoint backups and keeps journaling — at 8% free
// too — emergency refuses mutations and
// creates with the typed disk_full code while reads keep working, and
// clearing pressure takes mutations again at once. Every acked mutation
// was journaled, proven by a restart recovering the exact final state.
func TestDiskPressureLadder(t *testing.T) {
	dir := shortDir(t)
	state := filepath.Join(dir, "state")
	plan := faultinject.New().ForceDiskFree(50, 100) // start at OK
	cfgA := server.Config{
		StateDir: state, WALSyncEvery: -1, Faults: plan,
		DiskPollEvery: 2 * time.Millisecond,
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

	// 8% free is still elevated: a mutation is journaled before its ack,
	// and the session is never quarantined.
	plan.ForceDiskFree(8, 100)
	head := func() uint64 {
		info, _ := sessionInfo(t, c, "d0")
		if info.Quarantined {
			t.Fatalf("session quarantined during a disk incident: %+v", info)
		}
		return info.HeadSeq
	}
	before := head()
	mustOK(t, c, &server.Request{Session: "d0", Verb: "run", Args: []string{"clock", "p0", "30"}})
	cycles += 30
	if after := head(); after != before+1 {
		t.Errorf("journal head %d -> %d across an acked run at 8%% free, want one record", before, after)
	}
	if code, body := healthz(t, srvA); code != http.StatusOK || body["status"] != "degraded" || body["disk_level"] != "elevated" {
		t.Errorf("healthz at 8%% free: code=%d body=%v", code, body)
	}

	// Rung 2 — emergency: mutations and creates are rejected with the
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

	// Pressure clears: mutations are taken again as soon as the governor
	// sees it.
	plan.ForceDiskFree(60, 100)
	deadline = time.Now().Add(10 * time.Second)
	for {
		resp, err := c.Do(&server.Request{Session: "d0", Verb: "run", Args: []string{"clock", "p0", "10"}})
		if err != nil {
			t.Fatal(err)
		}
		if resp.OK {
			cycles += 10
			break
		}
		if resp.Code != wire.CodeDiskFull {
			t.Fatalf("unexpected rejection while clearing: %s (%s)", resp.Error, resp.Code)
		}
		if time.Now().After(deadline) {
			t.Fatal("mutations never resumed after pressure cleared")
		}
		time.Sleep(5 * time.Millisecond)
	}
	want := fmt.Sprintf("%d (version", cycles)
	if resp := mustOK(t, c, &server.Request{Session: "d0", Verb: "cycle", Args: []string{"p0"}}); !strings.Contains(resp.Output, want) {
		t.Fatalf("live cycle %q, want %q", resp.Output, want)
	}

	// The journal must recover the exact final state.
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

// refusedRun sends a run whose journal append is expected to fail and
// requires the typed refusal, with the session neither quarantined nor
// changed by it.
func refusedRun(t *testing.T, c *client.Client, name string, cycles int) {
	t.Helper()
	before := mustOK(t, c, &server.Request{Session: name, Verb: "cycle", Args: []string{"p0"}}).Output
	resp, err := c.Do(&server.Request{Session: name, Verb: "run", Args: []string{"clock", "p0", fmt.Sprint(cycles)}})
	if err != nil || resp.OK || resp.Code != wire.CodeDiskFull {
		t.Fatalf("run with a refused append: resp=%+v err=%v, want disk_full", resp, err)
	}
	if after := mustOK(t, c, &server.Request{Session: name, Verb: "cycle", Args: []string{"p0"}}).Output; after != before {
		t.Fatalf("refused run changed the session: %q -> %q", before, after)
	}
	if info, _ := sessionInfo(t, c, name); info.Quarantined {
		t.Fatalf("session quarantined by a refused append: %+v", info)
	}
}

// recoveredCycle restarts a daemon on state and returns session name's
// cycle line.
func recoveredCycle(t *testing.T, dir, state, name string) string {
	t.Helper()
	srvB, stopB := startServerOn(t, server.Config{StateDir: state, WALSyncEvery: -1}, filepath.Join(dir, "b.sock"))
	defer stopB()
	srvB.WaitRecovered()
	cB := dial(t, "unix:"+filepath.Join(dir, "b.sock"))
	return doUntilRecovered(t, cB, &server.Request{Session: name, Verb: "cycle", Args: []string{"p0"}}).Output
}

// TestENOSPCAppendRefusesAndRebuilds injects ENOSPC into a WAL append
// and both its retries: the mutation is refused with the typed code, the
// session is rebuilt from its journal — it holds exactly the acked
// history, is not quarantined, and its state matches a cold replay of
// the journal — and the next mutation is taken as usual. A restart
// recovers the acked history: 200 + 50 cycles, not the refused 100.
func TestENOSPCAppendRefusesAndRebuilds(t *testing.T) {
	dir := shortDir(t)
	state := filepath.Join(dir, "state")
	// Appends for this session: 1 boot, 2 instpipe, 3 run(200), 4
	// run(100). Fail append 4 and both its retries.
	plan := faultinject.New().ForceDiskFree(50, 100).DiskFullAppends(4, 3)
	srvA, stopA := startServerOn(t, server.Config{StateDir: state, WALSyncEvery: -1, Faults: plan}, filepath.Join(dir, "a.sock"))
	c := dial(t, "unix:"+filepath.Join(dir, "a.sock"))
	createTiny(t, c, "e0", 25)
	mustOK(t, c, &server.Request{Session: "e0", Verb: "run", Args: []string{"clock", "p0", "200"}})
	// The listings read the session from other goroutines while its
	// worker swaps in the rebuilt one.
	watcher, stopWatch := dial(t, "unix:"+filepath.Join(dir, "a.sock")), make(chan struct{})
	watched := make(chan struct{})
	go func() {
		defer close(watched)
		for {
			select {
			case <-stopWatch:
				return
			default:
			}
			watcher.Do(&server.Request{Verb: "sessions"})
			watcher.Do(&server.Request{Verb: "top"})
		}
	}()
	refusedRun(t, c, "e0", 100)
	close(stopWatch)
	<-watched
	if fired := strings.Join(plan.Fired(), ","); !strings.Contains(fired, "disk-full:4") {
		t.Fatalf("ENOSPC fault never fired: %q", fired)
	}

	// Live ≡ a cold replay of the journal: a second daemon recovers a copy
	// of the state dir, and every slot and memory word agrees.
	cold := filepath.Join(dir, "cold")
	if err := os.MkdirAll(cold, 0o755); err != nil {
		t.Fatal(err)
	}
	matches, _ := filepath.Glob(filepath.Join(state, "e0.*"))
	for _, m := range matches {
		data, err := os.ReadFile(m)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(cold, filepath.Base(m)), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	srvC, stopC := startServerOn(t, server.Config{StateDir: cold, WALSyncEvery: -1}, filepath.Join(dir, "c.sock"))
	srvC.WaitRecovered()
	mustOK(t, dial(t, "unix:"+filepath.Join(dir, "c.sock")), &server.Request{Verb: "ping"}) // serving, so the stop below is a drain
	live, _ := srvA.Session("e0").Pipe("p0")
	replayed, ok := srvC.Session("e0").Pipe("p0")
	if !ok || fullStateHash(live.Sim) != fullStateHash(replayed.Sim) {
		t.Fatalf("live session after the refusal differs from a cold replay of its journal (pipe found: %v)", ok)
	}
	stopC()

	mustOK(t, c, &server.Request{Session: "e0", Verb: "run", Args: []string{"clock", "p0", "50"}})
	if err := stopA(); err != nil {
		t.Fatal(err)
	}
	if got := recoveredCycle(t, dir, state, "e0"); !strings.Contains(got, "250 (version") {
		t.Fatalf("recovered cycle %q, want the acked 250", got)
	}
}

// TestRefusedAppendSetsAsideUnreplayableJournal: when the rebuild after
// a refused append cannot replay the journal — here its boot record was
// damaged on disk — the session is not served from state its journal
// does not describe: the journal is set aside as .wal.failed, as boot
// recovery does, the name answers no_session, and the daemon serves on.
func TestRefusedAppendSetsAsideUnreplayableJournal(t *testing.T) {
	dir := shortDir(t)
	state := filepath.Join(dir, "state")
	plan := faultinject.New().ForceDiskFree(50, 100)
	srv, stop := startServerOn(t, server.Config{StateDir: state, WALSyncEvery: -1, Faults: plan}, filepath.Join(dir, "a.sock"))
	defer stop()
	c := dial(t, "unix:"+filepath.Join(dir, "a.sock"))
	createTiny(t, c, "e0", 25)
	mustOK(t, c, &server.Request{Session: "e0", Verb: "run", Args: []string{"clock", "p0", "200"}})

	path := filepath.Join(state, "e0.wal")
	f, err := os.OpenFile(path, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte("XX"), 24); err != nil { // inside the boot record's payload
		t.Fatal(err)
	}
	f.Close()
	plan.DiskFullAppends(1, 3)
	resp, err := c.Do(&server.Request{Session: "e0", Verb: "run", Args: []string{"clock", "p0", "100"}})
	if err != nil || resp.Code != wire.CodeDiskFull {
		t.Fatalf("run with a refused append: resp=%+v err=%v, want disk_full", resp, err)
	}
	if resp, err := c.Do(&server.Request{Session: "e0", Verb: "cycle", Args: []string{"p0"}}); err != nil || resp.Code != wire.CodeNoSession {
		t.Fatalf("set-aside session still answers: resp=%+v err=%v", resp, err)
	}
	if _, err := os.Stat(path + ".failed"); err != nil {
		t.Fatalf("journal not set aside: %v", err)
	}
	failed := false
	for _, ev := range srv.Events() {
		failed = failed || ev.Session == "e0" && ev.Type == "recovery_failed"
	}
	if !failed {
		t.Error("no recovery_failed event for the set-aside journal")
	}
	createTiny(t, c, "e1", 25)
}

// TestDrainAfterRefusedAppendKeepsAckedHistory: a drain right after a
// refused append watermarks the rebuilt session, so the restart recovers
// exactly the acked history.
func TestDrainAfterRefusedAppendKeepsAckedHistory(t *testing.T) {
	dir := shortDir(t)
	state := filepath.Join(dir, "state")
	plan := faultinject.New().ForceDiskFree(50, 100).DiskFullAppends(4, 3)
	_, stopA := startServerOn(t, server.Config{StateDir: state, WALSyncEvery: -1, Faults: plan}, filepath.Join(dir, "a.sock"))
	c := dial(t, "unix:"+filepath.Join(dir, "a.sock"))
	createTiny(t, c, "e0", 25)
	mustOK(t, c, &server.Request{Session: "e0", Verb: "run", Args: []string{"clock", "p0", "200"}})
	refusedRun(t, c, "e0", 100)
	mustOK(t, c, &server.Request{Session: "e0", Verb: "run", Args: []string{"clock", "p0", "50"}})
	if err := stopA(); err != nil {
		t.Fatalf("drain after a refused append: %v", err)
	}
	if got := recoveredCycle(t, dir, state, "e0"); !strings.Contains(got, "250 (version") {
		t.Fatalf("recovered cycle %q, want the acked 250", got)
	}
}

// TestFailedFsyncAcksNothingAfter: the group-commit flusher's fsync
// fails. The journal keeps that error, so every mutation after it is
// refused disk_full and undone, and reads still answer. A restart
// recovers the history acked before the failure.
func TestFailedFsyncAcksNothingAfter(t *testing.T) {
	dir := shortDir(t)
	state := filepath.Join(dir, "state")
	plan := faultinject.New().ForceDiskFree(50, 100)
	_, stopA := startServerOn(t, server.Config{StateDir: state, WALSyncEvery: time.Millisecond, Faults: plan},
		filepath.Join(dir, "a.sock"))
	c := dial(t, "unix:"+filepath.Join(dir, "a.sock"))
	createTiny(t, c, "e0", 25)
	mustOK(t, c, &server.Request{Session: "e0", Verb: "run", Args: []string{"clock", "p0", "200"}})
	// The fsync that fails is the one after run 50's append, or, if the
	// flusher had not synced run 200 yet, the one before it; either way
	// run 50 is acked only if its append came before the failure.
	plan.FailWALSync()
	if resp, err := c.Do(&server.Request{Session: "e0", Verb: "run", Args: []string{"clock", "p0", "50"}}); err != nil ||
		!resp.OK && resp.Code != wire.CodeDiskFull {
		t.Fatalf("run across the failed fsync: resp=%+v err=%v", resp, err)
	}
	for deadline := time.Now().Add(10 * time.Second); len(plan.Fired()) == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the flusher never fsynced")
		}
	}
	acked := mustOK(t, c, &server.Request{Session: "e0", Verb: "cycle", Args: []string{"p0"}}).Output
	for range 3 {
		refusedRun(t, c, "e0", 100)
	}
	stopA()
	if got := recoveredCycle(t, dir, state, "e0"); got != acked {
		t.Fatalf("recovered %q, want the history acked before the failure, %q", got, acked)
	}
}

// TestDrainAtEmergencyKeepsAckedHistory: a drain at the emergency rung,
// after a mutation was refused there, still watermarks the session, and
// the restart recovers exactly the acked history — the refused run is
// nowhere.
func TestDrainAtEmergencyKeepsAckedHistory(t *testing.T) {
	dir := shortDir(t)
	state := filepath.Join(dir, "state")
	plan := faultinject.New().ForceDiskFree(50, 100)
	cfgA := server.Config{
		StateDir: state, WALSyncEvery: -1, Faults: plan,
		DiskPollEvery: 2 * time.Millisecond,
	}
	srvA, stopA := startServerOn(t, cfgA, filepath.Join(dir, "a.sock"))
	c := dial(t, "unix:"+filepath.Join(dir, "a.sock"))
	createTiny(t, c, "d0", 25)
	mustOK(t, c, &server.Request{Session: "d0", Verb: "run", Args: []string{"clock", "p0", "200"}})

	plan.ForceDiskFree(2, 100)
	deadline := time.Now().Add(10 * time.Second)
	for _, body := healthz(t, srvA); body["disk_level"] != "emergency"; _, body = healthz(t, srvA) {
		if time.Now().After(deadline) {
			t.Fatal("the governor never reached the emergency rung")
		}
		time.Sleep(2 * time.Millisecond)
	}
	refusedRun(t, c, "d0", 100)
	if err := stopA(); err != nil {
		t.Fatalf("drain at the emergency rung: %v", err)
	}
	if got := recoveredCycle(t, dir, state, "d0"); !strings.Contains(got, "200 (version") {
		t.Fatalf("recovered cycle %q, want the acked 200", got)
	}
}
