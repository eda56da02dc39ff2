package gateway_test

import (
	"encoding/json"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"livesim/internal/gateway"
	"livesim/internal/server"
	"livesim/internal/server/client"
)

// replicated is the gateway setup with replication and fast failover
// armed: a killed primary's standby is promoted 300 ms after the kill.
var replicated = gateway.Config{Replicate: true, FailoverGrace: 300 * time.Millisecond}

// BenchmarkMigrationBlackout migrates one session between two durable
// backends, one migration per iteration, while 4 clients loop `run
// clock p0 2` on it through the gateway. "seeded" seeds the target on
// every move; "standby" runs a replicating gateway, where the default
// target is the standby the session already streams to. It reports the
// gateway's freeze window over the migrations (p50 and max) and the
// slowest request any load client saw; ns/op is one migrate request. A
// failed load request fails the benchmark: a migration must cost
// clients time, never an error.
//
//	make fleet
func BenchmarkMigrationBlackout(b *testing.B) {
	for _, tc := range []struct {
		name string
		cfg  gateway.Config
	}{{"seeded", gateway.Config{}}, {"standby", replicated}} {
		b.Run(tc.name, func(b *testing.B) {
			b0, b1 := newTestBackend(b), newTestBackend(b)
			cfg := tc.cfg
			cfg.Backends = []gateway.BackendSpec{{Addr: b0.addr()}, {Addr: b1.addr()}}
			_, gaddr := startGateway(b, cfg)
			c := dial(b, gaddr)
			createTiny(b, c, "m0")
			mustOK(b, c, &server.Request{Session: "m0", Verb: "poke", Args: []string{"p0", "top.en", "1"}})

			var mu sync.Mutex
			var worst time.Duration
			stop := load(b, gaddr, "m0", func(d time.Duration, resp *server.Response, err error) bool {
				if err != nil || !resp.OK {
					b.Errorf("load request failed mid-migration: %+v %v", resp, err)
					return false
				}
				mu.Lock()
				worst = max(worst, d)
				mu.Unlock()
				return true
			})
			defer stop()

			blackouts := make([]float64, 0, b.N)
			b.ResetTimer()
			for i := 0; i < b.N && !b.Failed(); i++ {
				b.StopTimer()
				time.Sleep(50 * time.Millisecond) // let the load journal between moves
				b.StartTimer()
				resp := mustOK(b, c, &server.Request{Session: "m0", Verb: "migrate"})
				var rep gateway.MigrationReport
				if err := json.Unmarshal(resp.Data, &rep); err != nil {
					b.Fatal(err)
				}
				blackouts = append(blackouts, rep.BlackoutMs)
			}
			b.StopTimer()
			stop()
			if b.Failed() {
				b.FailNow()
			}
			sort.Float64s(blackouts)
			b.ReportMetric(blackouts[len(blackouts)/2], "blackout_p50_ms")
			b.ReportMetric(blackouts[len(blackouts)-1], "blackout_max_ms")
			b.ReportMetric(float64(worst.Nanoseconds())/1e6, "worst_req_ms")
		})
	}
}

// BenchmarkFailover measures WAL-shipping replication on two durable
// backends behind a replicating gateway. First the ship-on-commit cost:
// b.N runs of `run clock p0 2` with the stream stopped, then b.N with
// it re-armed, in ms per mutation (an acked mutation with the stream on
// is one the standby has fsynced). Then the session's primary is halted
// as SIGKILL would leave it while 4 clients load the session, and the
// benchmark reports the time from the kill until the promoted standby
// answers. Every acked run advanced the session 2 cycles, so the
// promoted cycle count must cover them all: a lost acked mutation fails
// the benchmark. Fencing and crash replay of the promoted copy are
// asserted by the fault matrix and TestFleetEndToEnd, not timed here.
//
//	make fleet
func BenchmarkFailover(b *testing.B) {
	b0, b1 := newTestBackend(b), newTestBackend(b)
	backends := []*testBackend{b0, b1}
	cfg := replicated
	cfg.Backends = []gateway.BackendSpec{{Addr: b0.addr()}, {Addr: b1.addr()}}
	_, gaddr := startGateway(b, cfg)
	c := dial(b, gaddr)
	const name = "fo0"
	createTiny(b, c, name)
	mustOK(b, c, &server.Request{Session: name, Verb: "poke", Args: []string{"p0", "top.en", "1"}})
	mustOK(b, c, &server.Request{Session: name, Verb: "poke", Args: []string{"p0", "top.d", "3"}})
	primary := primaryOf(b, backends, name)
	standby := b0
	if primary == b0 {
		standby = b1
	}
	if primary == nil || !sessionInfosOf(b, standby)[name].Follower {
		b.Fatal("replication was not armed at create")
	}

	run := &server.Request{Session: name, Verb: "run", Args: []string{"clock", "p0", "2"}}
	perMutation := func() float64 {
		t0 := time.Now()
		for i := 0; i < b.N; i++ {
			mustOK(b, c, run)
		}
		return float64(time.Since(t0).Nanoseconds()) / 1e6 / float64(b.N)
	}
	mustOK(b, c, &server.Request{Session: name, Verb: "replicate", Args: []string{"stop"}})
	off := perMutation()
	mustOK(b, c, &server.Request{Session: name, Verb: "replicate", Args: []string{standby.addr()}})
	on := perMutation()

	// Requests the dead primary cannot answer are not acked: a client
	// would retry them. Only acked ones count against the loss budget.
	var acked atomic.Int64
	startCycle := cycleOf(b, c, name)
	stopLoad := load(b, gaddr, name, func(_ time.Duration, resp *server.Response, err error) bool {
		if err == nil && resp.OK {
			acked.Add(1)
		}
		return err == nil
	})
	defer stopLoad()
	time.Sleep(300 * time.Millisecond) // accumulate replicated load
	t0 := time.Now()
	primary.halt()
	for {
		resp, err := c.Do(run)
		if err != nil {
			b.Fatal(err)
		}
		if resp.OK {
			acked.Add(1)
			break
		}
		if time.Since(t0) > 30*time.Second {
			b.Fatalf("failover never completed: %s (%s)", resp.Error, resp.Code)
		}
		time.Sleep(5 * time.Millisecond)
	}
	failover := time.Since(t0)
	stopLoad()

	// A cycle count above the acked runs is a mutation the standby
	// applied whose ack the dying primary never sent: at-least-once,
	// not a loss.
	if end, want := cycleOf(b, c, name), startCycle+2*acked.Load(); end < want {
		b.Fatalf("lost acked mutations: cycle %d after failover, %d acked runs need %d", end, acked.Load(), want)
	}
	b.ReportMetric(0, "ns/op")
	b.ReportMetric(off, "repl_off_ms/mutation")
	b.ReportMetric(on, "repl_on_ms/mutation")
	b.ReportMetric(float64(failover.Nanoseconds())/1e6, "failover_ms")
	b.ReportMetric(float64(acked.Load()), "acked_runs")
}

// load has 4 clients loop `run clock p0 2` on a session until the
// returned stop is called; stop waits for them. Each reply goes to
// reply with its latency, from the client's goroutine; a false return
// ends that client.
func load(b *testing.B, addr, session string, reply func(d time.Duration, resp *server.Response, err error) bool) (stop func()) {
	done := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		c := dial(b, addr)
		wg.Add(1)
		go func() {
			defer wg.Done()
			req := &server.Request{Session: session, Verb: "run", Args: []string{"clock", "p0", "2"}}
			for {
				select {
				case <-done:
					return
				default:
				}
				t0 := time.Now()
				resp, err := c.Do(req)
				if !reply(time.Since(t0), resp, err) {
					return
				}
			}
		}()
	}
	return sync.OnceFunc(func() { close(done); wg.Wait() })
}

// cycleOf reads a session's cycle count from the cycle verb's
// "<n> (version …)" output.
func cycleOf(t testing.TB, c *client.Client, name string) int64 {
	t.Helper()
	out := mustOK(t, c, &server.Request{Session: name, Verb: "cycle", Args: []string{"p0"}}).Output
	var n int64
	if _, err := fmt.Sscan(out, &n); err != nil {
		t.Fatalf("cycle output %q: %v", out, err)
	}
	return n
}
