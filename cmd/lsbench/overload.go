package main

import (
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"livesim/internal/server"
	"livesim/internal/server/client"
	"livesim/internal/wire"
)

// overloadBench measures the admission controller under offered load at
// 1x, 2x and 4x the configured capacity: an in-process server with a
// small global budget, raw clients (overload retries disabled) so every
// typed rejection is visible, per-client disjoint PGAS sessions. For
// each point it reports completed req/s, the typed rejection split, and
// p50/p99 request latency — overload must translate into fast typed
// rejections, not latency collapse. After each round it measures the
// recovery blackout: how long until admission drains to zero and a
// probe mutation succeeds again.
func overloadBench() {
	const (
		budget  = 16 // admission units
		runCost = 8  // the run verb's weight (internal/command)
	)
	capacity := budget / runCost // concurrent heavy runs admitted
	fmt.Println("== Overload: admission control at 1x/2x/4x capacity (in-process livesimd) ==")
	fmt.Printf("   admit budget %d units, run costs %d => capacity %d concurrent runs,\n",
		budget, runCost, capacity)
	fmt.Printf("   raw clients (no overload retry), run tb0 p0 64, %v per point\n", *flagBudget)

	dir, err := os.MkdirTemp("", "lsb")
	if err != nil {
		fatal(err)
	}
	defer os.RemoveAll(dir)
	sock := filepath.Join(dir, "d.sock")
	ln, err := net.Listen("unix", sock)
	if err != nil {
		fatal(err)
	}
	reg := benchRegistry()
	srv := server.New(server.Config{QueueDepth: 4, AdmitBudget: budget, Metrics: reg})
	go srv.Serve(ln)
	defer func() {
		ctx, cancel := shutdownCtx()
		defer cancel()
		srv.Shutdown(ctx)
	}()

	// createRetry absorbs overload rejections during setup — session
	// creation is itself weighed against the budget.
	createRetry := func(c *client.Client, req *server.Request) {
		for {
			resp, err := c.Do(req)
			if err != nil {
				fatal(err)
			}
			if resp.OK {
				return
			}
			if resp.Code != wire.CodeOverloaded && resp.Code != wire.CodeBackpressure {
				fatal(fmt.Errorf("%s (%s)", resp.Error, resp.Code))
			}
			time.Sleep(time.Duration(resp.RetryAfterMs) * time.Millisecond)
		}
	}

	fmt.Printf("%-8s %-8s %10s %10s %12s %12s %10s %10s %12s\n",
		"load", "clients", "ok", "ok/s", "overloaded", "backpress", "p50", "p99", "blackout")
	for round, mult := range []int{1, 2, 4} {
		workers := capacity * mult * 2 // 2 clients per admitted slot at 1x keeps the budget full
		var (
			mu   sync.Mutex
			lats []time.Duration
			ok   int64
			over int64
			back int64
		)
		var wg sync.WaitGroup
		start := time.Now()
		stop := start.Add(*flagBudget)
		for i := 0; i < workers; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				c, err := client.DialOptions("unix:"+sock, client.Options{OverloadRetries: -1})
				if err != nil {
					fatal(err)
				}
				defer c.Close()
				name := fmt.Sprintf("ov%d_%d", round, i)
				createRetry(c, &server.Request{Session: name, Verb: "create", PGAS: 1, CheckpointEvery: 100_000})
				createRetry(c, &server.Request{Session: name, Verb: "instpipe", Args: []string{"p0"}})
				req := &server.Request{Session: name, Verb: "run", Args: []string{"tb0", "p0", "64"}}
				for time.Now().Before(stop) {
					t0 := time.Now()
					resp, err := c.Do(req)
					if err != nil {
						fatal(err)
					}
					d := time.Since(t0)
					mu.Lock()
					lats = append(lats, d)
					switch {
					case resp.OK:
						ok++
					case resp.Code == wire.CodeOverloaded:
						over++
					case resp.Code == wire.CodeBackpressure:
						back++
					default:
						mu.Unlock()
						fatal(fmt.Errorf("untyped rejection under overload: %s (%s)", resp.Error, resp.Code))
						return
					}
					mu.Unlock()
				}
				createRetry(c, &server.Request{Session: name, Verb: "close"})
			}(i)
		}
		wg.Wait()
		el := time.Since(start).Seconds()
		sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
		p50, p99 := time.Duration(0), time.Duration(0)
		if len(lats) > 0 {
			p50, p99 = lats[len(lats)/2], lats[len(lats)*99/100]
		}

		// Recovery blackout: load is gone — how long until a fresh
		// mutation on a fresh session completes?
		t0 := time.Now()
		probe, err := client.Dial("unix:" + sock)
		if err != nil {
			fatal(err)
		}
		name := fmt.Sprintf("probe%d", round)
		createRetry(probe, &server.Request{Session: name, Verb: "create", PGAS: 1, CheckpointEvery: 100_000})
		createRetry(probe, &server.Request{Session: name, Verb: "instpipe", Args: []string{"p0"}})
		createRetry(probe, &server.Request{Session: name, Verb: "run", Args: []string{"tb0", "p0", "4"}})
		createRetry(probe, &server.Request{Session: name, Verb: "close"})
		blackout := time.Since(t0)
		probe.Close()

		fmt.Printf("%-8s %-8d %10d %10.0f %12d %12d %10s %10s %12s\n",
			fmt.Sprintf("%dx", mult), workers, ok, float64(ok)/el, over, back,
			p50.Round(10*time.Microsecond), p99.Round(10*time.Microsecond),
			blackout.Round(10*time.Microsecond))
	}
	fmt.Println("   recovered: all rounds ended with a successful probe mutation")
	printSnapshot("overload", reg)
	fmt.Println()
}
