package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"livesim/internal/gateway"
	"livesim/internal/server"
	"livesim/internal/server/client"
)

// fleetBench measures the fleet story end to end, all in-process over
// unix sockets:
//
//  1. aggregate throughput through the gateway as the backend pool
//     grows 1 -> 2 -> 4 (16 clients, disjoint sessions, rendezvous
//     placement),
//  2. live-migration blackout under load: a session is migrated back
//     and forth while clients hammer it, once seeding the target each
//     time and once (-replicate) onto the standby it already has; the
//     reported freeze window and the worst client-observed request
//     latency bound each other,
//  3. kill-one durability: backends journal with fsync-per-append, one
//     is crashed mid-load and restarted, and every committed mutation
//     must still be there — fingerprints compared through the gateway.
const fleetDesign = `
module accum (input clk, input en, input [15:0] d, output reg [31:0] total);
  always @(posedge clk) begin
    if (en) total <= total + d;
  end
endmodule

module top (input clk, input en, input [15:0] d, output [31:0] total);
  accum u0 (.clk(clk), .en(en), .d(d), .total(total));
endmodule
`

// fleetNode is one in-process livesimd, restartable on its state dir.
type fleetNode struct {
	dir, sock string
	srv       *server.Server
}

func startFleetNode(dir, sock string, durable bool) *fleetNode {
	n := &fleetNode{dir: dir, sock: sock}
	cfg := server.Config{QueueDepth: 64}
	if durable {
		// fsync on every append: an acked mutation is a committed one,
		// which is what the kill-one experiment asserts about.
		cfg.StateDir = dir
		cfg.WALSyncEvery = -1
	}
	srv := server.New(cfg)
	if durable {
		if err := srv.Recover(); err != nil {
			fatal(err)
		}
		srv.WaitRecovered()
	}
	ln, err := net.Listen("unix", sock)
	if err != nil {
		fatal(err)
	}
	go srv.Serve(ln)
	n.srv = srv
	return n
}

func (n *fleetNode) addr() string { return "unix:" + n.sock }

// startFleet boots count backends under root behind a gateway configured
// by cfg (Backends filled in here, HealthEvery defaulting to 100ms).
func startFleet(root string, count int, durable bool, cfg gateway.Config) ([]*fleetNode, *gateway.Gateway, string) {
	nodes := make([]*fleetNode, 0, count)
	for i := 0; i < count; i++ {
		dir := filepath.Join(root, fmt.Sprintf("n%d", i))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			fatal(err)
		}
		n := startFleetNode(dir, filepath.Join(root, fmt.Sprintf("d%d.sock", i)), durable)
		nodes = append(nodes, n)
		cfg.Backends = append(cfg.Backends, gateway.BackendSpec{Addr: n.addr()})
	}
	if cfg.HealthEvery == 0 {
		cfg.HealthEvery = 100 * time.Millisecond
	}
	gw, err := gateway.New(cfg)
	if err != nil {
		fatal(err)
	}
	gsock := filepath.Join(root, "g.sock")
	ln, err := net.Listen("unix", gsock)
	if err != nil {
		fatal(err)
	}
	go gw.Serve(ln)
	return nodes, gw, "unix:" + gsock
}

func stopFleet(nodes []*fleetNode, gw *gateway.Gateway) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	gw.Shutdown(ctx)
	for _, n := range nodes {
		n.srv.Shutdown(ctx)
	}
}

func fleetBench() {
	fmt.Println("== Fleet: gateway throughput, migration blackout, kill-one durability ==")
	root, err := os.MkdirTemp("", "lsf")
	if err != nil {
		fatal(err)
	}
	defer os.RemoveAll(root)

	fleetThroughput(root)
	const migrations = 8
	fmt.Printf("   migration blackout over %d live migrations under load (4 clients):\n", migrations)
	fmt.Printf("%-28s %10s %10s %14s\n", "   target", "p50", "max", "worst request")
	fleetMigrationBlackout(filepath.Join(root, "mig"), "   seeded each move", migrations, gateway.Config{})
	fleetMigrationBlackout(filepath.Join(root, "migrepl"), "   standby (-replicate)", migrations, replicatedFleet)
	fleetKillOne(root)
	fmt.Println()
}

// fleetThroughput: 16 clients, disjoint PGAS sessions placed by the
// gateway, aggregate req/s as the pool grows.
func fleetThroughput(root string) {
	fmt.Printf("   aggregate req/s through the gateway, 16 clients, %v per point\n", *flagBudget)
	fmt.Printf("%-10s %12s %12s %10s\n", "backends", "requests", "req/s", "errors")
	for round, nBackends := range []int{1, 2, 4} {
		sub := filepath.Join(root, fmt.Sprintf("tput%d", nBackends))
		if err := os.MkdirAll(sub, 0o755); err != nil {
			fatal(err)
		}
		nodes, gw, gaddr := startFleet(sub, nBackends, false, gateway.Config{})
		var ok, bad atomic.Int64
		var wg sync.WaitGroup
		start := time.Now()
		stop := start.Add(*flagBudget)
		for i := 0; i < 16; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				c, err := client.Dial(gaddr)
				if err != nil {
					fatal(err)
				}
				defer c.Close()
				name := fmt.Sprintf("f%d_%d", round, i)
				mustResp(c.Do(&server.Request{Session: name, Verb: "create", PGAS: 1, CheckpointEvery: 100_000}))
				mustResp(c.Do(&server.Request{Session: name, Verb: "instpipe", Args: []string{"p0"}}))
				req := &server.Request{Session: name, Verb: "run", Args: []string{"tb0", "p0", "4"}}
				for time.Now().Before(stop) {
					resp, err := c.Do(req)
					if err != nil {
						fatal(err)
					}
					if resp.OK {
						ok.Add(1)
					} else {
						bad.Add(1)
					}
				}
			}(i)
		}
		wg.Wait()
		el := time.Since(start).Seconds()
		fmt.Printf("%-10d %12d %12.0f %10d\n", nBackends, ok.Load(), float64(ok.Load())/el, bad.Load())
		stopFleet(nodes, gw)
	}
}

// fleetMigrationBlackout: migrate a live session back and forth while
// clients hammer it, on two durable backends behind a gateway set up by
// cfg. Two numbers matter: what the gateway reports as the freeze
// window, and the worst latency any client actually saw. A failed load
// request is fatal: a migration must cost clients time, never an error.
func fleetMigrationBlackout(dir, label string, migrations int, cfg gateway.Config) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fatal(err)
	}
	nodes, gw, gaddr := startFleet(dir, 2, true, cfg)
	defer stopFleet(nodes, gw)

	c, err := client.Dial(gaddr)
	if err != nil {
		fatal(err)
	}
	defer c.Close()
	mustResp(c.Do(&server.Request{Session: "mig0", Verb: "create",
		Files: map[string]string{"top.v": fleetDesign}, Top: "top", CheckpointEvery: 50}))
	mustResp(c.Do(&server.Request{Session: "mig0", Verb: "instpipe", Args: []string{"p0"}}))
	mustResp(c.Do(&server.Request{Session: "mig0", Verb: "poke", Args: []string{"p0", "top.en", "1"}}))

	var worstReq atomic.Int64 // nanoseconds
	stopLoad := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			lc, err := client.Dial(gaddr)
			if err != nil {
				fatal(err)
			}
			defer lc.Close()
			req := &server.Request{Session: "mig0", Verb: "run", Args: []string{"clock", "p0", "2"}}
			for {
				select {
				case <-stopLoad:
					return
				default:
				}
				t0 := time.Now()
				resp, err := lc.Do(req)
				if err != nil {
					fatal(err)
				}
				if !resp.OK {
					fatal(fmt.Errorf("load request failed mid-migration: %s (%s)", resp.Error, resp.Code))
				}
				if d := time.Since(t0).Nanoseconds(); d > worstReq.Load() {
					worstReq.Store(d)
				}
			}
		}()
	}

	blackouts := make([]float64, 0, migrations)
	for m := 0; m < migrations; m++ {
		time.Sleep(50 * time.Millisecond) // let load accumulate journal between moves
		resp, err := c.Do(&server.Request{Session: "mig0", Verb: "migrate"})
		if err != nil {
			fatal(err)
		}
		if !resp.OK {
			fatal(fmt.Errorf("migration %d failed: %s (%s)", m, resp.Error, resp.Code))
		}
		var rep gateway.MigrationReport
		if err := json.Unmarshal(resp.Data, &rep); err != nil {
			fatal(err)
		}
		blackouts = append(blackouts, rep.BlackoutMs)
	}
	close(stopLoad)
	wg.Wait()

	sort.Float64s(blackouts)
	p50 := blackouts[len(blackouts)/2]
	max := blackouts[len(blackouts)-1]
	verdict := "PASS"
	if max >= 100 {
		verdict = "OVER-BUDGET"
	}
	fmt.Printf("%-28s %8.2fms %8.2fms %12.2fms   budget <100ms: %s\n",
		label, p50, max, float64(worstReq.Load())/1e6, verdict)
}

// fleetKillOne: commit mutations through the gateway, SIGKILL-style
// halt one backend, restart it, and count lost fingerprints (must be
// zero: WALSyncEvery -1 means every ack was durable).
func fleetKillOne(root string) {
	sub := filepath.Join(root, "kill")
	if err := os.MkdirAll(sub, 0o755); err != nil {
		fatal(err)
	}
	nodes, gw, gaddr := startFleet(sub, 2, true, gateway.Config{})
	defer stopFleet(nodes, gw)

	c, err := client.Dial(gaddr)
	if err != nil {
		fatal(err)
	}
	defer c.Close()

	names := []string{"k0", "k1", "k2", "k3"}
	want := map[string][2]string{}
	for _, name := range names {
		mustResp(c.Do(&server.Request{Session: name, Verb: "create",
			Files: map[string]string{"top.v": fleetDesign}, Top: "top", CheckpointEvery: 25}))
		mustResp(c.Do(&server.Request{Session: name, Verb: "instpipe", Args: []string{"p0"}}))
		mustResp(c.Do(&server.Request{Session: name, Verb: "poke", Args: []string{"p0", "top.en", "1"}}))
		mustResp(c.Do(&server.Request{Session: name, Verb: "poke", Args: []string{"p0", "top.d", "3"}}))
		mustResp(c.Do(&server.Request{Session: name, Verb: "run", Args: []string{"clock", "p0", "40"}}))
		peek, perr := c.Do(&server.Request{Session: name, Verb: "peek", Args: []string{"p0", "top.u0.total"}})
		cyc, cerr := c.Do(&server.Request{Session: name, Verb: "cycle", Args: []string{"p0"}})
		if perr != nil || cerr != nil || !peek.OK || !cyc.OK {
			fatal(fmt.Errorf("fingerprinting %s failed", name))
		}
		want[name] = [2]string{peek.Output, cyc.Output}
	}

	// Crash whichever backend hosts k0 (rendezvous guarantees someone does).
	victim := 0
	if hostsSession(nodes[1], "k0") {
		victim = 1
	}
	t0 := time.Now()
	nodes[victim].srv.Halt()
	nodes[victim] = startFleetNode(nodes[victim].dir, nodes[victim].sock, true)
	restart := time.Since(t0)

	// Wait until every session answers again, then compare fingerprints.
	lost := 0
	for _, name := range names {
		deadline := time.Now().Add(10 * time.Second)
		var peek, cyc *server.Response
		for time.Now().Before(deadline) {
			peek, _ = c.Do(&server.Request{Session: name, Verb: "peek", Args: []string{"p0", "top.u0.total"}})
			if peek != nil && peek.OK {
				break
			}
			time.Sleep(20 * time.Millisecond)
		}
		cyc, _ = c.Do(&server.Request{Session: name, Verb: "cycle", Args: []string{"p0"}})
		if peek == nil || cyc == nil || !peek.OK || !cyc.OK ||
			peek.Output != want[name][0] || cyc.Output != want[name][1] {
			lost++
		}
	}
	verdict := "PASS"
	if lost > 0 {
		verdict = "FAIL"
	}
	fmt.Printf("   kill-one durability: backend crashed + recovered in %v;\n", restart.Round(time.Millisecond))
	fmt.Printf("   committed mutations lost across %d sessions: %d   %s\n", len(names), lost, verdict)
}

func hostsSession(n *fleetNode, name string) bool {
	c, err := client.Dial(n.addr())
	if err != nil {
		fatal(err)
	}
	defer c.Close()
	resp, err := c.Do(&server.Request{Verb: "sessions"})
	if err != nil || !resp.OK {
		return false
	}
	var infos []server.SessionInfo
	if resp.Data != nil {
		json.Unmarshal(resp.Data, &infos)
	}
	for _, info := range infos {
		if info.Name == name {
			return true
		}
	}
	return false
}
