package main

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"livesim/internal/gateway"
	"livesim/internal/server"
	"livesim/internal/server/client"
	"livesim/internal/wire"
)

// failoverBench measures the replication + failover story end to end,
// in-process over unix sockets (2 livesimd + a replicating gateway):
//
//  1. ship-on-commit overhead: ms/mutation with the replication stream
//     off vs on (the "on" number buys a hot standby that has fsynced
//     every acked mutation),
//  2. failover blackout under load: the primary is Halt()ed
//     (SIGKILL-equivalent) while clients hammer the session; blackout
//     is from the kill until the promoted standby answers, and every
//     acked mutation must still be present afterwards (loss budget 0),
//  3. survivor replay: the promoted backend is itself crashed and
//     recovered from its journal; the fingerprint must be bit-identical
//     (the shipped journal replays to the same state it served live),
//  4. fencing: the original primary is resurrected on its state dir and
//     offered a mutation stamped with the promoted epoch — it must
//     fence itself and reject with the typed code.
func failoverBench() {
	fmt.Println("== Failover: WAL-shipping replication, fenced promotion under load ==")
	root, err := os.MkdirTemp("", "lsfo")
	if err != nil {
		fatal(err)
	}
	defer os.RemoveAll(root)

	nodes, gw, gaddr := startFleet(root, 2, true, replicatedFleet)
	defer stopFleet(nodes, gw)

	c, err := client.Dial(gaddr)
	if err != nil {
		fatal(err)
	}
	defer c.Close()

	const name = "fo0"
	mustResp(c.Do(&server.Request{Session: name, Verb: "create",
		Files: map[string]string{"top.v": fleetDesign}, Top: "top", CheckpointEvery: 200}))
	mustResp(c.Do(&server.Request{Session: name, Verb: "instpipe", Args: []string{"p0"}}))
	mustResp(c.Do(&server.Request{Session: name, Verb: "poke", Args: []string{"p0", "top.en", "1"}}))
	mustResp(c.Do(&server.Request{Session: name, Verb: "poke", Args: []string{"p0", "top.d", "3"}}))

	primary, standby := replicaPair(nodes, name)
	if primary == nil || standby == nil {
		fatal(fmt.Errorf("replication was not armed (primary=%v standby=%v)", primary, standby))
	}

	// 1) Ship-on-commit overhead: the stream is synchronous (an ack
	// means the standby fsynced), so its cost rides on every mutation.
	const abRuns = 150
	mustResp(c.Do(&server.Request{Session: name, Verb: "replicate", Args: []string{"stop"}}))
	offPer := timedRuns(c, name, abRuns)
	mustResp(c.Do(&server.Request{Session: name, Verb: "replicate", Args: []string{standby.addr()}}))
	onPer := timedRuns(c, name, abRuns)
	lag := sessionReplLag(primary, name)
	fmt.Printf("   ship-on-commit overhead (%d mutations each):\n", abRuns)
	fmt.Printf("%-34s %10.3fms\n", "   per mutation, replication off", float64(offPer.Nanoseconds())/1e6)
	fmt.Printf("%-34s %10.3fms   (standby fsynced before every ack; lag %d records)\n",
		"   per mutation, replication on", float64(onPer.Nanoseconds())/1e6, lag)

	// 2) Failover under load. Acked runs each advance the sim 2 cycles;
	// after promotion the cycle counter must cover every acked run —
	// the zero-lost-acked budget. (Cycles may exceed it: a mutation the
	// standby applied whose ack the dying primary never delivered is
	// at-least-once, not a loss.)
	var acked atomic.Int64
	startCycles := parseCycle(okResp(c.Do(&server.Request{Session: name, Verb: "cycle", Args: []string{"p0"}})).Output)
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
			req := &server.Request{Session: name, Verb: "run", Args: []string{"clock", "p0", "2"}}
			for {
				select {
				case <-stopLoad:
					return
				default:
				}
				resp, err := lc.Do(req)
				if err != nil {
					return // gateway conn torn during shutdown
				}
				if resp.OK {
					acked.Add(1)
				}
				// Failed requests (unavailable during the blackout) are
				// simply not acked — the client would retry.
			}
		}()
	}
	time.Sleep(300 * time.Millisecond) // accumulate replicated load
	t0 := time.Now()
	primary.srv.Halt()
	var blackout time.Duration
	for {
		resp, err := c.Do(&server.Request{Session: name, Verb: "run", Args: []string{"clock", "p0", "2"}})
		if err != nil {
			fatal(err)
		}
		if resp.OK {
			acked.Add(1)
			blackout = time.Since(t0)
			break
		}
		if time.Since(t0) > 30*time.Second {
			fatal(fmt.Errorf("failover never completed: %s (%s)", resp.Error, resp.Code))
		}
		time.Sleep(5 * time.Millisecond)
	}
	close(stopLoad)
	wg.Wait()

	endCycles := parseCycle(okResp(c.Do(&server.Request{Session: name, Verb: "cycle", Args: []string{"p0"}})).Output)
	ackedCycles := startCycles + 2*acked.Load()
	lost := int64(0)
	if endCycles < ackedCycles {
		lost = (ackedCycles - endCycles + 1) / 2
	}
	verdict := "PASS"
	if lost > 0 {
		verdict = "FAIL"
	}
	fmt.Printf("   failover under load (grace 300ms, probe 50ms):\n")
	fmt.Printf("%-34s %10.1fms   (kill -> promoted standby answering)\n",
		"   blackout", float64(blackout.Nanoseconds())/1e6)
	fmt.Printf("%-34s %10d   of %d acked; budget 0: %s\n",
		"   lost acked mutations", lost, acked.Load(), verdict)

	// 3) Survivor replay: crash the promoted copy and recover it from
	// the journal the stream built — the fingerprint must not move.
	livePeek := okResp(c.Do(&server.Request{Session: name, Verb: "peek", Args: []string{"p0", "top.u0.total"}})).Output
	liveCycle := okResp(c.Do(&server.Request{Session: name, Verb: "cycle", Args: []string{"p0"}})).Output
	for i, n := range nodes {
		if n == standby {
			n.srv.Halt()
			nodes[i] = startFleetNode(n.dir, n.sock, true)
			standby = nodes[i]
		}
	}
	replayPeek, replayCycle := "", ""
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		p, perr := c.Do(&server.Request{Session: name, Verb: "peek", Args: []string{"p0", "top.u0.total"}})
		if perr == nil && p.OK {
			replayPeek = p.Output
			replayCycle = okResp(c.Do(&server.Request{Session: name, Verb: "cycle", Args: []string{"p0"}})).Output
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	replayVerdict := "PASS"
	if replayPeek != livePeek || replayCycle != liveCycle {
		replayVerdict = "FAIL"
	}
	fmt.Printf("%-34s %10s   (promoted copy crash-recovered bit-identical)\n",
		"   survivor replay fingerprint", replayVerdict)

	// 4) Fencing: resurrect the original primary and offer it a mutation
	// carrying the fleet's epoch. It must self-fence with the typed code.
	for i, n := range nodes {
		if n == primary {
			nodes[i] = startFleetNode(n.dir, n.sock, true)
			primary = nodes[i]
		}
	}
	fenceVerdict := "FAIL"
	dc, err := client.Dial(primary.addr())
	if err == nil {
		deadline := time.Now().Add(10 * time.Second)
		for time.Now().Before(deadline) {
			resp, derr := dc.Do(&server.Request{Session: name, Verb: "run",
				Args: []string{"clock", "p0", "2"}, Epoch: promotedEpoch(standby, name)})
			if derr != nil {
				break
			}
			if resp.Code == wire.CodeFenced {
				fenceVerdict = "PASS"
				break
			}
			if resp.Code == wire.CodeNoSession || resp.Code == wire.CodeMoved {
				// The reconcile sweep already closed the corpse — equally
				// split-brain-safe, but keep probing briefly for the fence.
				fenceVerdict = "PASS (swept)"
				break
			}
			time.Sleep(20 * time.Millisecond)
		}
		dc.Close()
	}
	fmt.Printf("%-34s %10s   (stale primary rejected with typed code)\n",
		"   resurrected primary fenced", fenceVerdict)
	fmt.Println()
}

// replicatedFleet is the gateway setup with replication and fast
// failover armed.
var replicatedFleet = gateway.Config{
	HealthEvery:   50 * time.Millisecond,
	Replicate:     true,
	FailoverGrace: 300 * time.Millisecond,
}

// replicaPair finds which node hosts the session as primary and which
// as follower.
func replicaPair(nodes []*fleetNode, name string) (primary, standby *fleetNode) {
	for _, n := range nodes {
		for _, info := range sessionRows(n) {
			if info.Name != name {
				continue
			}
			if info.Follower {
				standby = n
			} else {
				primary = n
			}
		}
	}
	return primary, standby
}

func sessionRows(n *fleetNode) []server.SessionInfo {
	c, err := client.Dial(n.addr())
	if err != nil {
		return nil
	}
	defer c.Close()
	resp, err := c.Do(&server.Request{Verb: "sessions"})
	if err != nil || !resp.OK || resp.Data == nil {
		return nil
	}
	var infos []server.SessionInfo
	json.Unmarshal(resp.Data, &infos)
	return infos
}

func sessionReplLag(n *fleetNode, name string) uint64 {
	for _, info := range sessionRows(n) {
		if info.Name == name {
			return info.ReplLag
		}
	}
	return 0
}

func promotedEpoch(n *fleetNode, name string) uint64 {
	for _, info := range sessionRows(n) {
		if info.Name == name {
			return info.Epoch
		}
	}
	return 1
}

// timedRuns issues n 2-cycle runs and returns the mean wall time per
// mutation.
func timedRuns(c *client.Client, name string, n int) time.Duration {
	req := &server.Request{Session: name, Verb: "run", Args: []string{"clock", "p0", "2"}}
	t0 := time.Now()
	for i := 0; i < n; i++ {
		mustResp(c.Do(req))
	}
	return time.Since(t0) / time.Duration(n)
}

// okResp is mustResp that hands the response back, for reading Output.
func okResp(resp *server.Response, err error) *server.Response {
	mustResp(resp, err)
	return resp
}

// parseCycle extracts the cycle count from the cycle verb's
// "  <n> (version v…)" output.
func parseCycle(out string) int64 {
	var n int64
	fmt.Sscanf(strings.TrimSpace(out), "%d", &n)
	return n
}
