package server_test

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"livesim/internal/server"
	"livesim/internal/wire"
)

// TestOneAnswerPerRequest holds the request deadline to about the time
// one `run` takes, so the session worker and the deadline timer race for
// hundreds of requests: some finish in time, some finish late and have
// their result discarded, some expire in the queue and never run. Every
// request gets exactly one answer, OK or timeout; every result the
// deadline beat is counted in server_results_discarded; and the session
// serves afterwards. It runs at the shipped queue depth, which a request
// the deadline answered no longer holds a slot of.
func TestOneAnswerPerRequest(t *testing.T) {
	const (
		conns    = 4
		perConn  = 125
		cycles   = 2000 // per run
		runCycle = "2000"
		timed    = 9 // runs timed before the deadline drops
	)
	run := func(id uint64) string {
		return fmt.Sprintf(`{"id":%d,"session":"s","verb":"run","args":["clock","p0","%s"]}`+"\n", id, runCycle)
	}

	// Registered before startServer, so the restore runs after shutdown.
	t.Cleanup(server.SetBreakerThreshold(1 << 30)) // missed deadlines must not quarantine the session
	srv, addr := startServer(t, server.Config{AdmitBudget: -1})
	c := dial(t, addr)

	// The session is set up, and one run timed, under the shipped
	// deadline: a loaded host must not time out the setup. The deadline
	// then drops to the median run.
	createTiny(t, c, "s", 1000)
	var took []time.Duration
	for i := 0; i < timed; i++ {
		t0 := time.Now()
		mustOK(t, c, &server.Request{Session: "s", Verb: "run", Args: []string{"clock", "p0", runCycle}})
		took = append(took, time.Since(t0))
	}
	sort.Slice(took, func(i, j int) bool { return took[i] < took[j] })
	deadline := took[len(took)/2]
	t.Cleanup(server.SetRequestDeadline(deadline))
	executed := func() uint64 {
		var rows []server.TopRow
		if err := json.Unmarshal(mustOK(t, c, &server.Request{Verb: "top"}).Data, &rows); err != nil || len(rows) != 1 {
			t.Fatalf("top: %v %v", rows, err)
		}
		return rows[0].Requests // successful executions, answered or not
	}
	before := executed()

	// Each connection sends its next request as soon as the last is
	// answered, and checks the answer is that request's.
	type tally struct{ ok, timeout int }
	results := make(chan tally, conns)
	for k := 0; k < conns; k++ {
		nc, err := net.Dial(wire.SplitAddr(addr))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { nc.Close() })
		go func(k int, nc net.Conn) {
			var n tally
			defer func() { results <- n }()
			br := bufio.NewReader(nc)
			for i := 0; i < perConn; i++ {
				id := uint64(k*perConn + i + 1)
				nc.SetDeadline(time.Now().Add(30 * time.Second))
				if _, err := io.WriteString(nc, run(id)); err != nil {
					t.Errorf("send %d: %v", id, err)
					return
				}
				line, err := br.ReadBytes('\n')
				if err != nil {
					t.Errorf("answer to %d: %v", id, err)
					return
				}
				var resp wire.Response
				if err := json.Unmarshal(line, &resp); err != nil || resp.ID != id {
					t.Errorf("answer to %d: %s (%v)", id, line, err)
					return
				}
				switch {
				case resp.OK:
					n.ok++
				case resp.Code == wire.CodeTimeout:
					n.timeout++
				default:
					t.Errorf("answer to %d: %s (%s)", id, resp.Error, resp.Code)
				}
			}
			// A second answer to any request would be read here.
			nc.SetReadDeadline(time.Now().Add(100 * time.Millisecond))
			line, err := br.ReadBytes('\n')
			if ne, ok := err.(net.Error); len(line) > 0 || !ok || !ne.Timeout() {
				t.Errorf("connection %d: %q (%v) after its last answer", k, line, err)
			}
		}(k, nc)
	}
	var sum tally
	for k := 0; k < conns; k++ {
		n := <-results
		sum.ok += n.ok
		sum.timeout += n.timeout
	}
	if t.Failed() {
		return
	}
	if sum.ok+sum.timeout != conns*perConn {
		t.Fatalf("%d ok + %d timeout answers to %d requests", sum.ok, sum.timeout, conns*perConn)
	}

	// Park the worker: everything queued before the parked request has
	// then been executed or skipped, and its counts are final. A parking
	// request that expires in the queue never runs; send another.
	enteredCh, gateCh := armGate()
	for parked := false; !parked; {
		if resp, err := c.Do(&server.Request{Session: "s", Verb: "testblock"}); err != nil || resp.OK {
			t.Fatalf("testblock under a deadline it cannot meet: %+v %v", resp, err)
		}
		select {
		case <-enteredCh:
			parked = true
		case <-time.After(10 * time.Millisecond):
		}
	}
	ran := executed() - before
	discarded := srv.Metrics().Counter("server_results_discarded").Value()
	close(gateCh)
	late := ran - uint64(sum.ok)
	t.Logf("deadline %v: %d ok, %d timeout (%d ran late, %d expired in the queue)",
		deadline, sum.ok, sum.timeout, late, uint64(sum.timeout)-late)
	if discarded != late {
		t.Errorf("server_results_discarded = %d, want the %d results that finished after their deadline", discarded, late)
	}

	// The session still serves, and every run that executed is in its cycle.
	want := fmt.Sprintf("%d (version", (ran+timed)*cycles)
	for end := time.Now().Add(10 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		resp, err := c.Do(&server.Request{Session: "s", Verb: "cycle", Args: []string{"p0"}})
		if err != nil {
			t.Fatal(err)
		}
		if resp.OK {
			if !strings.HasPrefix(strings.TrimSpace(resp.Output), want) {
				t.Errorf("cycle %q after %d executed runs of %d cycles", resp.Output, ran, cycles)
			}
			break
		}
		if time.Now().After(end) {
			t.Fatalf("session never served again: %s (%s)", resp.Error, resp.Code)
		}
	}
}

// TestAnsweredRequestsLeaveTheQueue parks the session worker and lets a
// full queue of requests miss their deadline. The deadline answers each
// one and takes it out of the queue, so the next request is admitted,
// not refused with backpressure.
func TestAnsweredRequestsLeaveTheQueue(t *testing.T) {
	const depth = 8
	t.Cleanup(server.SetRequestDeadline(100 * time.Millisecond))
	t.Cleanup(server.SetBreakerThreshold(1 << 30))
	_, addr := startServer(t, server.Config{QueueDepth: depth, AdmitBudget: -1})
	c := dial(t, addr)
	createTiny(t, c, "s", 1000)
	cycle := func() *server.Request { return &server.Request{Session: "s", Verb: "cycle", Args: []string{"p0"}} }

	enteredCh, gateCh := armGate()
	release := sync.OnceFunc(func() { close(gateCh) })
	defer release() // a failure below must not leave the worker parked
	go c.Do(&server.Request{Session: "s", Verb: "testblock"})
	<-enteredCh
	codes := make(chan string, depth)
	for i := 0; i < depth; i++ {
		go func() {
			resp, err := c.Do(cycle())
			if err != nil {
				codes <- err.Error()
				return
			}
			codes <- resp.Code
		}()
	}
	for i := 0; i < depth; i++ {
		if code := <-codes; code != wire.CodeTimeout {
			t.Fatalf("request %d behind the parked worker: code %q, want %q", i, code, wire.CodeTimeout)
		}
	}
	resp, err := c.Do(cycle())
	if err != nil || resp.Code != wire.CodeTimeout {
		t.Errorf("request after %d deadline misses: %+v %v, want admitted and answered %q", depth, resp, err, wire.CodeTimeout)
	}
	release()
	mustOK(t, c, cycle())
}
