package client

import (
	"bufio"
	"encoding/json"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"livesim/internal/govern"
	"livesim/internal/wire"
)

// Two clients' redial schedules must diverge: jitter exists so a daemon
// restart doesn't herd every disconnected client back in lockstep.
func TestBackoffSchedulesDiverge(t *testing.T) {
	opts := Options{BackoffBase: 50 * time.Millisecond, BackoffCap: 2 * time.Second}
	a := backoffDelays(opts, govern.NewRand(), 8)
	b := backoffDelays(opts, govern.NewRand(), 8)

	same := 0
	for i := range a {
		if a[i] == b[i] {
			same++
		}
	}
	if same == len(a) {
		t.Fatalf("two clients drew identical redial schedules: %v", a)
	}

	// Every delay stays inside the ±20% band around the unjittered value.
	want := opts.BackoffBase
	for i, d := range a {
		lo := time.Duration(float64(want) * (1 - redialJitter))
		hi := time.Duration(float64(want) * (1 + redialJitter))
		if d < lo || d > hi {
			t.Errorf("delay %d = %v outside [%v, %v]", i, d, lo, hi)
		}
		want *= 2
		if want > opts.BackoffCap {
			want = opts.BackoffCap
		}
	}
}

// fakeOverloadServer answers the first `rejects` requests with code
// "overloaded" (retry_after_ms=2) and everything after with ok.
func fakeOverloadServer(t *testing.T, rejects int64) (addr string, served *atomic.Int64) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	served = &atomic.Int64{}
	go func() {
		for {
			nc, err := ln.Accept()
			if err != nil {
				return
			}
			go func(nc net.Conn) {
				defer nc.Close()
				sc := bufio.NewScanner(nc)
				for sc.Scan() {
					var req wire.Request
					if json.Unmarshal(sc.Bytes(), &req) != nil {
						continue
					}
					n := served.Add(1)
					resp := wire.Response{ID: req.ID, OK: true, Output: "pong\n"}
					if n <= rejects {
						resp = wire.Response{
							ID: req.ID, OK: false,
							Code: wire.CodeOverloaded, Error: "overloaded",
							RetryAfterMs: 2,
						}
					}
					line, _ := json.Marshal(&resp)
					nc.Write(append(line, '\n'))
				}
			}(nc)
		}
	}()
	return ln.Addr().String(), served
}

// Do must absorb overload rejections inside its retry budget and return
// the eventual success.
func TestDoRetriesOverload(t *testing.T) {
	addr, served := fakeOverloadServer(t, 2)
	c, err := Dial("tcp:" + addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	resp, err := c.Do(&wire.Request{Verb: "ping"})
	if err != nil {
		t.Fatal(err)
	}
	if !resp.OK {
		t.Fatalf("want eventual success, got code %s (%s)", resp.Code, resp.Error)
	}
	if got := served.Load(); got != 3 {
		t.Fatalf("server saw %d requests, want 3 (2 rejected + 1 ok)", got)
	}
}

// With retries disabled the overloaded response surfaces to the caller,
// hint intact.
func TestDoOverloadSurfacesWithoutRetries(t *testing.T) {
	addr, served := fakeOverloadServer(t, 100)
	c, err := DialOptions("tcp:"+addr, Options{OverloadRetries: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	resp, err := c.Do(&wire.Request{Verb: "ping"})
	if err != nil {
		t.Fatal(err)
	}
	if resp.OK || resp.Code != wire.CodeOverloaded {
		t.Fatalf("want overloaded response, got ok=%v code=%s", resp.OK, resp.Code)
	}
	if resp.RetryAfterMs <= 0 {
		t.Fatalf("overloaded response lost its retry hint: %+v", resp)
	}
	if got := served.Load(); got != 1 {
		t.Fatalf("server saw %d requests, want exactly 1 (no retries)", got)
	}
}
