package main

import (
	"context"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"livesim/internal/gateway"
	"livesim/internal/server"
	"livesim/internal/server/client"
)

const (
	serveClients = 2   // one per core: nothing queues behind another client
	serveWarm    = 200 // warm requests per client before timing
	runVerbArg   = "4" // cycles per `run` request: the ROADMAP wire reference load
	runVerbCyc   = 4
	serveChunks  = 8 // lock-step chunks per round, a control sample between each
)

// fleet is one in-process deployment: a livesimd with the shipped
// defaults of cmd/livesimd (journaling on), optionally fronted by an
// lsgate with the shipped defaults of cmd/lsgate, on unix sockets.
type fleet struct {
	srv  *server.Server
	gw   *gateway.Gateway
	addr string // where clients dial: the gateway if there is one
	back string // the backend's own address
}

// startFleet boots the deployment under dir, which must be a short
// relative path: unix socket paths are limited to ~100 bytes.
func startFleet(dir string, viaGateway bool) (*fleet, error) {
	state := filepath.Join(dir, "state")
	if err := os.MkdirAll(state, 0o755); err != nil {
		return nil, err
	}
	srv := server.New(server.Config{
		StateDir:     state,
		WALSyncEvery: 100 * time.Millisecond,
		SlowRequest:  time.Second,
	})
	if err := srv.Recover(); err != nil {
		return nil, fmt.Errorf("recover: %w", err)
	}
	sock := filepath.Join(dir, "d.sock")
	ln, err := net.Listen("unix", sock)
	if err != nil {
		return nil, err
	}
	go srv.Serve(ln)
	f := &fleet{srv: srv, back: "unix:" + sock, addr: "unix:" + sock}
	if !viaGateway {
		return f, nil
	}
	gw, err := gateway.New(gateway.Config{
		Backends:    []gateway.BackendSpec{{Addr: f.back}},
		HealthEvery: 500 * time.Millisecond,
	})
	if err != nil {
		f.stop()
		return nil, fmt.Errorf("gateway: %w", err)
	}
	gsock := filepath.Join(dir, "g.sock")
	gln, err := net.Listen("unix", gsock)
	if err != nil {
		f.stop()
		return nil, err
	}
	go gw.Serve(gln)
	f.gw, f.addr = gw, "unix:"+gsock
	return f, nil
}

// stop shuts gateway and server down and waits for both.
func (f *fleet) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), opDeadline)
	defer cancel()
	if f.gw != nil {
		f.gw.Shutdown(ctx)
	}
	f.srv.Shutdown(ctx)
}

// caller is one closed-loop wire client bound to its own session.
type caller struct {
	c       *client.Client
	session string
	mesh    int
	// progress counts completed calls; the watchdog closes the connection
	// when it stops moving for opDeadline, which fails the pending call.
	progress atomic.Int64
}

func dialCaller(addr, session string, mesh int) (*caller, error) {
	c, err := client.Dial(addr)
	if err != nil {
		return nil, err
	}
	k := &caller{c: c, session: session, mesh: mesh}
	for _, req := range []*server.Request{
		{Session: session, Verb: "create", PGAS: mesh},
		{Session: session, Verb: "instpipe", Args: []string{sessionPipe}},
	} {
		if resp, err := c.Do(req); err != nil {
			c.Close()
			return nil, fmt.Errorf("%s: %w", req.Verb, err)
		} else if !resp.OK {
			c.Close()
			return nil, fmt.Errorf("%s: %s (%s)", req.Verb, resp.Error, resp.Code)
		}
	}
	return k, nil
}

func (k *caller) runReq() *server.Request {
	return &server.Request{Session: k.session, Verb: "run", Args: []string{sessionBench, sessionPipe, runVerbArg}}
}

// do is one wire round trip; a non-OK response is returned as its code.
func (k *caller) do(req *server.Request) (code string, err error) {
	resp, err := k.c.Do(req)
	k.progress.Add(1)
	if err != nil {
		return "disconnected", err
	}
	if !resp.OK {
		return resp.Code, fmt.Errorf("%s: %s", resp.Code, resp.Error)
	}
	return "", nil
}

// cycle asks the server for the session's pipe cycle.
func (k *caller) cycle() (uint64, error) {
	resp, err := k.c.Do(&server.Request{Session: k.session, Verb: "cycle", Args: []string{sessionPipe}})
	if err != nil {
		return 0, err
	}
	if !resp.OK {
		return 0, fmt.Errorf("cycle: %s (%s)", resp.Error, resp.Code)
	}
	f := strings.Fields(resp.Output)
	if len(f) == 0 {
		return 0, fmt.Errorf("cycle: empty output")
	}
	return strconv.ParseUint(f[0], 10, 64)
}

// watch closes the caller's connection if it makes no progress for
// opDeadline; stop it by closing done.
func (k *caller) watch(done <-chan struct{}) {
	last, lastAt := k.progress.Load(), time.Now()
	t := time.NewTicker(time.Second)
	defer t.Stop()
	for {
		select {
		case <-done:
			return
		case <-t.C:
			if p := k.progress.Load(); p != last {
				last, lastAt = p, time.Now()
			} else if time.Since(lastAt) > opDeadline {
				k.c.Close()
				return
			}
		}
	}
}

// serveRound drives serveClients closed-loop callers, each with its own
// session, through perClient journaled `run` requests.
func serveRound(x *runCtx, perClient int, viaGateway bool) (*round, error) {
	r := &round{}
	t0 := time.Now()
	f, err := startFleet(x.dir, viaGateway)
	if err != nil {
		return nil, err
	}
	defer f.stop()
	warm := serveWarm + x.in.warmExtra
	callers := make([]*caller, serveClients)
	for i := range callers {
		k, err := dialCaller(f.addr, fmt.Sprintf("s%d", i), x.in.mesh)
		if err != nil {
			return nil, err
		}
		defer k.c.Close()
		callers[i] = k
		req := k.runReq()
		for j := 0; j < warm; j++ {
			if _, err := k.do(req); err != nil {
				return nil, fmt.Errorf("warm-up: %w", err)
			}
		}
	}
	r.setup = time.Since(t0)

	// The callers run in lock step through serveChunks chunks of
	// requests; between chunks, with no request in flight, the section
	// takes its host-speed sample.
	done := make(chan struct{})
	var watchers sync.WaitGroup
	type tally struct {
		lat     []time.Duration
		rejects map[string]int
		dead    bool // the connection is gone; nothing more can be sent
	}
	tallies := make([]tally, len(callers))
	for i, k := range callers {
		tallies[i] = tally{lat: make([]time.Duration, 0, perClient), rejects: map[string]int{}}
		watchers.Add(1)
		go func() { defer watchers.Done(); k.watch(done) }()
	}
	opBase := x.reserveOps(perClient * len(callers))
	drive := func(i, first, n int) {
		k, t := callers[i], &tallies[i]
		req := k.runReq()
		for j := first; j < first+n; j++ {
			sp := x.rec.begin(opDo, 0, opBase+i*perClient+j)
			t0 := time.Now()
			code, err := k.do(req)
			d := time.Since(t0)
			x.rec.end(sp)
			switch {
			case err == nil:
				t.lat = append(t.lat, d)
			case code == "disconnected":
				t.rejects[code] += perClient - j // this one and all that can no longer be sent
				t.dead = true
				return
			default:
				t.rejects[code]++
			}
		}
	}
	chunk := (perClient + serveChunks - 1) / serveChunks
	sec := beginSection(true)
	for first := 0; first < perClient; first += chunk {
		var wg sync.WaitGroup
		for i := range callers {
			if tallies[i].dead {
				continue
			}
			wg.Add(1)
			go func() { defer wg.Done(); drive(i, first, min(chunk, perClient-first)) }()
		}
		wg.Wait()
		sec.sample()
	}
	sec.end(r)
	close(done)
	watchers.Wait()

	for _, t := range tallies {
		r.lat = append(r.lat, t.lat...)
		for code, n := range t.rejects {
			r.failed += n
			r.count("server.rejects."+code, float64(n))
		}
	}
	r.attempted = perClient * len(callers)
	r.simCycles = uint64(len(r.lat)) * runVerbCyc
	if r.failed > 0 {
		x.failf(nil, "%d of %d requests failed: %v", r.failed, r.attempted, r.counts)
	}

	r.wantCycle = uint64(warm+perClient) * runVerbCyc
	if r.failed == 0 {
		if err := verifyServed(f, callers, r); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// verifyServed checks every caller's session after the load: over the
// same wire path the load took, and in the server itself, it must sit at
// exactly the cycle the acknowledged requests add up to, and all sessions
// (same design, same requests) must hold identical state. A request the
// gateway dropped, duplicated or sent elsewhere shows here.
func verifyServed(f *fleet, callers []*caller, r *round) error {
	for _, k := range callers {
		got, err := k.cycle()
		if err != nil {
			return err
		}
		if got != r.wantCycle {
			return fmt.Errorf("oracle: session %s reports cycle %d over the wire, acknowledged requests add up to %d", k.session, got, r.wantCycle)
		}
		sess := f.srv.Session(k.session)
		if sess == nil {
			return fmt.Errorf("oracle: session %s not hosted", k.session)
		}
		one := &round{}
		if err := finishRound(one, sess, k.mesh); err != nil {
			return err
		}
		if one.sim.FinalCycle != r.wantCycle {
			return fmt.Errorf("oracle: session %s is at cycle %d in the server, %d over the wire", k.session, one.sim.FinalCycle, got)
		}
		if k == callers[0] {
			r.sim, r.session = one.sim, one.session
		} else if one.sim != r.sim {
			return fmt.Errorf("oracle: sessions diverged: %s has %+v, %s has %+v", callers[0].session, r.sim, k.session, one.sim)
		}
		for name, v := range one.counts {
			r.count(name, v)
		}
	}
	return nil
}
