package gateway_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"livesim/internal/gateway"
	"livesim/internal/obs"
	"livesim/internal/server"
	"livesim/internal/server/client"
	"livesim/internal/wire"
)

// The migration fault matrix. A migration is a planned failover — seed
// the target as the session's standby, freeze the route, catch the
// stream up, promote — so each case breaks that one mechanism at one of
// its worst moments and asserts what every move must keep:
//
//   - exactly one primary copy of the session, and
//   - a fingerprint (accumulator value + cycle report) bit-identical to
//     the last acked state: no acked mutation lost.
//
// The OnMigrateStage seam fires at "seed" (before the seed), "promote"
// (frozen and caught up, promote not yet sent) and "commit" (the route
// points at the promoted target, the source not yet tombstoned).

// matrix is the shared scaffolding: two backends, a gateway between
// them (directly, or through a cutProxy per backend), one driven
// session, and the fingerprint it must keep.
type matrix struct {
	src, dst            *testBackend
	via                 map[*testBackend]*cutProxy // nil unless proxied
	gw                  *gateway.Gateway
	c                   *client.Client
	wantPeek, wantCycle string
}

func setupMatrix(t *testing.T, cfg gateway.Config, proxied bool) *matrix {
	t.Helper()
	m := &matrix{src: newTestBackend(t), dst: newTestBackend(t)}
	for _, b := range []*testBackend{m.src, m.dst} {
		addr := b.addr()
		if proxied {
			if m.via == nil {
				m.via = map[*testBackend]*cutProxy{}
			}
			m.via[b] = startCutProxy(t, addr)
			addr = m.via[b].addr
		}
		cfg.Backends = append(cfg.Backends, gateway.BackendSpec{Addr: addr})
	}
	var gaddr string
	m.gw, gaddr = startGateway(t, cfg)
	m.c = dial(t, gaddr)
	createTiny(t, m.c, "f0")
	m.wantPeek, m.wantCycle = drive(t, m.c, "f0")

	// Normalize: if placement chose what we call dst, swap the labels so
	// src is always the session's home.
	if primaryOf(t, []*testBackend{m.src, m.dst}, "f0") == m.dst {
		m.src, m.dst = m.dst, m.src
	}
	return m
}

// gwAddr is the address the gateway knows b by.
func (m *matrix) gwAddr(b *testBackend) string {
	if p := m.via[b]; p != nil {
		return p.addr
	}
	return b.addr()
}

// assertOnePrimary fails unless want is the one backend holding f0 as a
// primary, and f0's fingerprint through the gateway is the acked one.
func (m *matrix) assertOnePrimary(t *testing.T, want *testBackend) {
	t.Helper()
	primaries := 0
	for _, b := range []*testBackend{m.src, m.dst} {
		if in, ok := sessionInfosOf(t, b)["f0"]; ok && !in.Follower {
			primaries++
		}
	}
	if got := primaryOf(t, []*testBackend{m.src, m.dst}, "f0"); primaries != 1 || got != want {
		t.Fatalf("%d primary copies (first on %v), want exactly one on %s", primaries, got, want.addr())
	}
	if peek, cycle := fingerprint(t, m.c, "f0"); peek != m.wantPeek || cycle != m.wantCycle {
		t.Fatalf("fingerprint = (%q, %q), want (%q, %q)", peek, cycle, m.wantPeek, m.wantCycle)
	}
}

func (m *matrix) migrate(t *testing.T) (*gateway.MigrationReport, *server.Response) {
	t.Helper()
	resp, err := m.c.Do(&server.Request{Session: "f0", Verb: "migrate"})
	if err != nil {
		t.Fatal(err)
	}
	if !resp.OK {
		return nil, resp
	}
	var rep gateway.MigrationReport
	if err := json.Unmarshal(resp.Data, &rep); err != nil {
		t.Fatal(err)
	}
	return &rep, resp
}

// waitPoolOK waits until the gateway sees every backend healthy again.
func (m *matrix) waitPoolOK(t *testing.T) {
	t.Helper()
	waitUntil(t, 5*time.Second, "every backend ok", func() bool {
		var infos []gateway.BackendInfo
		json.Unmarshal(m.gw.AdminBackends(), &infos)
		for _, in := range infos {
			if in.State != "ok" {
				return false
			}
		}
		return true
	})
}

// (a) The source dies at commit: the target is already promoted and the
// route points at it, so the migration succeeds without the source. The
// restarted source's old-epoch copy is a resurrection the reconcile
// sweep closes.
func TestMigrateSourceCrashAtCommit(t *testing.T) {
	var m *matrix
	m = setupMatrix(t, gateway.OnMigrateStage(gateway.Config{}, func(_, stage string) {
		if stage == "commit" {
			m.src.halt()
		}
	}), false)

	rep, resp := m.migrate(t)
	if rep == nil || rep.To != m.dst.addr() {
		t.Fatalf("migration = %+v (%+v), want success onto %s", rep, resp, m.dst.addr())
	}
	m.assertOnePrimary(t, m.dst)

	m.src.restart()
	waitUntil(t, 5*time.Second, "resurrected source copy swept", func() bool {
		_, ok := sessionInfosOf(t, m.src)["f0"]
		return !ok
	})
	m.assertOnePrimary(t, m.dst)
}

// (b) The target dies at promote: the migration aborts and the source
// serves. The restarted target's follower copy is neither promoted nor
// adopted as the route's standby: the reconcile sweep closes it.
func TestMigrateTargetCrashBeforeCommit(t *testing.T) {
	var m *matrix
	m = setupMatrix(t, gateway.OnMigrateStage(gateway.Config{}, func(_, stage string) {
		if stage == "promote" {
			m.dst.halt()
		}
	}), false)

	if rep, _ := m.migrate(t); rep != nil {
		t.Fatalf("migration reported success with the target dead at promote: %+v", rep)
	}
	m.assertOnePrimary(t, m.src)

	m.dst.restart()
	waitUntil(t, 5*time.Second, "stale follower copy swept from the target", func() bool {
		_, ok := sessionInfosOf(t, m.dst)["f0"]
		return !ok
	})
	var infos []gateway.BackendInfo
	json.Unmarshal(m.gw.AdminBackends(), &infos)
	for _, in := range infos {
		if in.ReplicaRoutes != 0 {
			t.Fatalf("backend %s is a standby for %d routes, want none", in.Addr, in.ReplicaRoutes)
		}
	}
	m.assertOnePrimary(t, m.src)
}

// The source dies before commit with replication on: its journal is out
// of reach, so the abort leaves the follower holding its stream as the
// route's standby, and the failover sweep promotes it with every acked
// mutation. Halted at "seed" in a two-backend pool, the move onto the
// standby seeds nothing and finds the source dead at the catch-up; in a
// three-backend pool, the move onto the third backend finds it dead at
// the seed, and the former standby is the copy promoted.
func TestMigrateSourceCrashBeforeCommit(t *testing.T) {
	for _, n := range []int{2, 3} {
		t.Run(fmt.Sprintf("%d backends", n), func(t *testing.T) {
			var pool []*testBackend
			var specs []gateway.BackendSpec
			for i := 0; i < n; i++ {
				pool = append(pool, newTestBackend(t))
				specs = append(specs, gateway.BackendSpec{Addr: pool[i].addr()})
			}
			var src *testBackend
			cfg := gateway.Config{Backends: specs, Replicate: true, FailoverGrace: 200 * time.Millisecond}
			g, gaddr := startGateway(t, gateway.OnMigrateStage(cfg, func(_, stage string) {
				if stage == "seed" {
					src.halt()
				}
			}))
			c := dial(t, gaddr)
			createTiny(t, c, "f0")
			wantPeek, wantCycle := drive(t, c, "f0")
			src = primaryOf(t, pool, "f0")
			standby := sessionInfosOf(t, src)["f0"].ReplicaAddr
			target := standby
			for _, b := range pool {
				if b != src && b.addr() != standby {
					target = b.addr()
				}
			}

			resp, err := c.Do(&server.Request{Session: "f0", Verb: "migrate", Args: []string{target}})
			if err != nil {
				t.Fatal(err)
			}
			if resp.OK {
				t.Fatalf("migration reported success with the source dead: %s", resp.Output)
			}
			waitUntil(t, 10*time.Second, "failover after the aborted move", func() bool {
				r, err := c.Do(&server.Request{Session: "f0", Verb: "peek", Args: []string{"p0", "top.u0.total"}})
				return err == nil && r.OK
			})
			if p := primaryOf(t, pool, "f0"); p == nil || p.addr() != standby {
				t.Fatalf("primary after failover = %v, want the standby %s", p, standby)
			}
			if peek, cycle := fingerprint(t, c, "f0"); peek != wantPeek || cycle != wantCycle {
				t.Fatalf("fingerprint = (%q, %q), want (%q, %q)", peek, cycle, wantPeek, wantCycle)
			}
			failovers := 0
			for _, e := range g.Events() {
				if e.Type == "failover" && e.Session == "f0" {
					failovers++
				}
			}
			if failovers != 1 {
				t.Fatalf("%d failover events, want 1", failovers)
			}
		})
	}
}

// (c) The promote lands but its reply is lost: the target's connection is
// cut right after the request. The migration aborts, the source's stream
// is stopped (it must never ship to the promoted copy), the promoted copy
// is closed, and a retry succeeds.
func TestMigratePromoteReplyLost(t *testing.T) {
	var m *matrix
	var cut sync.Once
	m = setupMatrix(t, gateway.OnMigrateStage(gateway.Config{}, func(_, stage string) {
		if stage == "promote" {
			cut.Do(func() { m.via[m.dst].armed.Store(true) })
		}
	}), true)

	if rep, _ := m.migrate(t); rep != nil {
		t.Fatalf("migration reported success with the promote reply lost: %+v", rep)
	}
	if m.via[m.dst].armed.Load() {
		t.Fatal("the promote never reached the target's proxy")
	}
	if in := sessionInfosOf(t, m.src)["f0"]; in.ReplicaAddr != "" {
		t.Fatalf("source still streams to %s after the abort", in.ReplicaAddr)
	}
	m.assertOnePrimary(t, m.src)

	m.waitPoolOK(t)
	rep, resp := m.migrate(t)
	if rep == nil || rep.To != m.gwAddr(m.dst) {
		t.Fatalf("retried migration = %+v (%+v), want success onto %s", rep, resp, m.gwAddr(m.dst))
	}
	m.assertOnePrimary(t, m.dst)
}

// (d) With replication on, the stream is cut before the last mutation's
// batch: the mutation is acked with the standby behind. Catch-up ships
// it, or the migration aborts and a retry succeeds; either way the
// target serves every acked mutation.
func TestMigrateStreamCutBeforeLastBatch(t *testing.T) {
	m := setupMatrix(t, gateway.Config{Replicate: true}, false)

	stats := mustOK(t, m.c, &server.Request{Session: "f0", Verb: "stats", Args: []string{"json"}})
	var snap obs.Snapshot
	if err := json.Unmarshal([]byte(stats.Output), &snap); err != nil {
		t.Fatal(err)
	}
	m.src.faults.DropReplStream(int(snap.Counters["repl_batches"]) + 1)
	mustOK(t, m.c, &server.Request{Session: "f0", Verb: "run", Args: []string{"clock", "p0", "5"}})
	if in := sessionInfosOf(t, m.src)["f0"]; in.ReplLag == 0 {
		t.Fatalf("primary row = %+v after the cut, want the last batch unshipped", in)
	}
	m.wantPeek, m.wantCycle = fingerprint(t, m.c, "f0")

	rep, _ := m.migrate(t)
	if rep == nil {
		rep, _ = m.migrate(t)
	}
	if rep == nil || rep.To != m.dst.addr() {
		t.Fatalf("migration after the cut = %+v, want success onto %s", rep, m.dst.addr())
	}
	m.assertOnePrimary(t, m.dst)
}

// (e) With replication on, the default target is the standby: the
// migration seeds nothing, and the new primary is re-armed — in a
// two-backend pool onto the old source.
func TestMigrateToStandbySeedsNothing(t *testing.T) {
	m := setupMatrix(t, gateway.Config{Replicate: true}, false)
	seeds := func() int {
		n := 0
		for _, e := range m.src.srv.Events() {
			if e.Type == "replication_started" && e.Session == "f0" {
				n++
			}
		}
		return n
	}
	before := seeds()

	rep, resp := m.migrate(t)
	if rep == nil || rep.To != m.dst.addr() {
		t.Fatalf("migration = %+v (%+v), want success onto the standby %s", rep, resp, m.dst.addr())
	}
	if after := seeds(); after != before {
		t.Errorf("the source seeded %d times during the migration, want 0", after-before)
	}
	m.assertOnePrimary(t, m.dst)
	if in := sessionInfosOf(t, m.dst)["f0"]; in.ReplicaAddr != m.src.addr() || in.ReplLag != 0 {
		t.Fatalf("new primary row = %+v, want it re-armed onto %s", in, m.src.addr())
	}
	if in := sessionInfosOf(t, m.src)["f0"]; !in.Follower {
		t.Fatalf("old source row = %+v, want the new standby's follower copy", in)
	}
}

// With replication on, a full disk refuses the source's next append:
// the mutation is answered disk_full and undone, nothing is shipped, and
// the journal head does not move. The migration then moves exactly the
// acked state — the fingerprint from before the refused mutation.
func TestMigrateAfterRefusedAppend(t *testing.T) {
	m := setupMatrix(t, gateway.Config{Replicate: true}, false)

	// The next mutation's append and both its retries hit ENOSPC.
	head := sessionInfosOf(t, m.src)["f0"].HeadSeq
	m.src.faults.DiskFullAppends(int(head)+1, 3)
	resp, err := m.c.Do(&server.Request{Session: "f0", Verb: "run", Args: []string{"clock", "p0", "5"}})
	if err != nil || resp.OK || resp.Code != wire.CodeDiskFull {
		t.Fatalf("run with a refused append: resp=%+v err=%v, want disk_full", resp, err)
	}
	if in := sessionInfosOf(t, m.src)["f0"]; in.HeadSeq != head || in.Quarantined {
		t.Fatalf("source row = %+v, want its journal still at seq %d and no quarantine", in, head)
	}
	if peek, cycle := fingerprint(t, m.c, "f0"); peek != m.wantPeek || cycle != m.wantCycle {
		t.Fatalf("after the refused run: (%q, %q), want the acked (%q, %q)", peek, cycle, m.wantPeek, m.wantCycle)
	}

	rep, resp := m.migrate(t)
	if rep == nil || rep.To != m.dst.addr() {
		t.Fatalf("migration = %+v (%+v), want success onto the standby %s", rep, resp, m.dst.addr())
	}
	m.assertOnePrimary(t, m.dst)
}

// cutProxy relays the wire protocol to one backend. Armed, it passes the
// next promote request on and then closes the connection it came from:
// the backend promotes, the sender never hears back.
type cutProxy struct {
	addr  string
	armed atomic.Bool
}

func startCutProxy(t *testing.T, backend string) *cutProxy {
	t.Helper()
	dir, err := os.MkdirTemp("", "lsgw") // short path: unix sockets cap ~104 bytes
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.RemoveAll(dir) })
	ln, err := net.Listen("unix", filepath.Join(dir, "p.sock"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	p := &cutProxy{addr: "unix:" + filepath.Join(dir, "p.sock")}
	network, target := wire.SplitAddr(backend)
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			s, err := net.Dial(network, target)
			if err != nil {
				c.Close()
				continue
			}
			go func() {
				io.Copy(c, s)
				c.Close()
				s.Close()
			}()
			go func() {
				sc := wire.NewScanner(c)
				for sc.Scan() {
					line := append(sc.Bytes(), '\n')
					if _, err := s.Write(line); err != nil {
						break
					}
					if bytes.Contains(line, []byte(`"verb":"promote"`)) && p.armed.CompareAndSwap(true, false) {
						c.Close() // the reply has nowhere to go; the copier then closes s
						return
					}
				}
				s.Close()
			}()
		}
	}()
	return p
}
