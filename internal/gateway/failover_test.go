package gateway_test

import (
	"encoding/json"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"livesim/internal/faultinject"
	"livesim/internal/gateway"
	"livesim/internal/replica"
	"livesim/internal/server"
	"livesim/internal/server/client"
	"livesim/internal/wire"
)

// sessionInfosOf lists what a backend hosts, with the replication
// columns the plain name list hides. A dead backend reports hosting
// nothing (failover tests walk pools with halted members).
func sessionInfosOf(t testing.TB, b *testBackend) map[string]server.SessionInfo {
	t.Helper()
	c, err := client.Dial(b.addr())
	if err != nil {
		return nil
	}
	defer c.Close()
	resp, err := c.Do(&server.Request{Verb: "sessions"})
	if err != nil || !resp.OK {
		return nil
	}
	var infos []server.SessionInfo
	if resp.Data != nil {
		json.Unmarshal(resp.Data, &infos)
	}
	m := make(map[string]server.SessionInfo, len(infos))
	for _, info := range infos {
		m[info.Name] = info
	}
	return m
}

// primaryOf returns which backend hosts the session as a primary (not
// a follower copy).
func primaryOf(t testing.TB, backends []*testBackend, name string) *testBackend {
	t.Helper()
	for _, b := range backends {
		if in, ok := sessionInfosOf(t, b)[name]; ok && !in.Follower {
			return b
		}
	}
	return nil
}

// TestGatewayFailoverPromotesStandby: with replication armed, killing a
// session's primary past the grace window promotes the standby — the
// same gateway connection serves the session again with every acked
// mutation intact, and the resurrected old primary's copy is swept.
func TestGatewayFailoverPromotesStandby(t *testing.T) {
	b0, b1 := newTestBackend(t), newTestBackend(t)
	backends := []*testBackend{b0, b1}
	_, gaddr := startGateway(t, gateway.Config{
		Backends:      []gateway.BackendSpec{{Addr: b0.addr()}, {Addr: b1.addr()}},
		Replicate:     true,
		FailoverGrace: 200 * time.Millisecond,
	})
	c := dial(t, gaddr)

	createTiny(t, c, "f0")
	wantPeek, wantCycle := drive(t, c, "f0")

	primary := primaryOf(t, backends, "f0")
	if primary == nil {
		t.Fatal("no backend hosts f0 as primary")
	}
	standby := b0
	if primary == b0 {
		standby = b1
	}
	// The create armed replication: the standby holds a hot follower,
	// and every mutation drive() committed was acked by it.
	pin := sessionInfosOf(t, primary)["f0"]
	if pin.ReplicaAddr != standby.addr() || pin.ReplLag != 0 || pin.ReplAckedSeq != pin.HeadSeq {
		t.Fatalf("primary replication row = %+v, want standby %s fully acked", pin, standby.addr())
	}
	if sin := sessionInfosOf(t, standby)["f0"]; !sin.Follower {
		t.Fatalf("standby row = %+v, want follower", sin)
	}

	primary.halt()
	// Failover: past the grace window the sweep promotes the standby and
	// the session serves again — no restart of the dead backend needed.
	waitUntil(t, 10*time.Second, "failover to the standby", func() bool {
		r, err := c.Do(&server.Request{Session: "f0", Verb: "peek", Args: []string{"p0", "top.u0.total"}})
		return err == nil && r.OK
	})
	gotPeek, gotCycle := fingerprint(t, c, "f0")
	if gotPeek != wantPeek || gotCycle != wantCycle {
		t.Errorf("state after failover = (%q, %q), want (%q, %q)", gotPeek, gotCycle, wantPeek, wantCycle)
	}
	// The promoted copy is a primary under a real epoch and takes writes.
	mustOK(t, c, &server.Request{Session: "f0", Verb: "run", Args: []string{"clock", "p0", "10"}})
	nin := sessionInfosOf(t, standby)["f0"]
	if nin.Follower || nin.Epoch == 0 {
		t.Fatalf("promoted row = %+v, want primary with epoch > 0", nin)
	}

	// The old primary comes back with its pre-failover copy: the
	// gateway's reconcile sweep must close it (exactly-one-copy), not
	// let it serve a stale fork.
	primary.restart()
	waitUntil(t, 10*time.Second, "stale copy swept from the old primary", func() bool {
		_, ok := sessionInfosOf(t, primary)["f0"]
		return !ok
	})
	// And the session still serves from the survivor.
	mustOK(t, c, &server.Request{Session: "f0", Verb: "run", Args: []string{"clock", "p0", "5"}})
}

// TestGatewayStalePromoteFenced: the promote-stale fault makes the
// gateway's second failover first attempt a promotion under the
// session's current epoch. The standby must reject it with the typed
// fenced code — a replayed or duplicate promotion cannot fork history —
// and the real promotion still lands.
func TestGatewayStalePromoteFenced(t *testing.T) {
	b0, b1, b2 := newTestBackend(t), newTestBackend(t), newTestBackend(t)
	backends := []*testBackend{b0, b1, b2}
	faults := faultinject.New()
	g, gaddr := startGateway(t, gateway.Config{
		Backends:      []gateway.BackendSpec{{Addr: b0.addr()}, {Addr: b1.addr()}, {Addr: b2.addr()}},
		Replicate:     true,
		FailoverGrace: 200 * time.Millisecond,
		Faults:        faults,
	})
	c := dial(t, gaddr)

	createTiny(t, c, "s0")
	wantPeek, wantCycle := drive(t, c, "s0")

	// Failover #1 (normal): establishes epoch 1 and re-arms replication
	// onto the third backend.
	first := primaryOf(t, backends, "s0")
	if first == nil {
		t.Fatal("no backend hosts s0 as primary")
	}
	first.halt()
	waitUntil(t, 10*time.Second, "first failover", func() bool {
		r, err := c.Do(&server.Request{Session: "s0", Verb: "peek", Args: []string{"p0", "top.u0.total"}})
		return err == nil && r.OK
	})
	second := primaryOf(t, backends, "s0")
	if second == nil || second == first {
		t.Fatalf("second primary = %v, want a promoted standby", second)
	}
	// The second failover needs the gateway to know the new standby, which
	// it records when the primary's reply to `replicate` arrives. The
	// primary reports a ReplicaAddr before it sends that reply, so halting
	// it on that evidence can lose the reply and leave the route without a
	// promotion target for good; wait for the gateway's own record instead
	// (one arm at create, one after the failover).
	waitUntil(t, 10*time.Second, "replication re-armed after failover", func() bool {
		armed := 0
		for _, e := range g.Events() {
			if e.Type == "replication_armed" && e.Session == "s0" {
				armed++
			}
		}
		return armed >= 2
	})

	// Failover #2 under the fault: the stale attempt must be fenced,
	// then the real promotion proceeds.
	faults.ForcePromoteStale()
	second.halt()
	waitUntil(t, 10*time.Second, "second failover", func() bool {
		r, err := c.Do(&server.Request{Session: "s0", Verb: "peek", Args: []string{"p0", "top.u0.total"}})
		return err == nil && r.OK
	})
	gotPeek, gotCycle := fingerprint(t, c, "s0")
	if gotPeek != wantPeek || gotCycle != wantCycle {
		t.Errorf("state after double failover = (%q, %q), want (%q, %q)", gotPeek, gotCycle, wantPeek, wantCycle)
	}
	fencedSeen := false
	for _, e := range g.Events() {
		if e.Type == "stale_promote_fenced" && e.Session == "s0" {
			fencedSeen = true
		}
	}
	if !fencedSeen {
		t.Error("stale promote was not attempted/fenced (no stale_promote_fenced event)")
	}
	if fired := faults.Fired(); len(fired) == 0 {
		t.Error("promote-stale fault never fired")
	}
	third := primaryOf(t, backends, "s0")
	if third == nil || third.srv == second.srv {
		t.Fatalf("third primary missing after second failover")
	}
	if in := sessionInfosOf(t, third)["s0"]; in.Epoch < 2 {
		t.Errorf("epoch after two failovers = %d, want >= 2", in.Epoch)
	}
}

// startOldPrimary serves the little of livesimd that placing a session and
// arming its replication needs — ping, sessions, create, replicate — as a
// backend on the build before the frame container would: its replicate
// seeds the standby, through the real shipper, with the transfer blob that
// build wrote (testdata/session-v1.lsxf of internal/transfer).
func startOldPrimary(t *testing.T) string {
	t.Helper()
	blob, err := os.ReadFile(filepath.Join("..", "transfer", "testdata", "session-v1.lsxf"))
	if err != nil {
		t.Fatal(err)
	}
	dir, err := os.MkdirTemp("", "lsgw") // short path: unix sockets cap ~104 bytes
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.RemoveAll(dir) })
	ln, err := net.Listen("unix", filepath.Join(dir, "old.sock"))
	if err != nil {
		t.Fatal(err)
	}
	acc := wire.NewAcceptor(func(c *wire.Conn) func(*wire.Request) {
		return func(req *wire.Request) {
			resp := &wire.Response{ID: req.ID, OK: true}
			switch req.Verb {
			case "ping", "sessions", "create":
			case "replicate":
				sp := replica.New(replica.Config{Session: req.Session, Target: req.Args[0]})
				if err := sp.Seed(blob, 1, 0); err != nil {
					resp = &wire.Response{ID: req.ID, Code: wire.CodeError, Error: err.Error()}
				}
				sp.Stop()
			default:
				resp = &wire.Response{ID: req.ID, Code: wire.CodeBadRequest, Error: "not served here"}
			}
			c.Reply(resp)
		}
	})
	go acc.Serve(ln)
	t.Cleanup(acc.Close)
	return "unix:" + filepath.Join(dir, "old.sock")
}

// TestGatewayRefusedSeedIsArmFailure: a standby refuses a seed blob in a
// transfer version its build does not read, naming the version, and the
// gateway reports it as the replication_arm_failed event it emits for any
// refused seed.
func TestGatewayRefusedSeedIsArmFailure(t *testing.T) {
	standby := newTestBackend(t)
	old := startOldPrimary(t)
	g, gaddr := startGateway(t, gateway.Config{
		Backends:  []gateway.BackendSpec{{Addr: standby.addr()}, {Addr: old}},
		Replicate: true,
	})
	c := dial(t, gaddr)
	events := func(typ, session string) []string {
		var msgs []string
		for _, e := range g.Events() {
			if e.Type == typ && e.Session == session {
				msgs = append(msgs, e.Msg)
			}
		}
		return msgs
	}
	// Placement is by hash: name the session so that it lands on the old
	// primary. Arming runs before the create is answered.
	name := ""
	for i := 0; name == "" && i < 1<<16; i++ {
		if n := fmt.Sprintf("old%d", i); gateway.RendezvousScore(old, n) > gateway.RendezvousScore(standby.addr(), n) {
			name = n
		}
	}
	if name == "" {
		t.Fatal("no session name places on the old primary")
	}
	mustOK(t, c, &server.Request{Session: name, Verb: "create",
		Files: map[string]string{"top.v": tinyDesign}, Top: "top"})
	if placed := events("placed", name); len(placed) != 1 || !strings.HasSuffix(placed[0], old) {
		t.Fatalf("placed events for %s: %q", name, placed)
	}
	failed := events("replication_arm_failed", name)
	if len(failed) != 1 || !strings.Contains(failed[0], "LSXF version 1 not supported") {
		t.Fatalf("arm events for %s: failed %q, armed %q", name, failed, events("replication_armed", name))
	}
	if _, ok := sessionInfosOf(t, standby)[name]; ok {
		t.Errorf("the standby hosts %s after refusing its seed", name)
	}
}

// TestGatewayReplicateStopDropsStandby: a `replicate stop` forwarded
// through the gateway takes the route's standby with it. When the primary
// then dies, its stale follower copy is not promoted, and the mutations
// acked after the stream stopped are all there once the primary restarts.
func TestGatewayReplicateStopDropsStandby(t *testing.T) {
	b0, b1 := newTestBackend(t), newTestBackend(t)
	const grace = 200 * time.Millisecond
	g, gaddr := startGateway(t, gateway.Config{
		Backends:      []gateway.BackendSpec{{Addr: b0.addr()}, {Addr: b1.addr()}},
		Replicate:     true,
		FailoverGrace: grace,
	})
	c := dial(t, gaddr)
	createTiny(t, c, "s0")
	drive(t, c, "s0")
	primary := primaryOf(t, []*testBackend{b0, b1}, "s0")

	mustOK(t, c, &server.Request{Session: "s0", Verb: "replicate", Args: []string{"stop"}})
	mustOK(t, c, &server.Request{Session: "s0", Verb: "run", Args: []string{"clock", "p0", "10"}})
	wantPeek, wantCycle := fingerprint(t, c, "s0")

	primary.halt()
	time.Sleep(3 * grace)
	for _, e := range g.Events() {
		if e.Type == "failover" && e.Session == "s0" {
			t.Fatalf("stale standby promoted after replicate stop: %s", e.Msg)
		}
	}
	primary.restart()
	waitUntil(t, 5*time.Second, "primary serving again", func() bool {
		r, err := c.Do(&server.Request{Session: "s0", Verb: "peek", Args: []string{"p0", "top.u0.total"}})
		return err == nil && r.OK
	})
	if peek, cycle := fingerprint(t, c, "s0"); peek != wantPeek || cycle != wantCycle {
		t.Errorf("state after restart = (%q, %q), want (%q, %q)", peek, cycle, wantPeek, wantCycle)
	}
}

// TestGatewayDrainMovesStandbyNotPrimary: draining a backend that holds
// only a session's standby copy re-arms the standby onto the third
// backend and closes the copy. The primary does not move.
func TestGatewayDrainMovesStandbyNotPrimary(t *testing.T) {
	b0, b1, b2 := newTestBackend(t), newTestBackend(t), newTestBackend(t)
	backends := []*testBackend{b0, b1, b2}
	_, gaddr := startGateway(t, gateway.Config{
		Backends:  []gateway.BackendSpec{{Addr: b0.addr()}, {Addr: b1.addr()}, {Addr: b2.addr()}},
		Replicate: true,
	})
	c := dial(t, gaddr)
	// Name the session so that rendezvous places it on b0 with b1, the
	// backend drained below, as its standby.
	name := ""
	for i := 0; name == "" && i < 1<<16; i++ {
		n := fmt.Sprintf("d%d", i)
		s0, s1, s2 := gateway.RendezvousScore(b0.addr(), n), gateway.RendezvousScore(b1.addr(), n), gateway.RendezvousScore(b2.addr(), n)
		if s0 > s1 && s1 > s2 {
			name = n
		}
	}
	createTiny(t, c, name)
	wantPeek, wantCycle := drive(t, c, name)
	if in := sessionInfosOf(t, b0)[name]; in.Follower || in.ReplicaAddr != b1.addr() {
		t.Fatalf("primary row = %+v, want a primary on %s streaming to %s", in, b0.addr(), b1.addr())
	}

	resp := mustOK(t, c, &server.Request{Verb: "drain", Args: []string{b1.addr()}})
	var rep gateway.DrainBackendReport
	if err := json.Unmarshal(resp.Data, &rep); err != nil {
		t.Fatal(err)
	}
	if len(rep.Failed) != 0 || !rep.DrainSent || len(rep.Migrated) != 0 {
		t.Fatalf("drain report = %+v, want nothing migrated, none failed, drain sent", rep)
	}
	if p := primaryOf(t, backends, name); p != b0 {
		t.Fatalf("primary moved to %v, want it left on %s", p, b0.addr())
	}
	if in := sessionInfosOf(t, b0)[name]; in.ReplicaAddr != b2.addr() || in.ReplLag != 0 {
		t.Fatalf("primary row after drain = %+v, want its standby on %s", in, b2.addr())
	}
	if in := sessionInfosOf(t, b2)[name]; !in.Follower {
		t.Fatalf("third backend row = %+v, want the new follower copy", in)
	}
	if _, ok := sessionInfosOf(t, b1)[name]; ok {
		t.Fatalf("drained backend still holds a copy of %s", name)
	}
	if peek, cycle := fingerprint(t, c, name); peek != wantPeek || cycle != wantCycle {
		t.Errorf("state after drain = (%q, %q), want (%q, %q)", peek, cycle, wantPeek, wantCycle)
	}
}
