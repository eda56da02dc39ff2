package server_test

import (
	"encoding/json"
	"testing"

	"livesim/internal/replica"
	"livesim/internal/server"
	"livesim/internal/wire"
)

// sessionInfos fetches and decodes the sessions table.
func sessionInfos(t *testing.T, c interface {
	Do(*server.Request) (*server.Response, error)
}) map[string]server.SessionInfo {
	t.Helper()
	resp, err := c.Do(&server.Request{Verb: "sessions"})
	if err != nil || !resp.OK {
		t.Fatalf("sessions: %+v err=%v", resp, err)
	}
	var infos []server.SessionInfo
	if err := json.Unmarshal(resp.Data, &infos); err != nil {
		t.Fatal(err)
	}
	m := make(map[string]server.SessionInfo, len(infos))
	for _, in := range infos {
		m[in.Name] = in
	}
	return m
}

// TestReplicationSeedShipPromote is the tentpole's happy path in one
// process pair: seed a standby, ship every committed mutation, kill the
// primary (SIGKILL-equivalent Halt), promote the follower, and assert
// the promoted copy carries every acked mutation bit-for-bit.
func TestReplicationSeedShipPromote(t *testing.T) {
	dirA, dirB := t.TempDir(), t.TempDir()
	// fsync-per-append on the primary: every acked mutation is durable,
	// so "acked" is well-defined for the loss assertion below.
	srvA, addrA := startServer(t, server.Config{StateDir: dirA, WALSyncEvery: -1})
	_, addrB := startServer(t, server.Config{StateDir: dirB, WALSyncEvery: -1})
	cA, cB := dial(t, addrA), dial(t, addrB)

	createTiny(t, cA, "r0", 25)
	mustOK(t, cA, &server.Request{Session: "r0", Verb: "poke", Args: []string{"p0", "top.en", "1"}})
	mustOK(t, cA, &server.Request{Session: "r0", Verb: "poke", Args: []string{"p0", "top.d", "3"}})
	mustOK(t, cA, &server.Request{Session: "r0", Verb: "run", Args: []string{"clock", "p0", "10"}})

	// Arm replication: the standby is seeded with the migration blob and
	// imported in follower mode.
	resp := mustOK(t, cA, &server.Request{Session: "r0", Verb: "replicate", Args: []string{addrB}})
	var ack replica.Ack
	if err := json.Unmarshal(resp.Data, &ack); err != nil || ack.AckedSeq == 0 {
		t.Fatalf("replicate ack = %+v err=%v", ack, err)
	}

	if in, ok := sessionInfos(t, cB)["r0"]; !ok || !in.Follower {
		t.Fatalf("standby session after seed = %+v, want follower", in)
	}
	// Followers take mutations only from the stream.
	if r, err := cB.Do(&server.Request{Session: "r0", Verb: "poke",
		Args: []string{"p0", "top.d", "9"}}); err != nil || r.OK || r.Code != wire.CodeFollower {
		t.Fatalf("direct mutation on follower = %+v err=%v, want code %q", r, err, wire.CodeFollower)
	}

	// Post-seed mutations ship on commit: every OK below implies the
	// standby fsynced the record before the client saw the ack.
	mustOK(t, cA, &server.Request{Session: "r0", Verb: "poke", Args: []string{"p0", "top.d", "7"}})
	mustOK(t, cA, &server.Request{Session: "r0", Verb: "run", Args: []string{"clock", "p0", "40"}})
	wantPeek := mustOK(t, cA, &server.Request{Session: "r0", Verb: "peek", Args: []string{"p0", "top.u0.total"}}).Output
	wantCycle := mustOK(t, cA, &server.Request{Session: "r0", Verb: "cycle", Args: []string{"p0"}}).Output

	in := sessionInfos(t, cA)["r0"]
	if in.ReplicaAddr != addrB {
		t.Fatalf("primary replica_addr = %q, want %q", in.ReplicaAddr, addrB)
	}
	if in.HeadSeq == 0 || in.ReplAckedSeq != in.HeadSeq || in.ReplLag != 0 {
		t.Fatalf("replication lag after synchronous ship = %+v, want acked == head, lag 0", in)
	}

	// SIGKILL-equivalent on the primary, then promote the follower.
	srvA.Halt()
	presp := mustOK(t, cB, &server.Request{Session: "r0", Verb: "promote"})
	var pack replica.Ack
	if err := json.Unmarshal(presp.Data, &pack); err != nil || pack.Epoch == 0 {
		t.Fatalf("promote ack = %+v err=%v, want a nonzero epoch", pack, err)
	}

	// Zero lost acked mutations: the promoted copy answers with the
	// primary's exact fingerprint, then accepts new mutations.
	if got := mustOK(t, cB, &server.Request{Session: "r0", Verb: "peek", Args: []string{"p0", "top.u0.total"}}).Output; got != wantPeek {
		t.Errorf("promoted peek = %q, want %q", got, wantPeek)
	}
	if got := mustOK(t, cB, &server.Request{Session: "r0", Verb: "cycle", Args: []string{"p0"}}).Output; got != wantCycle {
		t.Errorf("promoted cycle = %q, want %q", got, wantCycle)
	}
	mustOK(t, cB, &server.Request{Session: "r0", Verb: "run", Args: []string{"clock", "p0", "5"}})
	pin := sessionInfos(t, cB)["r0"]
	if pin.Follower || pin.Epoch != pack.Epoch {
		t.Fatalf("promoted session = %+v, want primary at epoch %d", pin, pack.Epoch)
	}
}

// TestReplicationFencesStalePrimary: after the follower is promoted, a
// mutation on the old primary must come back CodeFenced — the shipped
// batch is rejected by the promoted copy, and the fence discovered
// during shipping converts the locally-applied mutation into a typed
// rejection so the stale branch is never acked.
func TestReplicationFencesStalePrimary(t *testing.T) {
	dirA, dirB := t.TempDir(), t.TempDir()
	_, addrA := startServer(t, server.Config{StateDir: dirA, WALSyncEvery: -1})
	_, addrB := startServer(t, server.Config{StateDir: dirB, WALSyncEvery: -1})
	cA, cB := dial(t, addrA), dial(t, addrB)

	createTiny(t, cA, "f0", 25)
	mustOK(t, cA, &server.Request{Session: "f0", Verb: "poke", Args: []string{"p0", "top.en", "1"}})
	mustOK(t, cA, &server.Request{Session: "f0", Verb: "replicate", Args: []string{addrB}})

	// Split-brain: promote the follower while the old primary still runs.
	mustOK(t, cB, &server.Request{Session: "f0", Verb: "promote"})

	// The stale primary's next mutation ships, is rejected under the new
	// epoch, and the response must be the typed fence — not an OK the
	// promoted copy never saw.
	r, err := cA.Do(&server.Request{Session: "f0", Verb: "poke", Args: []string{"p0", "top.d", "5"}})
	if err != nil {
		t.Fatal(err)
	}
	if r.OK || r.Code != wire.CodeFenced {
		t.Fatalf("stale-primary mutation = %+v, want code %q", r, wire.CodeFenced)
	}
	// Fencing is terminal: everything after rejects immediately.
	if r, _ := cA.Do(&server.Request{Session: "f0", Verb: "run",
		Args: []string{"clock", "p0", "5"}}); r.OK || r.Code != wire.CodeFenced {
		t.Fatalf("post-fence mutation = %+v, want code %q", r, wire.CodeFenced)
	}
	if in := sessionInfos(t, cA)["f0"]; !in.Fenced {
		t.Fatalf("stale primary sessions row = %+v, want fenced", in)
	}
	// The promoted copy keeps working and carries the pre-promote state.
	mustOK(t, cB, &server.Request{Session: "f0", Verb: "run", Args: []string{"clock", "p0", "5"}})
}

// TestReplicationEpochStampFencing: a request stamped with a newer
// epoch than the session holds is proof a newer primary exists — the
// backend must fence itself rather than apply the mutation. A stamp
// matching the current epoch passes.
func TestReplicationEpochStampFencing(t *testing.T) {
	dir := t.TempDir()
	_, addr := startServer(t, server.Config{StateDir: dir, WALSyncEvery: -1})
	c := dial(t, addr)
	createTiny(t, c, "e0", 25)

	// Current-epoch stamp (0 means unstamped; sessions start at epoch 0,
	// so stamp checking is exercised via the newer-epoch path).
	r, err := c.Do(&server.Request{Session: "e0", Verb: "poke",
		Args: []string{"p0", "top.en", "1"}, Epoch: 7})
	if err != nil {
		t.Fatal(err)
	}
	if r.OK || r.Code != wire.CodeFenced {
		t.Fatalf("newer-epoch stamp = %+v, want code %q", r, wire.CodeFenced)
	}
	if in := sessionInfos(t, c)["e0"]; !in.Fenced {
		t.Fatalf("sessions row after epoch fence = %+v, want fenced", in)
	}
	// Reads still work on a fenced session (diagnosis must stay possible).
	mustOK(t, c, &server.Request{Session: "e0", Verb: "cycle", Args: []string{"p0"}})
}
