package server_test

import (
	"strings"
	"testing"
	"time"

	"livesim/internal/server"
	"livesim/internal/server/client"
	"livesim/internal/transfer"
	"livesim/internal/wire"
)

// TestCloseMovedLeavesTombstone: closing a session with a forwarding
// address leaves a tombstone — the raw answer is a typed moved redirect,
// and a FollowMoves client dialed at the old backend lands on the new one.
func TestCloseMovedLeavesTombstone(t *testing.T) {
	_, addrA := startServer(t, server.Config{})
	_, addrB := startServer(t, server.Config{})
	cA, cB := dial(t, addrA), dial(t, addrB)

	createTiny(t, cA, "m0", 25)
	createTiny(t, cB, "m0", 25)
	mustOK(t, cB, &server.Request{Session: "m0", Verb: "poke", Args: []string{"p0", "top.en", "1"}})
	mustOK(t, cB, &server.Request{Session: "m0", Verb: "poke", Args: []string{"p0", "top.d", "7"}})
	mustOK(t, cB, &server.Request{Session: "m0", Verb: "run", Args: []string{"clock", "p0", "50"}})
	wantCycle := mustOK(t, cB, &server.Request{Session: "m0", Verb: "cycle", Args: []string{"p0"}}).Output

	mustOK(t, cA, &server.Request{Session: "m0", Verb: "close", Args: []string{"moved", addrB}})
	moved, err := cA.Do(&server.Request{Session: "m0", Verb: "cycle", Args: []string{"p0"}})
	if err != nil {
		t.Fatal(err)
	}
	if moved.OK || moved.Code != wire.CodeMoved || moved.MovedTo != addrB {
		t.Fatalf("post-move response = %+v, want code %q moved_to %q", moved, wire.CodeMoved, addrB)
	}

	// A redirect-following client dialed at the OLD backend transparently
	// ends up at the new one.
	cF, err := client.DialOptions(addrA, client.Options{FollowMoves: true})
	if err != nil {
		t.Fatal(err)
	}
	defer cF.Close()
	followed, err := cF.Do(&server.Request{Session: "m0", Verb: "cycle", Args: []string{"p0"}})
	if err != nil {
		t.Fatal(err)
	}
	if !followed.OK || followed.Output != wantCycle {
		t.Fatalf("FollowMoves response = %+v, want OK output %q", followed, wantCycle)
	}
	// The session keeps working through the followed connection.
	mustOK(t, cF, &server.Request{Session: "m0", Verb: "run", Args: []string{"clock", "p0", "10"}})
}

// TestImportRejectsBadBlobs: corruption and foreign filenames must be
// rejected before anything lands in the state dir.
func TestImportRejectsBadBlobs(t *testing.T) {
	dir := t.TempDir()
	_, addr := startServer(t, server.Config{StateDir: dir})
	c := dial(t, addr)

	if resp, err := c.Do(&server.Request{Verb: "import", Blob: []byte("not a blob")}); err != nil || resp.OK || resp.Code != wire.CodeBadRequest {
		t.Fatalf("garbage import = %+v err=%v", resp, err)
	}

	// A structurally valid blob smuggling another session's files.
	img, err := transfer.Encode(transfer.Meta{Session: "x1"}, []transfer.Entry{
		{Name: "x1.wal", Payload: []byte("journal")},
		{Name: "other.p0.lscp", Payload: []byte("not mine")},
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp, _ := c.Do(&server.Request{Verb: "import", Blob: img}); resp.OK || resp.Code != wire.CodeBadRequest {
		t.Fatalf("foreign-entry import = %+v, want bad_request", resp)
	}

	// A whitelisted-but-corrupt journal must fail cleanly and leave no
	// half-imported session behind.
	img2, err := transfer.Encode(transfer.Meta{Session: "x1"}, []transfer.Entry{
		{Name: "x1.wal", Payload: []byte("not a journal")},
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp, _ := c.Do(&server.Request{Verb: "import", Blob: img2}); resp.OK {
		t.Fatalf("corrupt-journal import = %+v, want failure", resp)
	}
	if resp := mustOK(t, c, &server.Request{Verb: "sessions"}); strings.Contains(resp.Output, "x1") {
		t.Fatalf("failed import left a session behind: %s", resp.Output)
	}
}

// TestReplicateRequiresJournal: without a state dir there is nothing
// durable to seed a standby with.
func TestReplicateRequiresJournal(t *testing.T) {
	_, addr := startServer(t, server.Config{})
	c := dial(t, addr)
	createTiny(t, c, "e0", 25)
	resp, err := c.Do(&server.Request{Session: "e0", Verb: "replicate", Args: []string{addr}})
	if err != nil || resp.OK || resp.Code != wire.CodeBadRequest || !strings.Contains(resp.Error, "no journal") {
		t.Fatalf("journal-less replicate = %+v err=%v", resp, err)
	}
}

// TestDrainVerb: the wire-initiated drain must fire DrainRequested so
// the host process can run the same Shutdown path SIGTERM does.
func TestDrainVerb(t *testing.T) {
	srv, addr := startServer(t, server.Config{})
	c := dial(t, addr)
	select {
	case <-srv.DrainRequested():
		t.Fatal("DrainRequested fired before the verb")
	default:
	}
	mustOK(t, c, &server.Request{Verb: "drain"})
	select {
	case <-srv.DrainRequested():
	case <-time.After(2 * time.Second):
		t.Fatal("drain verb did not fire DrainRequested")
	}
	// Idempotent enough: a second drain while not yet draining acks too
	// (the server only starts rejecting once Shutdown begins).
	mustOK(t, c, &server.Request{Verb: "drain"})
}
