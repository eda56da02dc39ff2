package server_test

import (
	"encoding/json"
	"strings"
	"testing"
	"time"

	"livesim/internal/server"
	"livesim/internal/server/client"
	"livesim/internal/transfer"
	"livesim/internal/wire"
)

// exportBlob drives a session to a known state and exports it,
// returning the blob plus the source's fingerprint (peek + cycle).
func exportBlob(t *testing.T, c *client.Client, name string) (blob []byte, peek, cycle string) {
	t.Helper()
	mustOK(t, c, &server.Request{Session: name, Verb: "poke", Args: []string{"p0", "top.en", "1"}})
	mustOK(t, c, &server.Request{Session: name, Verb: "poke", Args: []string{"p0", "top.d", "7"}})
	mustOK(t, c, &server.Request{Session: name, Verb: "run", Args: []string{"clock", "p0", "50"}})
	peek = mustOK(t, c, &server.Request{Session: name, Verb: "peek", Args: []string{"p0", "top.u0.total"}}).Output
	cycle = mustOK(t, c, &server.Request{Session: name, Verb: "cycle", Args: []string{"p0"}}).Output

	resp := mustOK(t, c, &server.Request{Session: name, Verb: "export"})
	var ed server.ExportData
	if err := json.Unmarshal(resp.Data, &ed); err != nil {
		t.Fatalf("export data: %v", err)
	}
	if ed.Session != name || len(ed.Blob) == 0 || ed.WALBytes == 0 {
		t.Fatalf("export data = %+v", ed)
	}
	return ed.Blob, peek, cycle
}

// TestExportImportMovesSession is the migration round trip: export from
// A, import into B, assert the fingerprint is identical, then close A's
// copy with a forwarding tombstone and assert both the raw moved
// response and the client's FollowMoves redirect land on B.
func TestExportImportMovesSession(t *testing.T) {
	dirA, dirB := t.TempDir(), t.TempDir()
	_, addrA := startServer(t, server.Config{StateDir: dirA, WALSyncEvery: -1})
	_, addrB := startServer(t, server.Config{StateDir: dirB, WALSyncEvery: -1})
	cA, cB := dial(t, addrA), dial(t, addrB)

	createTiny(t, cA, "m0", 25)
	blob, wantPeek, wantCycle := exportBlob(t, cA, "m0")

	// Source must still be fully alive after a (non-destructive) export.
	mustOK(t, cA, &server.Request{Session: "m0", Verb: "cycle", Args: []string{"p0"}})

	resp := mustOK(t, cB, &server.Request{Verb: "import", Blob: blob})
	var id server.ImportData
	if err := json.Unmarshal(resp.Data, &id); err != nil {
		t.Fatalf("import data: %v", err)
	}
	if id.Session != "m0" {
		t.Fatalf("import data = %+v", id)
	}
	if !id.FastPath {
		// Pure poke/run streams must take the watermark fast path — that
		// is the whole point of exporting right after a strict watermark.
		t.Errorf("import replayed without the fast path: %+v", id)
	}
	if got := mustOK(t, cB, &server.Request{Session: "m0", Verb: "peek", Args: []string{"p0", "top.u0.total"}}).Output; got != wantPeek {
		t.Errorf("imported peek = %q, want %q", got, wantPeek)
	}
	if got := mustOK(t, cB, &server.Request{Session: "m0", Verb: "cycle", Args: []string{"p0"}}).Output; got != wantCycle {
		t.Errorf("imported cycle = %q, want %q", got, wantCycle)
	}

	// Commit point: close the source copy with a forwarding tombstone.
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

	// The imported session keeps journaling on B: a further mutation must
	// raise the watermark numbers `sessions` now reports.
	srows := mustOK(t, cB, &server.Request{Verb: "sessions"})
	var infos []server.SessionInfo
	if err := json.Unmarshal(srows.Data, &infos); err != nil {
		t.Fatal(err)
	}
	if len(infos) != 1 || infos[0].WALBytes == 0 || infos[0].MarkSeq == 0 {
		t.Fatalf("sessions after import = %+v, want wal_bytes and mark_seq set", infos)
	}
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

// TestExportRequiresJournal: without a state dir there is nothing
// durable to ship.
func TestExportRequiresJournal(t *testing.T) {
	_, addr := startServer(t, server.Config{})
	c := dial(t, addr)
	createTiny(t, c, "e0", 25)
	resp, err := c.Do(&server.Request{Session: "e0", Verb: "export"})
	if err != nil || resp.OK || resp.Code != wire.CodeBadRequest {
		t.Fatalf("journal-less export = %+v err=%v", resp, err)
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
