package server_test

import (
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"livesim/internal/checkpoint"
	"livesim/internal/server"
)

// TestRecoversVersion1StateDir: a state dir written by the build before
// the frame container (testdata/v1-state: session fx's journal and its
// version 1 watermark checkpoint, see testdata/README.md) recovers
// through the watermark fast path to the fingerprint that session had
// live on that build.
func TestRecoversVersion1StateDir(t *testing.T) {
	const (
		wantCycle = "  140 (version v0)\n"
		wantPeek  = "  top.u0.total = 360 (0x168)\n"
		wantState = "20cb85a26f08f1196724f89c64041aef9467536f698d731be894a8aba4e2970d"
	)
	dir := shortDir(t)
	state := filepath.Join(dir, "state")
	if err := os.MkdirAll(state, 0o755); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"fx.wal", "fx.p0.lscp"} {
		data, err := os.ReadFile(filepath.Join("testdata", "v1-state", name))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(state, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	srv, stop := startServerOn(t, server.Config{StateDir: state, WALSyncEvery: -1}, filepath.Join(dir, "d.sock"))
	defer stop()
	srv.WaitRecovered()
	var recovery string
	for _, ev := range srv.Events().All() {
		if ev.Session == "fx" && (ev.Type == "recovery" || ev.Type == "recovery_failed" || ev.Type == "wal_fallback") {
			recovery += ev.Type + ": " + ev.Msg + "\n"
		}
	}
	if !strings.HasPrefix(recovery, "recovery: ") || !strings.Contains(recovery, "via 1 checkpoints, fast=true") {
		t.Fatalf("recovery events:\n%s", recovery)
	}

	p, ok := srv.Session("fx").Pipe("p0")
	if !ok {
		t.Fatal("no pipe p0")
	}
	sum := sha256.Sum256(checkpoint.NewStore().Add(p.Sim.Snapshot(), "", 0).Bytes())
	if got := hex.EncodeToString(sum[:]); got != wantState {
		t.Errorf("recovered state fingerprint %s, want %s", got, wantState)
	}
	c := dial(t, "unix:"+filepath.Join(dir, "d.sock"))
	if got := mustOK(t, c, &server.Request{Session: "fx", Verb: "cycle", Args: []string{"p0"}}).Output; got != wantCycle {
		t.Errorf("cycle %q, want %q", got, wantCycle)
	}
	if got := mustOK(t, c, &server.Request{Session: "fx", Verb: "peek", Args: []string{"p0", "top.u0.total"}}).Output; got != wantPeek {
		t.Errorf("peek %q, want %q", got, wantPeek)
	}
	// The recovered session keeps journaling onto the version 1 journal.
	mustOK(t, c, &server.Request{Session: "fx", Verb: "run", Args: []string{"clock", "p0", "10"}})
}
