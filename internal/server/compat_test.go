package server_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"livesim/internal/frame"
	"livesim/internal/server"
	"livesim/internal/sim"
	"livesim/internal/wal"
)

// TestRecoversVersion1StateDir: a state dir written by the build before
// the frame container (testdata/v1-state: session fx's journal and its
// version 1 watermark checkpoint, see testdata/README.md) recovers
// through the watermark fast path to the fingerprint that session had
// live on that build: every slot and memory word of every instance.
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
	for _, ev := range srv.Events() {
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
	if got := fullStateHash(p.Sim); got != wantState {
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

// fullStateHash is the SHA-256 of every slot and memory word of s, in the
// layout of the state record of version 1 and 2 checkpoint files, which
// held them all: cycle, finished flag and node count, then per node its
// path, object key, counted slots and counted memories, all u64 LE.
func fullStateHash(s *sim.Sim) string {
	u := binary.LittleEndian.AppendUint64
	str := func(b []byte, v string) []byte { return append(u(b, uint64(len(v))), v...) }
	finished := uint64(0)
	if s.Finished() {
		finished = 1
	}
	nodes := s.Nodes()
	b := u(u(u(nil, s.Cycle()), finished), uint64(len(nodes)))
	for _, n := range nodes {
		b = u(str(str(b, n.Path), n.Obj.Key), uint64(len(n.Inst.Slots)))
		for _, v := range n.Inst.Slots {
			b = u(b, v)
		}
		b = u(b, uint64(len(n.Inst.Mems)))
		for _, m := range n.Inst.Mems {
			b = u(b, uint64(len(m)))
			for _, v := range m {
				b = u(b, v)
			}
		}
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// TestRefusesJournalWithReanchorRecord: a state dir written while
// sessions acked mutations they did not journal can hold a reanchor
// record — a checkpoint with the pipe's run history inline, standing in
// for records that were never written. Recovery does not replay one and
// does not skip it: the journal is set aside as .wal.failed, with an
// error that names the record type, and the daemon boots.
func TestRefusesJournalWithReanchorRecord(t *testing.T) {
	dir := shortDir(t)
	state := filepath.Join(dir, "state")
	_, stopA := startServerOn(t, server.Config{StateDir: state, WALSyncEvery: -1}, filepath.Join(dir, "a.sock"))
	c := dial(t, "unix:"+filepath.Join(dir, "a.sock"))
	createTiny(t, c, "rx", 25)
	mustOK(t, c, &server.Request{Session: "rx", Verb: "run", Args: []string{"clock", "p0", "200"}})
	if err := stopA(); err != nil { // the drain's watermark: rx.p0.lscp and a mark
		t.Fatal(err)
	}

	// Rewrite the drain's mark as the reanchor such a build wrote over
	// the same checkpoint file.
	path := filepath.Join(state, "rx.wal")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	recs, _, err := wal.DecodeAll(data)
	if err != nil {
		t.Fatal(err)
	}
	img := append([]byte(nil), data[:frame.HeaderLen]...)
	anchors := 0
	for _, r := range recs {
		if r.Type != wal.TypeMark {
			rec, err := wal.EncodeRecord(r)
			if err != nil {
				t.Fatal(err)
			}
			img = append(img, rec...)
			continue
		}
		anchors++
		img = frame.AppendRecord(img, []byte(fmt.Sprintf(
			`{"seq":%d,"type":"reanchor","version":"v0","pipe":%q,"path":%q,"cycle":%d,"history_len":1,`+
				`"history":[{"tb":"clock","cycles":%d,"start_cycle":0}]}`, r.Seq, r.Pipe, r.Path, r.Cycle, r.Cycle)))
	}
	if anchors != 1 {
		t.Fatalf("the drain wrote %d marks, want 1", anchors)
	}
	if err := os.WriteFile(path, img, 0o644); err != nil {
		t.Fatal(err)
	}

	srvB, stopB := startServerOn(t, server.Config{StateDir: state, WALSyncEvery: -1}, filepath.Join(dir, "b.sock"))
	defer stopB()
	srvB.WaitRecovered()
	if srvB.Session("rx") != nil {
		t.Fatal("a journal holding a reanchor record recovered")
	}
	if _, err := os.Stat(path + ".failed"); err != nil {
		t.Fatalf("journal not set aside: %v", err)
	}
	var failed string
	for _, ev := range srvB.Events() {
		if ev.Session == "rx" && ev.Type == "recovery_failed" {
			failed = ev.Msg
		}
	}
	if !strings.Contains(failed, `"reanchor"`) {
		t.Fatalf("recovery_failed event %q does not name the reanchor record", failed)
	}
	mustOK(t, dial(t, "unix:"+filepath.Join(dir, "b.sock")), &server.Request{Verb: "ping"})
}
