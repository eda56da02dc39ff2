package wal

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"

	"livesim/internal/faultinject"
	"livesim/internal/frame"
)

func openT(t *testing.T, path string, opts Options) (*WAL, []*Record) {
	t.Helper()
	w, recs, err := Open(path, opts)
	if err != nil {
		t.Fatalf("Open(%s): %v", path, err)
	}
	t.Cleanup(func() { w.Close() })
	return w, recs
}

func TestAppendReopenRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "s.wal")
	w, recs := openT(t, path, Options{})
	if len(recs) != 0 {
		t.Fatalf("fresh journal returned %d records", len(recs))
	}
	want := []*Record{
		{Type: TypeBoot, PGAS: 2, CheckpointEvery: 10},
		{Type: TypeCmd, Verb: "instpipe", Args: []string{"p0"}, Version: "v0"},
		{Type: TypeCmd, Verb: "run", Args: []string{"tb0", "p0", "50"}, Version: "v0"},
		{Type: TypeMark, Pipe: "p0", Path: "s.p0.lscp", Cycle: 50, HistoryLen: 1},
	}
	for i, r := range want {
		if err := w.Append(r); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
		if r.Seq != uint64(i+1) {
			t.Fatalf("append %d assigned seq %d", i, r.Seq)
		}
	}
	if w.Seq() != 4 {
		t.Fatalf("Seq() = %d, want 4", w.Seq())
	}
	if err := w.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	_, got := openT(t, path, Options{})
	if len(got) != len(want) {
		t.Fatalf("reopen returned %d records, want %d", len(got), len(want))
	}
	for i, r := range got {
		if r.Seq != uint64(i+1) || r.Type != want[i].Type || r.Verb != want[i].Verb {
			t.Fatalf("record %d mismatch: %+v vs %+v", i, r, want[i])
		}
	}
	if got[3].Cycle != 50 || got[3].Pipe != "p0" || got[3].HistoryLen != 1 {
		t.Fatalf("mark record lost fields: %+v", got[3])
	}
}

// Torn tails — a frame header cut short, a payload cut short — must be
// truncated off the file on reopen, keeping every earlier record.
func TestOpenTruncatesTornTail(t *testing.T) {
	for _, cut := range []int{1, 4, frame.RecordHeaderLen, frame.RecordHeaderLen + 3} {
		path := filepath.Join(t.TempDir(), "s.wal")
		w, _ := openT(t, path, Options{})
		if err := w.Append(&Record{Type: TypeCmd, Verb: "run"}); err != nil {
			t.Fatal(err)
		}
		keepSize := w.Size()
		rec, _ := EncodeRecord(&Record{Seq: 2, Type: TypeCmd, Verb: "poke"})
		w.Close()

		f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
		if err != nil {
			t.Fatal(err)
		}
		if cut > len(rec) {
			cut = len(rec) - 1
		}
		f.Write(rec[:cut])
		f.Close()

		w2, recs := openT(t, path, Options{})
		if len(recs) != 1 || recs[0].Verb != "run" {
			t.Fatalf("cut=%d: reopen returned %d records", cut, len(recs))
		}
		if w2.Size() != keepSize {
			t.Fatalf("cut=%d: size %d after truncation, want %d", cut, w2.Size(), keepSize)
		}
		// The journal must be appendable after truncation and reassign
		// the sequence the torn record never durably claimed.
		r := &Record{Type: TypeCmd, Verb: "chk"}
		if err := w2.Append(r); err != nil {
			t.Fatalf("cut=%d: append after truncation: %v", cut, err)
		}
		if r.Seq != 2 {
			t.Fatalf("cut=%d: append after truncation got seq %d, want 2", cut, r.Seq)
		}
	}
}

func TestOpenTruncatesCorruptRecord(t *testing.T) {
	path := filepath.Join(t.TempDir(), "s.wal")
	w, _ := openT(t, path, Options{})
	w.Append(&Record{Type: TypeCmd, Verb: "run"})
	w.Append(&Record{Type: TypeCmd, Verb: "poke"})
	w.Close()

	data, _ := os.ReadFile(path)
	data[len(data)-2] ^= 0xff // flip a byte in the last payload
	os.WriteFile(path, data, 0o644)

	_, recs := openT(t, path, Options{})
	if len(recs) != 1 || recs[0].Verb != "run" {
		t.Fatalf("reopen after corruption returned %d records", len(recs))
	}
}

func TestOpenRejectsForeignFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "notwal")
	os.WriteFile(path, []byte("this is not a journal at all"), 0o644)
	if _, _, err := Open(path, Options{}); err == nil {
		t.Fatal("Open accepted a non-WAL file")
	}
}

func TestInjectedTornAppend(t *testing.T) {
	path := filepath.Join(t.TempDir(), "s.wal")
	plan := faultinject.New().TornWALWrite(2, 5)
	w, _ := openT(t, path, Options{Faults: plan})
	if err := w.Append(&Record{Type: TypeCmd, Verb: "run"}); err != nil {
		t.Fatal(err)
	}
	err := w.Append(&Record{Type: TypeCmd, Verb: "poke"})
	if err == nil {
		t.Fatal("torn append reported success")
	}
	if len(plan.Fired()) != 1 {
		t.Fatalf("fired = %v", plan.Fired())
	}
	// A crashed writer must not accept further appends.
	if err := w.Append(&Record{Type: TypeCmd, Verb: "run"}); err == nil {
		t.Fatal("append after torn write succeeded")
	}

	_, recs := openT(t, path, Options{})
	if len(recs) != 1 || recs[0].Verb != "run" {
		t.Fatalf("recovery after torn append returned %d records", len(recs))
	}
}

func TestBatchedSyncAndOnWrite(t *testing.T) {
	path := filepath.Join(t.TempDir(), "s.wal")
	var sizes []int64
	w, _ := openT(t, path, Options{
		SyncEvery: time.Hour, // flusher effectively disabled; Sync() drives it
		OnWrite:   func(n int64) { sizes = append(sizes, n) },
	})
	w.Append(&Record{Type: TypeCmd, Verb: "run"})
	w.Append(&Record{Type: TypeCmd, Verb: "poke"})
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	if len(sizes) != 2 || sizes[1] <= sizes[0] || sizes[1] != w.Size() {
		t.Fatalf("OnWrite sizes = %v, Size() = %d", sizes, w.Size())
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	_, recs := openT(t, path, Options{})
	if len(recs) != 2 {
		t.Fatalf("reopen after batched sync returned %d records", len(recs))
	}
}

func TestDecodeAllRejects(t *testing.T) {
	rec, _ := EncodeRecord(&Record{Seq: 1, Type: TypeCmd, Verb: "run"})
	good := append(format.Append(nil), rec...)

	t.Run("oversize-length", func(t *testing.T) {
		data := append([]byte(nil), good...)
		binary.LittleEndian.PutUint32(data[frame.HeaderLen+4:], MaxRecord+1)
		recs, clean, err := DecodeAll(data)
		if err == nil || len(recs) != 0 || clean != frame.HeaderLen {
			t.Fatalf("recs=%d clean=%d err=%v", len(recs), clean, err)
		}
	})
	t.Run("seq-gap", func(t *testing.T) {
		data := append([]byte(nil), good...)
		f2, _ := EncodeRecord(&Record{Seq: 3, Type: TypeCmd, Verb: "poke"})
		data = append(data, f2...)
		recs, clean, err := DecodeAll(data)
		if err == nil || len(recs) != 1 || clean != len(good) {
			t.Fatalf("recs=%d clean=%d err=%v", len(recs), clean, err)
		}
	})
	t.Run("bad-version", func(t *testing.T) {
		data := append([]byte(nil), good...)
		binary.LittleEndian.PutUint32(data[4:], format.Max+1)
		if _, _, err := DecodeAll(data); err == nil {
			t.Fatal("future format version accepted")
		}
	})
	t.Run("clean-prefix-is-stable", func(t *testing.T) {
		recs, clean, err := DecodeAll(good)
		if err != nil || clean != len(good) || len(recs) != 1 {
			t.Fatalf("clean image rejected: recs=%d clean=%d err=%v", len(recs), clean, err)
		}
		// Decoding the clean prefix of any image must succeed fully.
		torn := append(append([]byte(nil), good...), 0xde, 0xad)
		_, clean2, _ := DecodeAll(torn)
		if clean2 != len(good) {
			t.Fatalf("clean prefix %d, want %d", clean2, len(good))
		}
	})
}

// TestEncodeRecordPinned: a record's bytes are what the build before the
// frame container wrote, so every journal on disk stays readable without
// a version bump. The hex is EncodeRecord's output at that build.
func TestEncodeRecordPinned(t *testing.T) {
	const want = "87ce861f560000007b22736571223a372c2274797065223a22636d64222c2276657262223a2272756e222c2261726773223a5b22746230222c227030222c223530225d2c2276657273696f6e223a227631222c226379636c65223a35307d"
	got, err := EncodeRecord(&Record{Seq: 7, Type: TypeCmd, Verb: "run",
		Args: []string{"tb0", "p0", "50"}, Version: "v1", Cycle: 50})
	if err != nil {
		t.Fatal(err)
	}
	if hex.EncodeToString(got) != want {
		t.Fatalf("EncodeRecord = %x\nwant          %s", got, want)
	}
	if !bytes.Equal(format.Append(nil), []byte("LSWL\x01\x00\x00\x00")) {
		t.Fatalf("journal header %q", format.Append(nil))
	}
}

func TestEncodeRecordRejectsOversize(t *testing.T) {
	big := &Record{Type: TypeCmd, Files: map[string]string{"a.v": string(bytes.Repeat([]byte("x"), MaxRecord))}}
	if _, err := EncodeRecord(big); err == nil {
		t.Fatal("oversize record encoded")
	}
}

func TestInjectedDiskFullAppend(t *testing.T) {
	path := filepath.Join(t.TempDir(), "s.wal")
	plan := faultinject.New().DiskFullAppends(2, 2)
	w, _ := openT(t, path, Options{Faults: plan})

	if err := w.Append(&Record{Type: TypeBoot}); err != nil {
		t.Fatalf("append 1: %v", err)
	}
	// Appends 2 and 3 fail up front with no bytes written; unlike a
	// torn append the WAL stays open and frame-aligned.
	sizeBefore := w.Size()
	for i := 0; i < 2; i++ {
		if err := w.Append(&Record{Type: TypeCmd, Verb: "run"}); !errors.Is(err, faultinject.ErrInjected) {
			t.Fatalf("append %d: %v, want ErrInjected", i+2, err)
		}
	}
	if w.Size() != sizeBefore {
		t.Fatalf("failed appends moved size %d -> %d", sizeBefore, w.Size())
	}
	// Space "returns": append 4 succeeds with the next consecutive seq.
	if err := w.Append(&Record{Type: TypeCmd, Verb: "run"}); err != nil {
		t.Fatalf("append after pressure cleared: %v", err)
	}
	if got := w.Seq(); got != 2 {
		t.Fatalf("seq = %d, want 2 (failed appends must not burn sequence numbers)", got)
	}
	w.Close()

	recs, _, err := DecodeAll(mustRead(t, path))
	if err != nil {
		t.Fatalf("DecodeAll: %v", err)
	}
	if len(recs) != 2 {
		t.Fatalf("decoded %d records, want 2", len(recs))
	}
}

func TestSetGroupCommitBatchesAndRestores(t *testing.T) {
	path := filepath.Join(t.TempDir(), "s.wal")
	w, _ := openT(t, path, Options{}) // inline fsync mode

	if err := w.SetGroupCommit(5 * time.Millisecond); err != nil {
		t.Fatalf("SetGroupCommit on: %v", err)
	}
	if err := w.Append(&Record{Type: TypeBoot}); err != nil {
		t.Fatalf("append under group commit: %v", err)
	}
	// Back to inline: pending batched bytes must be synced by the call.
	if err := w.SetGroupCommit(0); err != nil {
		t.Fatalf("SetGroupCommit off: %v", err)
	}
	if err := w.Append(&Record{Type: TypeCmd, Verb: "run"}); err != nil {
		t.Fatalf("append after restore: %v", err)
	}
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	recs, _, err := DecodeAll(mustRead(t, path))
	if err != nil || len(recs) != 2 {
		t.Fatalf("round trip: %d recs, err %v", len(recs), err)
	}
}

func TestReanchorRecordRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "s.wal")
	w, _ := openT(t, path, Options{})
	anchor := &Record{
		Type: TypeReanchor, Pipe: "p0", Path: "s.p0.lscp",
		Cycle: 350, HistoryLen: 3, Version: "v2",
		History: []RunStep{
			{TB: "tb", Cycles: 200, StartCycle: 0},
			{TB: "tb", Cycles: 100, StartCycle: 200},
			{TB: "tb", Cycles: 50, StartCycle: 300},
		},
	}
	if err := w.Append(anchor); err != nil {
		t.Fatalf("append reanchor: %v", err)
	}
	w.Close()
	recs, _, err := DecodeAll(mustRead(t, path))
	if err != nil || len(recs) != 1 {
		t.Fatalf("decode: %d recs, err %v", len(recs), err)
	}
	got := recs[0]
	if got.Type != TypeReanchor || got.Cycle != 350 || len(got.History) != 3 {
		t.Fatalf("reanchor fields lost: %+v", got)
	}
	if got.History[2] != (RunStep{TB: "tb", Cycles: 50, StartCycle: 300}) {
		t.Fatalf("history step mangled: %+v", got.History[2])
	}
}

func mustRead(t *testing.T, path string) []byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}
