package wal

import (
	"bytes"
	"encoding/json"
	"testing"

	"livesim/internal/frame"
)

// FuzzWALDecode hammers the journal decoder with corrupted images —
// torn tails, flipped CRC bytes, truncated length prefixes, foreign
// data — asserting the invariants recovery depends on: DecodeAll never
// panics, never reports a clean prefix past the input, and the clean
// prefix it reports really is clean (re-decoding it yields the same
// records with no error). make fuzz-smoke churns this alongside the
// checkpoint decoders.
func FuzzWALDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add(format.Append(nil))
	seed := format.Append(nil)
	for i, r := range []*Record{
		{Seq: 1, Type: TypeBoot, PGAS: 1, CheckpointEvery: 10},
		{Seq: 2, Type: TypeCmd, Verb: "run", Args: []string{"tb0", "p0", "50"}, Version: "v0"},
		{Seq: 3, Type: TypeMark, Pipe: "p0", Path: "s.p0.lscp", Cycle: 50, HistoryLen: 1},
	} {
		rec, err := EncodeRecord(r)
		if err != nil {
			f.Fatalf("seed %d: %v", i, err)
		}
		seed = append(seed, rec...)
		f.Add(append([]byte(nil), seed...))               // growing clean prefixes
		f.Add(append([]byte(nil), seed[:len(seed)-3]...)) // torn tails
	}
	flipped := append([]byte(nil), seed...)
	flipped[frame.HeaderLen] ^= 0xff // CRC byte of the first record
	f.Add(flipped)

	f.Fuzz(func(t *testing.T, data []byte) {
		recs, clean, err := DecodeAll(data)
		if clean < 0 || clean > len(data) {
			t.Fatalf("clean prefix %d outside input of %d bytes", clean, len(data))
		}
		if err == nil && clean != len(data) {
			t.Fatalf("no error but clean=%d < len=%d", clean, len(data))
		}
		if len(recs) > 0 && clean < frame.HeaderLen {
			t.Fatalf("%d records from a %d-byte clean prefix", len(recs), clean)
		}
		for i, r := range recs {
			if r.Seq != uint64(i+1) {
				t.Fatalf("record %d has seq %d", i, r.Seq)
			}
		}
		if clean >= frame.HeaderLen {
			recs2, clean2, err2 := DecodeAll(data[:clean])
			if err2 != nil || clean2 != clean || len(recs2) != len(recs) {
				t.Fatalf("clean prefix unstable: recs %d->%d clean %d->%d err2=%v",
					len(recs), len(recs2), clean, clean2, err2)
			}
			for i := range recs {
				if !bytes.Equal(mustJSON(t, recs[i]), mustJSON(t, recs2[i])) {
					t.Fatalf("record %d differs on re-decode", i)
				}
			}
		}
	})
}

func mustJSON(t *testing.T, r *Record) []byte {
	t.Helper()
	b, err := EncodeRecord(&Record{Seq: r.Seq, Type: r.Type, Verb: r.Verb, Args: r.Args,
		Files: r.Files, Top: r.Top, PGAS: r.PGAS, CheckpointEvery: r.CheckpointEvery,
		Version: r.Version, Pipe: r.Pipe, Path: r.Path, Cycle: r.Cycle, HistoryLen: r.HistoryLen})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// FuzzRecordEncode: a record built from fuzzed strings and numbers
// carries, as its payload, exactly the bytes json.Marshal writes for it.
func FuzzRecordEncode(f *testing.F) {
	for _, s := range []string{"", "run", "tab\tnl\n\"q\" \\ <a&b> \x01", "é✓  ", "bad \xff"} {
		f.Add(s, "v1", uint64(len(s)), int64(-len(s)), uint8(0xff))
	}
	f.Fuzz(func(t *testing.T, s, u string, n uint64, m int64, set uint8) {
		pick := func(bit uint, v string) string {
			if set>>bit&1 == 1 {
				return v
			}
			return ""
		}
		r := &Record{Seq: n, Type: u, PGAS: int(m), Top: pick(0, s), CheckpointEvery: n >> 3,
			Verb: pick(1, u), Version: pick(2, s), Pipe: pick(3, u), Path: pick(4, s+u),
			Cycle: n >> 1, HistoryLen: int(m >> 2), Epoch: uint64(m)}
		if set>>5&1 == 1 {
			r.Args = []string{s, u}[:n%3]
			r.Files = map[string]string{s: u, u + ".v": s}
		}
		want, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		got, err := EncodeRecord(r)
		if err != nil {
			t.Fatal(err)
		}
		if payload := got[frame.RecordHeaderLen:]; !bytes.Equal(payload, want) {
			t.Fatalf("EncodeRecord payload\n  %s\nencoding/json\n  %s", payload, want)
		}
	})
}
