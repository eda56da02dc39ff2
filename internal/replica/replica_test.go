package replica

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"livesim/internal/frame"
	"livesim/internal/wal"
)

// posEnd is where a batch's first journal record starts: after the header
// and the epoch/afterSeq record.
const posEnd = frame.HeaderLen + frame.RecordHeaderLen + 16

func mkRecs(afterSeq uint64, n int) []*wal.Record {
	recs := make([]*wal.Record, n)
	for i := range recs {
		recs[i] = &wal.Record{
			Seq: afterSeq + uint64(i) + 1, Type: wal.TypeCmd,
			Verb: "run", Args: []string{"tb0", "p0", "10"},
			Version: "v0", Cycle: uint64(10 * (i + 1)),
		}
	}
	return recs
}

func TestBatchRoundTrip(t *testing.T) {
	recs := mkRecs(41, 5)
	data, err := EncodeBatch(7, 41, recs)
	if err != nil {
		t.Fatal(err)
	}
	epoch, after, got, err := DecodeBatch(data)
	if err != nil {
		t.Fatal(err)
	}
	if epoch != 7 || after != 41 || len(got) != 5 {
		t.Fatalf("decode = epoch %d after %d %d recs, want 7/41/5", epoch, after, len(got))
	}
	for i, r := range got {
		if r.Seq != recs[i].Seq || r.Verb != recs[i].Verb || r.Cycle != recs[i].Cycle {
			t.Fatalf("record %d = %+v, want %+v", i, r, recs[i])
		}
	}

	// An empty batch (pure heartbeat) round-trips too.
	data, err = EncodeBatch(3, 99, nil)
	if err != nil {
		t.Fatal(err)
	}
	if epoch, after, got, err = DecodeBatch(data); err != nil || epoch != 3 || after != 99 || len(got) != 0 {
		t.Fatalf("empty batch decode = %d/%d/%d recs err=%v", epoch, after, len(got), err)
	}
}

func TestEncodeBatchRejectsGap(t *testing.T) {
	recs := mkRecs(10, 3)
	recs[2].Seq = 99
	if _, err := EncodeBatch(1, 10, recs); err == nil {
		t.Fatal("encode accepted a sequence gap")
	}
	if _, err := EncodeBatch(1, 11, mkRecs(10, 2)); err == nil {
		t.Fatal("encode accepted a batch not starting at afterSeq+1")
	}
}

func TestDecodeBatchRejectsDamage(t *testing.T) {
	good, err := EncodeBatch(2, 0, mkRecs(0, 3))
	if err != nil {
		t.Fatal(err)
	}

	cases := map[string][]byte{
		"empty":     nil,
		"short":     good[:posEnd-1],
		"bad-magic": append([]byte("XXXX"), good[4:]...),
		"truncated": good[:len(good)-3],
		"trailing":  append(append([]byte{}, good...), 0xde, 0xad),
	}
	badVer := append([]byte{}, good...)
	binary.LittleEndian.PutUint32(badVer[4:], 99)
	cases["bad-version"] = badVer
	crcFlip := append([]byte{}, good...)
	crcFlip[posEnd] ^= 0xff
	cases["crc-flip"] = crcFlip
	epochFlip := append([]byte{}, good...)
	epochFlip[posEnd-16] ^= 0x01
	cases["epoch-flip"] = epochFlip
	// afterSeq no longer matches the first record, under an intact CRC.
	var pos [16]byte
	binary.LittleEndian.PutUint64(pos[:], 2)
	binary.LittleEndian.PutUint64(pos[8:], 5)
	cases["seq-skew"] = append(frame.AppendRecord(batchFormat.Append(nil), pos[:]), good[posEnd:]...)

	for name, data := range cases {
		if _, _, _, err := DecodeBatch(data); err == nil {
			t.Errorf("%s: decode accepted damaged batch", name)
		}
	}

	// Control: the untouched image still decodes.
	if _, _, _, err := DecodeBatch(good); err != nil {
		t.Fatalf("control decode failed: %v", err)
	}
}

// TestDecodeBatchRefusesVersion1: a batch from the build before the frame
// container (testdata/batch-v1.lsrb, made by that build's EncodeBatch) is
// refused with an error naming its version.
func TestDecodeBatchRefusesVersion1(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("testdata", "batch-v1.lsrb"))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := DecodeBatch(data); err == nil || !strings.Contains(err.Error(), "LSRB version 1 not supported") {
		t.Fatalf("version 1 batch: %v", err)
	}
}

// FuzzReplicaFrameDecode churns DecodeBatch with corrupted inputs: it
// must never panic, and any mutation of a valid batch that still
// decodes must yield a strictly consecutive record chain — the
// invariant the follower apply path relies on.
func FuzzReplicaFrameDecode(f *testing.F) {
	seed, err := EncodeBatch(3, 7, mkRecs(7, 4))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add(seed[:posEnd])
	f.Add([]byte("LSRB"))
	empty, _ := EncodeBatch(1, 0, nil)
	f.Add(empty)
	if v1, err := os.ReadFile(filepath.Join("testdata", "batch-v1.lsrb")); err == nil {
		f.Add(v1)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		epoch, after, recs, err := DecodeBatch(data)
		if err != nil {
			return
		}
		if len(data) < posEnd {
			t.Fatalf("accepted %d-byte batch below header size", len(data))
		}
		if !bytes.Equal(data[:4], []byte("LSRB")) {
			t.Fatal("accepted batch without magic")
		}
		_ = epoch
		want := after
		for _, r := range recs {
			if r.Seq != want+1 {
				t.Fatalf("accepted gap: seq %d after %d", r.Seq, want)
			}
			want = r.Seq
		}
	})
}
