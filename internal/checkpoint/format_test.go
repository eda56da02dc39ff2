package checkpoint

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"livesim/internal/frame"
)

func mkFileCheckpoint(cycle uint64) *Checkpoint {
	s := NewStore()
	cp := s.Add(mkState(cycle), "v3", 7)
	cp.Aux = map[string][]byte{
		"tb0": {1, 2, 3},
		"tb1": nil,
		"tb2": []byte("counter-state"),
	}
	return cp
}

func TestFileRoundTrip(t *testing.T) {
	cp := mkFileCheckpoint(42)
	data := EncodeFile(cp)
	fc, err := DecodeFile(data)
	if err != nil {
		t.Fatal(err)
	}
	if v := formatVersion(data); v != fileFormat.Max {
		t.Errorf("format version %d", v)
	}
	if fc.Version != "v3" || fc.HistoryPos != 7 || fc.Cycle != 42 {
		t.Errorf("version %q historyPos %d cycle %d", fc.Version, fc.HistoryPos, fc.Cycle)
	}
	if !reflect.DeepEqual(fc.State, cp.State) {
		t.Errorf("state mismatch:\n%+v\n%+v", fc.State, cp.State)
	}
	// A nil aux blob round-trips as empty; compare per key.
	if len(fc.Aux) != 3 || string(fc.Aux["tb2"]) != "counter-state" ||
		string(fc.Aux["tb0"]) != "\x01\x02\x03" || len(fc.Aux["tb1"]) != 0 {
		t.Errorf("aux %v", fc.Aux)
	}
}

func TestFileEncodeDeterministic(t *testing.T) {
	a := EncodeFile(mkFileCheckpoint(9))
	b := EncodeFile(mkFileCheckpoint(9))
	if !reflect.DeepEqual(a, b) {
		t.Error("encoding is not deterministic")
	}
}

// TestFileV1Readable: a version 1 file (testdata/v1.lscp, written by the
// last build that wrote version 1 from mkFileCheckpoint(42)) decodes to
// what the current encoding of the same checkpoint decodes to.
func TestFileV1Readable(t *testing.T) {
	v1File, curFile := mustRead(t, filepath.Join("testdata", "v1.lscp")), EncodeFile(mkFileCheckpoint(42))
	v1, err := DecodeFile(v1File)
	if err != nil {
		t.Fatal(err)
	}
	cur, err := DecodeFile(curFile)
	if err != nil {
		t.Fatal(err)
	}
	if v1v, curv := formatVersion(v1File), formatVersion(curFile); v1v != 1 || curv != 3 {
		t.Errorf("format versions %d and %d, want 1 and 3", v1v, curv)
	}
	if !reflect.DeepEqual(v1, cur) {
		t.Errorf("version 1 file decodes to\n%+v\nwant\n%+v", v1, cur)
	}
}

// TestFileRejectsHeaderlessState: a bare state blob is not a checkpoint
// file.
func TestFileRejectsHeaderlessState(t *testing.T) {
	if _, err := DecodeFile(mkFileCheckpoint(11).Bytes()); err == nil || !strings.Contains(err.Error(), "not a LSCP file") {
		t.Fatalf("headerless state blob: %v", err)
	}
}

// TestFileRejectsCorruption: flipping any single byte of a valid file
// must produce an error (header, length or CRC), never a panic or a
// silently wrong decode.
func TestFileRejectsCorruption(t *testing.T) {
	orig := EncodeFile(mkFileCheckpoint(13))
	for off := 0; off < len(orig); off++ {
		data := append([]byte(nil), orig...)
		data[off] ^= 0xff
		fc, err := DecodeFile(data)
		if err == nil {
			t.Fatalf("byte %d: corruption not detected (decoded %+v)", off, fc)
		}
	}
}

func TestFileRejectsTruncation(t *testing.T) {
	orig := EncodeFile(mkFileCheckpoint(21))
	hdr := frame.HeaderLen + frame.RecordHeaderLen
	for _, n := range []int{0, 1, 3, 4, 11, hdr - 1, hdr, hdr + 5, len(orig) / 2, len(orig) - 1} {
		if n >= len(orig) {
			continue
		}
		if _, err := DecodeFile(orig[:n]); err == nil {
			t.Errorf("truncation to %d bytes not detected", n)
		}
	}
}

func TestFileRejectsFutureVersion(t *testing.T) {
	data := EncodeFile(mkFileCheckpoint(5))
	binary.LittleEndian.PutUint32(data[4:], fileFormat.Max+1)
	_, err := DecodeFile(data)
	if err == nil || !strings.Contains(err.Error(), "not supported") {
		t.Fatalf("future version not rejected: %v", err)
	}
	if !strings.Contains(err.Error(), fmt.Sprintf("1..%d", fileFormat.Max)) {
		t.Errorf("error should name the supported range: %v", err)
	}
}

// TestFileBoundedAux: a corrupt aux count must be rejected by the bounds
// check before any allocation sized from it.
func TestFileBoundedAux(t *testing.T) {
	cp := mkFileCheckpoint(5)
	_, payload, err := fileFormat.Read(EncodeFile(cp))
	if err != nil {
		t.Fatal(err)
	}
	payload = append([]byte(nil), payload[frame.RecordHeaderLen:]...)
	// The aux count follows the version string and the history position.
	binary.LittleEndian.PutUint64(payload[8+len(cp.Version)+8:], 1<<60)
	// Re-frame it so the bounds check, not the checksum, is what trips.
	_, err = DecodeFile(frame.AppendRecord(fileFormat.Append(nil), payload))
	if err == nil || !strings.Contains(err.Error(), "aux entries") {
		t.Fatalf("oversized aux count not rejected: %v", err)
	}
}

func TestWriteFileAtomicBasics(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "cp.lscp")
	d1 := EncodeFile(mkFileCheckpoint(1))
	if err := frame.WriteFileAtomic(path, d1, nil); err != nil {
		t.Fatal(err)
	}
	fc, fromBackup, err := LoadFile(path)
	if err != nil || fromBackup || fc.State.Cycle != 1 {
		t.Fatalf("load: %v fromBackup=%v", err, fromBackup)
	}
	// Second write keeps a one-deep backup of the first.
	d2 := EncodeFile(mkFileCheckpoint(2))
	if err := frame.WriteFileAtomic(path, d2, nil); err != nil {
		t.Fatal(err)
	}
	bfc, err2 := DecodeFile(mustRead(t, frame.BackupPath(path)))
	if err2 != nil || bfc.State.Cycle != 1 {
		t.Fatalf("backup: %v %+v", err2, bfc)
	}
	// No stray temp files survive.
	ents, _ := os.ReadDir(dir)
	if len(ents) != 2 {
		t.Errorf("directory has %d entries, want file+backup", len(ents))
	}
}

// TestWriteFileAtomicCrash simulates a crash at each protocol stage and
// asserts a loadable checkpoint always survives.
func TestWriteFileAtomicCrash(t *testing.T) {
	for _, stage := range []string{"after-temp", "after-backup"} {
		t.Run(stage, func(t *testing.T) {
			dir := t.TempDir()
			path := filepath.Join(dir, "cp.lscp")
			if err := frame.WriteFileAtomic(path, EncodeFile(mkFileCheckpoint(1)), nil); err != nil {
				t.Fatal(err)
			}
			crash := errors.New("simulated crash")
			err := frame.WriteFileAtomic(path, EncodeFile(mkFileCheckpoint(2)), func(s string) error {
				if s == stage {
					return crash
				}
				return nil
			})
			if !errors.Is(err, crash) {
				t.Fatalf("want simulated crash, got %v", err)
			}
			fc, _, lerr := LoadFile(path)
			if lerr != nil {
				t.Fatalf("no loadable checkpoint after crash at %s: %v", stage, lerr)
			}
			if fc.State.Cycle != 1 {
				t.Errorf("crash at %s: loaded cycle %d, want previous checkpoint", stage, fc.State.Cycle)
			}
		})
	}
}

// TestLoadFileBackupFallback: a torn/corrupt primary falls back to .bak.
func TestLoadFileBackupFallback(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "cp.lscp")
	if err := os.WriteFile(frame.BackupPath(path), EncodeFile(mkFileCheckpoint(7)), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, []byte("torn gar"), 0o644); err != nil {
		t.Fatal(err)
	}
	fc, fromBackup, err := LoadFile(path)
	if err != nil || !fromBackup {
		t.Fatalf("backup fallback failed: %v fromBackup=%v", err, fromBackup)
	}
	if fc.State.Cycle != 7 {
		t.Errorf("cycle %d", fc.State.Cycle)
	}
	// With both gone/corrupt the primary's error is reported.
	os.Remove(frame.BackupPath(path))
	if _, _, err := LoadFile(path); err == nil {
		t.Error("want error with no usable file")
	}
}

func TestStoreMarkDropSince(t *testing.T) {
	s := NewStore()
	for c := uint64(0); c < 50; c += 10 {
		s.Add(mkState(c), "v0", 0)
	}
	mark := s.Mark()
	s.Add(mkState(50), "v1", 1)
	s.Add(mkState(60), "v1", 1)
	if n := s.DropSince(mark); n != 2 {
		t.Fatalf("dropped %d", n)
	}
	if s.Len() != 5 {
		t.Errorf("len %d", s.Len())
	}
	for _, cp := range s.All() {
		if cp.Version != "v0" {
			t.Errorf("post-mark checkpoint survived: %+v", cp)
		}
	}
	// Idempotent when nothing is newer.
	if n := s.DropSince(mark); n != 0 {
		t.Errorf("second drop removed %d", n)
	}
}

func TestStoreDropAfterCycle(t *testing.T) {
	s := NewStore()
	for c := uint64(0); c <= 60; c += 10 {
		s.Add(mkState(c), "v0", 0)
	}
	if n := s.DropAfterCycle(25); n != 4 {
		t.Fatalf("dropped %d", n)
	}
	for _, cp := range s.All() {
		if cp.Cycle > 25 {
			t.Errorf("checkpoint beyond cycle survived: %+v", cp)
		}
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
