package checkpoint

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"livesim/internal/frame"
)

// fuzzSeeds are valid encodings plus characteristic corruptions, so the
// fuzzer starts from the interesting region of the input space: state
// blobs for DecodeState — a partial one with a zero page, and one whose
// bitmap names a slot past its count — and version 3, 2 and 1 files for
// DecodeFile.
func fuzzSeeds(f *testing.F) [][]byte {
	s := NewStore()
	small := s.Add(mkState(3), "v0", 0).Bytes()
	big := s.Add(mkState(1_000_000), "v9", 42)
	big.Aux = map[string][]byte{"tb0": bytes.Repeat([]byte{7}, 100)}
	file := EncodeFile(big)
	var old [][]byte
	for _, name := range []string{"v1.lscp", "v2.lscp"} {
		data, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			f.Fatal(err)
		}
		old = append(old, data)
	}
	crcFlip := append([]byte(nil), file...)
	crcFlip[frame.HeaderLen] ^= 0x80
	seeds := [][]byte{
		small, file, old[0], old[1], crcFlip,
		encodeState(partialState(4)), slotPastCount(),
		EncodeFile(s.Add(partialState(5), "v1", 1)),
		EncodeFile(s.Add(mkState(0), "", 0)),
		file[:frame.HeaderLen+frame.RecordHeaderLen],
		{}, {0}, []byte("LSCP"), fileFormat.Append(nil),
	}
	// Truncations of a valid state blob.
	for _, n := range []int{1, 8, 16, len(small) / 2, len(small) - 1} {
		seeds = append(seeds, small[:n])
	}
	// Single bit flips in a valid state blob.
	for _, off := range []int{0, 8, 16, len(small) - 1} {
		c := append([]byte(nil), small...)
		c[off] ^= 0x80
		seeds = append(seeds, c)
	}
	return seeds
}

// FuzzDecodeState: arbitrary bytes must either decode or error — never
// panic, and never allocate beyond what the input length can justify
// (the count bounds inside DecodeState enforce the latter; a violation
// shows up as an OOM/timeout under the fuzzer).
func FuzzDecodeState(f *testing.F) {
	for _, s := range fuzzSeeds(f) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		st, err := DecodeState(data)
		if err == nil && st == nil {
			t.Fatal("nil state with nil error")
		}
		if err == nil {
			// A clean decode must re-encode to an equivalent state: decode
			// again and compare cycle/node shape as a cheap invariant.
			if st2, err2 := DecodeState(data); err2 != nil || st2.Cycle != st.Cycle || len(st2.Nodes) != len(st.Nodes) {
				t.Fatalf("decode not deterministic: %v", err2)
			}
		}
	})
}

// FuzzDecodeFile: the checkpoint file decoder, every version, under
// arbitrary bytes.
func FuzzDecodeFile(f *testing.F) {
	for _, s := range fuzzSeeds(f) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		fc, err := DecodeFile(data)
		if err != nil {
			return
		}
		if fc == nil || fc.State == nil {
			t.Fatal("clean decode returned nil checkpoint or state")
		}
		if v := formatVersion(data); v < fileFormat.Min || v > fileFormat.Max {
			t.Fatalf("accepted format version %d", v)
		}
	})
}
