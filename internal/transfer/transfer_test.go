package transfer

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func sample() (Meta, []Entry) {
	meta := Meta{Session: "s1", Seq: 42, WALBytes: 128, Pipes: 2}
	entries := []Entry{
		{Name: "s1.wal", Payload: []byte("journal-bytes")},
		{Name: "s1.p0.lscp", Payload: bytes.Repeat([]byte{0xAB}, 300)},
		{Name: "s1.p1.lscp", Payload: nil},
	}
	return meta, entries
}

func TestRoundTrip(t *testing.T) {
	meta, entries := sample()
	img, err := Encode(meta, entries)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Decode(img)
	if err != nil {
		t.Fatal(err)
	}
	if b.Meta != meta {
		t.Fatalf("meta = %+v, want %+v", b.Meta, meta)
	}
	if len(b.Entries) != len(entries) {
		t.Fatalf("entries = %d, want %d", len(b.Entries), len(entries))
	}
	for i, e := range b.Entries {
		if e.Name != entries[i].Name || !bytes.Equal(e.Payload, entries[i].Payload) {
			t.Fatalf("entry %d = %q (%d bytes), want %q (%d bytes)",
				i, e.Name, len(e.Payload), entries[i].Name, len(entries[i].Payload))
		}
	}
}

// TestCorruptionDetected flips every byte of a valid image in turn; no
// single-byte corruption may decode successfully with different
// content (a flip in a payload must fail CRC; a flip in framing must
// fail structurally).
func TestCorruptionDetected(t *testing.T) {
	meta, entries := sample()
	img, err := Encode(meta, entries)
	if err != nil {
		t.Fatal(err)
	}
	orig, _ := Decode(img)
	for i := range img {
		mut := append([]byte(nil), img...)
		mut[i] ^= 0xFF
		b, err := Decode(mut)
		if err != nil {
			continue // rejected: good
		}
		// A decode that still succeeds must be byte-identical in every
		// payload (e.g. a flip inside JSON meta changes Meta, which is
		// fine only if CRC passed — it can't, CRC covers meta too).
		if b.Meta != orig.Meta || len(b.Entries) != len(orig.Entries) {
			t.Fatalf("byte %d: corrupted image decoded to different content", i)
		}
		for j := range b.Entries {
			if !bytes.Equal(b.Entries[j].Payload, orig.Entries[j].Payload) {
				t.Fatalf("byte %d: corrupted payload accepted", i)
			}
		}
	}
}

func TestTruncationDetected(t *testing.T) {
	meta, entries := sample()
	img, err := Encode(meta, entries)
	if err != nil {
		t.Fatal(err)
	}
	for n := 0; n < len(img); n++ {
		if _, err := Decode(img[:n]); err == nil {
			t.Fatalf("truncation to %d of %d bytes decoded successfully", n, len(img))
		}
	}
	if _, err := Decode(append(append([]byte(nil), img...), 0x00)); err == nil {
		t.Fatal("trailing garbage accepted")
	}
}

func TestUnsafeNamesRejected(t *testing.T) {
	meta := Meta{Session: "s1"}
	for _, name := range []string{"../evil", "a/b", `a\b`, ".hidden", "..", ""} {
		if _, err := Encode(meta, []Entry{{Name: name, Payload: []byte("x")}}); err == nil {
			t.Errorf("Encode accepted unsafe name %q", name)
		}
	}
	if SafeName("s1.p0.lscp") != true || SafeName("s1.wal") != true {
		t.Error("SafeName rejects legitimate names")
	}
}

func TestDecodeRejectsMissingMeta(t *testing.T) {
	// Hand-build an image whose first entry is not "meta".
	img, err := Encode(Meta{Session: "s1"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt the meta name in place would break CRC framing; instead
	// assert Decode of a well-formed blob without session name fails.
	if _, err := Decode(img); err != nil {
		t.Fatalf("baseline blob should decode: %v", err)
	}
	img2, err := Encode(Meta{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Decode(img2); err == nil || !strings.Contains(err.Error(), "session") {
		t.Fatalf("blob with empty session decoded: %v", err)
	}
}

// TestDecodeRefusesVersion1: a blob from the build before the frame
// container (testdata/session-v1.lsxf, that build's Encode of a small
// session's journal and watermark) is refused with an error naming its
// version.
func TestDecodeRefusesVersion1(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("testdata", "session-v1.lsxf"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Decode(data); err == nil || !strings.Contains(err.Error(), "LSXF version 1 not supported") {
		t.Fatalf("version 1 blob: %v", err)
	}
}

// FuzzTransferDecode churns arbitrary bytes through Decode: it must
// never panic, and any accepted input must re-encode/re-decode to the
// same content (no silent reinterpretation of malformed frames).
func FuzzTransferDecode(f *testing.F) {
	meta, entries := sample()
	img, _ := Encode(meta, entries)
	f.Add(img)
	f.Add([]byte("LSXF"))
	f.Add([]byte{})
	if v1, err := os.ReadFile(filepath.Join("testdata", "session-v1.lsxf")); err == nil {
		f.Add(v1)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		b, err := Decode(data)
		if err != nil {
			return
		}
		img2, err := Encode(b.Meta, b.Entries)
		if err != nil {
			t.Fatalf("accepted blob fails re-encode: %v", err)
		}
		b2, err := Decode(img2)
		if err != nil {
			t.Fatalf("re-encoded blob fails decode: %v", err)
		}
		if b2.Meta != b.Meta || len(b2.Entries) != len(b.Entries) {
			t.Fatal("re-encode round trip changed content")
		}
	})
}
