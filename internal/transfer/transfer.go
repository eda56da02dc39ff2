// Package transfer frames a session's durable state — its newest
// checkpoint files plus the journal that references them — into a
// single self-verifying blob: the replication seed between livesimd
// backends, which live migration and failover both promote from. A blob
// is an internal/frame container: the header (LSXF, version 2), one
// record holding the JSON Meta and the entry count, then two records per
// entry, its name and its bytes — so a truncated or corrupted blob fails
// decode instead of importing half a session. Version 1 (the build before the frame container) is not read:
// both ends of a replication stream run the same build.
//
// The blob deliberately carries the files verbatim: the importing
// server writes them into its state dir and runs the exact same
// single-session recovery path a restart would, watermark fast path
// included. A seed therefore exercises no code that crash recovery does
// not already exercise — one replay engine, two callers.
package transfer

import (
	"encoding/json"
	"fmt"
	"strings"

	"livesim/internal/frame"
)

var format = frame.Header{Magic: "LSXF", Min: 2, Max: 2}

// MaxEntries bounds the entry count a decoder will accept; a session
// ships one journal and one checkpoint per pipe, so even pathological
// designs stay far below this.
const MaxEntries = 1024

// MaxEntrySize bounds any single entry's payload. It matches the
// journal's own record ceiling: nothing larger can have been written
// durably, so nothing larger can need to travel.
const MaxEntrySize = 64 << 20

// Entry names use a directory-free basename vocabulary: "<session>.wal"
// for the journal, "<session>.<pipe>.lscp" for checkpoints. Decode
// rejects anything with a path separator so a hostile blob cannot
// escape the importer's state dir.

// Meta describes the session a blob carries — enough for the importer
// to validate before touching the disk, and for operators to see what
// moved in trace logs.
type Meta struct {
	Session  string `json:"session"`
	Seq      uint64 `json:"seq"`       // journal high-water sequence at export
	WALBytes int64  `json:"wal_bytes"` // journal image size
	Pipes    int    `json:"pipes"`     // checkpoint entries expected
}

// metaRecord is the first record's JSON: the Meta plus how many entries
// follow, so a blob cut at a record boundary is refused too.
type metaRecord struct {
	Meta
	Entries int `json:"entries"`
}

// Entry is one named file inside a blob.
type Entry struct {
	Name    string
	Payload []byte
}

// Blob is a decoded transfer container.
type Blob struct {
	Meta    Meta
	Entries []Entry
}

// Encode frames meta plus the given file entries into a blob image.
func Encode(meta Meta, entries []Entry) ([]byte, error) {
	mj, err := json.Marshal(metaRecord{meta, len(entries)})
	if err != nil {
		return nil, fmt.Errorf("transfer: encode meta: %w", err)
	}
	size := frame.HeaderLen + frame.RecordHeaderLen + len(mj)
	for _, e := range entries {
		if !SafeName(e.Name) {
			return nil, fmt.Errorf("transfer: unsafe entry name %q", e.Name)
		}
		if len(e.Payload) > MaxEntrySize {
			return nil, fmt.Errorf("transfer: entry %q exceeds %d bytes", e.Name, MaxEntrySize)
		}
		size += 2*frame.RecordHeaderLen + len(e.Name) + len(e.Payload)
	}
	buf := frame.AppendRecord(format.Append(make([]byte, 0, size)), mj)
	for _, e := range entries {
		buf = frame.AppendRecord(frame.AppendRecord(buf, []byte(e.Name)), e.Payload)
	}
	return buf, nil
}

// Decode parses and verifies a blob image. Every record's CRC must
// match, the meta record must name a session and the number of entries
// that follow, and every entry name must be a SafeName — a failure on any
// of these returns an error and no partial result. Entry payloads alias
// data.
func Decode(data []byte) (*Blob, error) {
	_, body, err := format.Read(data)
	if err != nil {
		return nil, fmt.Errorf("transfer: %w", err)
	}
	var recs [][]byte
	if _, err := frame.Records(body, MaxEntrySize, func(p []byte) error {
		if len(recs) > 2*MaxEntries {
			return fmt.Errorf("more than %d entries", MaxEntries)
		}
		recs = append(recs, p)
		return nil
	}); err != nil {
		return nil, fmt.Errorf("transfer: %w", err)
	}
	if len(recs) == 0 {
		return nil, fmt.Errorf("transfer: no meta record")
	}
	var m metaRecord
	if err := json.Unmarshal(recs[0], &m); err != nil {
		return nil, fmt.Errorf("transfer: meta: %w", err)
	}
	if m.Session == "" {
		return nil, fmt.Errorf("transfer: meta names no session")
	}
	if len(recs)%2 == 0 || m.Entries != len(recs)/2 {
		return nil, fmt.Errorf("transfer: meta names %d entries, blob carries %d records after it", m.Entries, len(recs)-1)
	}
	b := &Blob{Meta: m.Meta}
	for i := 1; i < len(recs); i += 2 {
		name := string(recs[i])
		if !SafeName(name) {
			return nil, fmt.Errorf("transfer: unsafe entry name %q", name)
		}
		b.Entries = append(b.Entries, Entry{Name: name, Payload: recs[i+1]})
	}
	return b, nil
}

// SafeName reports whether an entry name is a plain basename — no path
// separators, no traversal, not hidden. The importer joins these
// directly under its state dir, so this is the security boundary.
func SafeName(name string) bool {
	if name == "" || len(name) > 256 {
		return false
	}
	if strings.ContainsAny(name, "/\\") {
		return false
	}
	if name == "." || name == ".." || strings.HasPrefix(name, ".") {
		return false
	}
	return true
}
