// Package frame is how this repository puts bytes at rest. Every binary
// file or blob it writes — checkpoint files (LSCP), session journals
// (LSWL), transfer blobs (LSXF), replication batches (LSRB) and compiled
// object files (LSO1) — is a Header followed by records:
//
//	header : magic (4 bytes) | version (u32 LE)
//	record : CRC-32 IEEE of the payload (u32 LE) | payload length (u32 LE) | payload
//
// and every file that replaces an older copy of itself is written with
// WriteFileAtomic. What a payload holds is the format's own business.
//
// Readers are bounded: they never read past their input, never accept a
// payload longer than the caller's limit, and never panic on any input.
// The package imports only the standard library.
package frame

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
)

// HeaderLen is the size of a header, RecordHeaderLen that of the CRC and
// length in front of each record's payload.
const (
	HeaderLen       = 8
	RecordHeaderLen = 8
)

// Header names one format: its 4-byte magic and the versions this build
// reads. Max is also the version it writes.
type Header struct {
	Magic    string
	Min, Max uint32
}

// Append appends the header of the version this build writes to b.
func (h Header) Append(b []byte) []byte {
	b = append(b, h.Magic...)
	return binary.LittleEndian.AppendUint32(b, h.Max)
}

// Read checks that data starts with this format's header at a version in
// [Min, Max] — the one place a format's supported range is checked — and
// returns the version and the bytes after the header.
func (h Header) Read(data []byte) (version uint32, rest []byte, err error) {
	if len(data) < HeaderLen {
		return 0, nil, fmt.Errorf("%s header truncated: %d of %d bytes", h.Magic, len(data), HeaderLen)
	}
	if string(data[:4]) != h.Magic {
		return 0, nil, fmt.Errorf("not a %s file (magic %q)", h.Magic, data[:4])
	}
	version = binary.LittleEndian.Uint32(data[4:])
	if version < h.Min || version > h.Max {
		return 0, nil, fmt.Errorf("%s version %d not supported (this build reads %d..%d)", h.Magic, version, h.Min, h.Max)
	}
	return version, data[HeaderLen:], nil
}

// AppendRecord appends one record carrying payload (shorter than 4 GiB)
// to b.
func AppendRecord(b, payload []byte) []byte {
	b = binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(payload))
	b = binary.LittleEndian.AppendUint32(b, uint32(len(payload)))
	return append(b, payload...)
}

// ReadRecord reads the record at the start of data, refusing a payload
// longer than limit, and returns the payload and the record's length in
// bytes. The payload aliases data, capped at its own end.
func ReadRecord(data []byte, limit int) (payload []byte, n int, err error) {
	if len(data) < RecordHeaderLen {
		return nil, 0, fmt.Errorf("torn record header: %d of %d bytes", len(data), RecordHeaderLen)
	}
	size := binary.LittleEndian.Uint32(data[4:])
	if uint64(size) > uint64(limit) {
		return nil, 0, fmt.Errorf("record claims %d bytes (limit %d)", size, limit)
	}
	if uint64(size) > uint64(len(data)-RecordHeaderLen) {
		return nil, 0, fmt.Errorf("torn record: %d bytes claimed, %d present", size, len(data)-RecordHeaderLen)
	}
	n = RecordHeaderLen + int(size)
	payload = data[RecordHeaderLen:n:n]
	if want, got := binary.LittleEndian.Uint32(data), crc32.ChecksumIEEE(payload); got != want {
		return nil, 0, fmt.Errorf("record CRC mismatch (stored %#x, computed %#x)", want, got)
	}
	return payload, n, nil
}

// Records reads records from data until it ends, handing each payload to
// fn. It stops at the first record that is damaged or that fn refuses,
// and returns the length of the prefix of data that holds only accepted
// records — where a recovering writer truncates a torn tail.
func Records(data []byte, limit int, fn func(payload []byte) error) (clean int, err error) {
	for clean < len(data) {
		payload, n, err := ReadRecord(data[clean:], limit)
		if err == nil {
			err = fn(payload)
		}
		if err != nil {
			return clean, fmt.Errorf("record at offset %d: %w", clean, err)
		}
		clean += n
	}
	return clean, nil
}

// BackupPath returns the path of the one-deep backup WriteFileAtomic
// keeps beside a file.
func BackupPath(path string) string { return path + ".bak" }

// WriteFileAtomic writes data to path so that a crash at any point leaves
// either the previous file, the previous file under BackupPath(path), or
// the complete new file — never a torn mix. The protocol is: write and
// fsync a temp file in the same directory, move any existing file to the
// .bak slot, rename the temp into place, and fsync the directory. hook,
// when non-nil, is consulted between stages ("after-temp", "after-backup")
// so fault-injection tests can simulate a crash mid-protocol; a hook
// error aborts the write at that point exactly as a crash would.
func WriteFileAtomic(path string, data []byte, hook func(stage string) error) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	tmpName := tmp.Name()
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return err
	}
	if hook != nil {
		if err := hook("after-temp"); err != nil {
			return err
		}
	}
	if _, err := os.Stat(path); err == nil {
		if err := os.Rename(path, BackupPath(path)); err != nil {
			os.Remove(tmpName)
			return err
		}
	}
	if hook != nil {
		if err := hook("after-backup"); err != nil {
			return err
		}
	}
	if err := os.Rename(tmpName, path); err != nil {
		os.Remove(tmpName)
		return err
	}
	// Best effort: persist the renames. A failure here only weakens
	// durability against power loss, not atomicity.
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
	return nil
}
