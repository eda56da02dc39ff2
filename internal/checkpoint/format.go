package checkpoint

import (
	"encoding/binary"
	"fmt"
	"os"
	"sort"

	"livesim/internal/frame"
	"livesim/internal/sim"
)

// A checkpoint file (format version 2) is a frame header and one frame
// record whose payload is
//
//	design version string | history position (u64) |
//	aux count (u64) | { handle string | blob } ... (handles sorted) |
//	state blob length (u64) | encodeState blob
//
// where strings and blobs are length-prefixed (u64 LE). Version 1 files
// (every state and drain dir written before version 2) carry the same
// payload behind the same CRC, with a u64 length; they stay readable.
var fileFormat = frame.Header{Magic: "LSCP", Min: 1, Max: 2}

// FileCheckpoint is the decoded content of a checkpoint file.
type FileCheckpoint struct {
	// FormatVersion is the container version the file was written in.
	FormatVersion uint32
	// Version is the design version the state was captured under.
	Version string
	// HistoryPos is the session-history position at capture.
	HistoryPos int
	// State is the simulation state.
	State *sim.State
	// Aux carries the testbench snapshots captured with the state.
	Aux map[string][]byte
}

// EncodeFile serializes a checkpoint into the current file format.
func EncodeFile(cp *Checkpoint) []byte {
	handles := make([]string, 0, len(cp.Aux))
	stateLen := stateSize(cp.State)
	size := 8 + len(cp.Version) + 8 + 8 + 8 + stateLen
	for h, blob := range cp.Aux {
		handles = append(handles, h)
		size += 8 + len(h) + 8 + len(blob)
	}
	sort.Strings(handles)

	p := make([]byte, 0, size)
	p = appendString(p, cp.Version)
	p = binary.LittleEndian.AppendUint64(p, uint64(cp.HistoryPos))
	p = binary.LittleEndian.AppendUint64(p, uint64(len(handles)))
	for _, h := range handles {
		p = appendString(p, h)
		p = append(binary.LittleEndian.AppendUint64(p, uint64(len(cp.Aux[h]))), cp.Aux[h]...)
	}
	p = binary.LittleEndian.AppendUint64(p, uint64(stateLen))
	p = appendState(p, cp.State)
	return frame.AppendRecord(fileFormat.Append(make([]byte, 0, frame.HeaderLen+frame.RecordHeaderLen+len(p))), p)
}

// DecodeFile parses a checkpoint file, rejecting unsupported versions,
// CRC mismatches and anything but exactly one record after the header.
func DecodeFile(data []byte) (*FileCheckpoint, error) {
	ver, body, err := fileFormat.Read(data)
	if err != nil {
		return nil, fmt.Errorf("checkpoint file: %w", err)
	}
	if ver == 1 {
		// Version 1 stored the payload length as a u64: the same record
		// with the length's four high (zero) bytes after its low half.
		if len(body) < 12 || binary.LittleEndian.Uint32(body[8:]) != 0 {
			return nil, fmt.Errorf("checkpoint file corrupt: no version 1 length")
		}
		body = append(body[:8:8], body[12:]...)
	}
	payload, n, err := frame.ReadRecord(body, len(body))
	if err == nil && n != len(body) {
		err = fmt.Errorf("%d bytes after the record", len(body)-n)
	}
	if err != nil {
		return nil, fmt.Errorf("checkpoint file corrupt: %w", err)
	}

	r := &reader{buf: payload}
	fc := &FileCheckpoint{FormatVersion: ver, Version: string(r.bytes()), HistoryPos: int(r.u64())}
	// An aux entry is at least its two length prefixes.
	if nAux := r.count(16, "aux entries"); nAux > 0 {
		fc.Aux = make(map[string][]byte, nAux)
		for i := 0; i < nAux; i++ {
			h := string(r.bytes())
			fc.Aux[h] = append([]byte(nil), r.bytes()...)
		}
	}
	stateBlob := r.bytes()
	if r.err != nil {
		return nil, r.err
	}
	if fc.State, err = DecodeState(stateBlob); err != nil {
		return nil, err
	}
	return fc, nil
}

// LoadFile reads and decodes a checkpoint file. When the primary file is
// missing or corrupt and its frame.BackupPath sibling decodes cleanly, the
// backup is returned with fromBackup=true; otherwise the primary error is
// returned.
func LoadFile(path string) (fc *FileCheckpoint, fromBackup bool, err error) {
	data, rerr := os.ReadFile(path)
	if rerr == nil {
		if fc, derr := DecodeFile(data); derr == nil {
			return fc, false, nil
		} else {
			rerr = derr
		}
	}
	bdata, berr := os.ReadFile(frame.BackupPath(path))
	if berr == nil {
		if fc, derr := DecodeFile(bdata); derr == nil {
			return fc, true, nil
		}
	}
	return nil, false, fmt.Errorf("checkpoint %s unreadable (no usable backup): %w", path, rerr)
}
