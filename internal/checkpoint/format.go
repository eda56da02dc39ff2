package checkpoint

import (
	"encoding/binary"
	"fmt"
	"os"
	"sort"

	"livesim/internal/frame"
)

// A checkpoint file (format version 3) is a frame header and one frame
// record whose payload is
//
//	design version string | history position (u64) |
//	aux count (u64) | { handle string | blob } ... (handles sorted) |
//	state blob length (u64) | encodeState blob
//
// where strings and blobs are length-prefixed (u64 LE). The state blob of
// version 3 holds each node's state slots and flags its all-zero memory
// pages; versions 1 and 2 held every slot and every word (decodeState
// reads both). Version 1 files (every state and drain dir written before
// version 2) carry the payload behind the same CRC with a u64 length;
// every version stays readable.
var fileFormat = frame.Header{Magic: "LSCP", Min: 1, Max: 3}

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
// The checkpoint it returns is in no store: its ID is 0 and its Cycle is
// its state's.
func DecodeFile(data []byte) (*Checkpoint, error) {
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
	cp := &Checkpoint{Version: string(r.bytes()), HistoryPos: int(r.u64())}
	// An aux entry is at least its two length prefixes.
	if nAux := r.count(16, "aux entries"); nAux > 0 {
		cp.Aux = make(map[string][]byte, nAux)
		for i := 0; i < nAux; i++ {
			h := string(r.bytes())
			cp.Aux[h] = append([]byte(nil), r.bytes()...)
		}
	}
	stateBlob := r.bytes()
	if r.err != nil {
		return nil, r.err
	}
	if cp.State, err = decodeState(stateBlob, ver >= 3); err != nil {
		return nil, err
	}
	cp.Cycle = cp.State.Cycle
	return cp, nil
}

// LoadFile reads and decodes a checkpoint file. When the primary file is
// missing or corrupt and its frame.BackupPath sibling decodes cleanly, the
// backup is returned with fromBackup=true; otherwise the primary error is
// returned.
func LoadFile(path string) (cp *Checkpoint, fromBackup bool, err error) {
	data, rerr := os.ReadFile(path)
	if rerr == nil {
		if cp, derr := DecodeFile(data); derr == nil {
			return cp, false, nil
		} else {
			rerr = derr
		}
	}
	bdata, berr := os.ReadFile(frame.BackupPath(path))
	if berr == nil {
		if cp, derr := DecodeFile(bdata); derr == nil {
			return cp, true, nil
		}
	}
	return nil, false, fmt.Errorf("checkpoint %s unreadable (no usable backup): %w", path, rerr)
}
