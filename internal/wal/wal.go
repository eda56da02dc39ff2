// Package wal is the per-session write-ahead change journal behind
// livesimd's durable session recovery. Every committed mutation — a
// session's boot parameters, each mutating command (run, poke, apply
// with its full source payload, ...) and checkpoint watermarks — is
// appended as one record, so a daemon that dies (kill -9, OOM, power
// loss) can reconstruct every hosted session bit-identically by
// re-booting it and re-applying the journaled mutations
// (core.Session.ReplayFrom).
//
// A journal is an internal/frame file: the header (LSWL, version 1),
// then one frame record per journal Record, its payload the Record's
// JSON. The file is append-only. A crash mid-append leaves a torn tail;
// Open detects it (length prefix past EOF, CRC mismatch, or a payload
// that does not decode) and truncates back to the last intact record —
// torn tails are a recovery event, never a boot failure. Sequence
// numbers are assigned by Append and must be strictly consecutive; a
// gap or repeat is treated like a torn tail.
//
// Appends hit the kernel immediately (one write(2) per record) and are
// fsynced either inline (SyncEvery == 0, the crash-matrix setting) or
// by a background flusher on a short interval (the steady-state
// setting: the live-loop hot path pays a buffer copy and a write, not
// an fsync). Sync and Close force the flush. A batched fsync that fails
// leaves records already acked of unknown durability, and a later fsync
// that succeeds does not say otherwise: the WAL keeps the first such
// error, and every later Append, Sync and Close returns it, so nothing
// more is acked on a journal that may have lost what it held.
package wal

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"sync"
	"time"

	"livesim/internal/faultinject"
	"livesim/internal/frame"
	"livesim/internal/obs"
)

// format is the journal's file header. Version 1 is the only layout
// there has been.
var format = frame.Header{Magic: "LSWL", Min: 1, Max: 1}

// MaxRecord bounds a single record payload; the largest legitimate
// payload is an `apply` record carrying a full design source snapshot,
// and the server caps request lines at 16 MB, so this matches.
const MaxRecord = 16 << 20

// Record types.
const (
	// TypeBoot is the first record of every journal: the parameters the
	// session was created with, enough to re-boot it from nothing.
	TypeBoot = "boot"
	// TypeCmd is one committed mutating command (verb + args, plus the
	// full source payload for apply).
	TypeCmd = "cmd"
	// TypeMark is a checkpoint watermark: pipe state as of this point in
	// the journal was saved to a checkpoint file, so recovery may load
	// the file and skip re-executing the records it covers.
	TypeMark = "mark"
	// TypeEpoch records a replication epoch change: a standby promoted
	// to primary journals the fencing token it was promoted under, so
	// the epoch survives restarts and a resurrected stale primary (with
	// an older epoch in its own journal) can be told apart from the
	// real one. State-free for replay: recovery just adopts the highest
	// epoch seen.
	TypeEpoch = "epoch"
)

// Record is one journal entry. Which fields are meaningful depends on
// Type; JSON encoding keeps unused fields off the wire.
type Record struct {
	// Seq is the strictly consecutive record number, assigned by Append.
	Seq  uint64 `json:"seq"`
	Type string `json:"type"`

	// Boot parameters (TypeBoot): exactly the create-request fields.
	PGAS            int    `json:"pgas,omitempty"`
	Top             string `json:"top,omitempty"`
	CheckpointEvery uint64 `json:"ckpt_every,omitempty"`

	// Command fields (TypeCmd). Files also carries the boot sources for
	// a files-based session.
	Verb  string            `json:"verb,omitempty"`
	Args  []string          `json:"args,omitempty"`
	Files map[string]string `json:"files,omitempty"`
	// Version is the design version after the mutation committed; replay
	// verifies it record by record (the sequencing against the version
	// table).
	Version string `json:"version,omitempty"`

	// Watermark fields (TypeMark).
	Pipe string `json:"pipe,omitempty"`
	// Path names the checkpoint file, relative to the journal's
	// directory (so a state dir can be moved wholesale).
	Path       string `json:"path,omitempty"`
	Cycle      uint64 `json:"cycle,omitempty"`
	HistoryLen int    `json:"history_len,omitempty"`

	// Epoch is the replication fencing token as of a TypeEpoch record.
	Epoch uint64 `json:"epoch,omitempty"`
}

// Options tunes a WAL.
type Options struct {
	// SyncEvery is the background fsync interval. 0 fsyncs inline on
	// every append (maximum durability, the crash-matrix setting);
	// > 0 batches fsyncs on that interval (the steady-state setting).
	SyncEvery time.Duration
	// Faults, when set, injects failed and torn appends
	// (Plan.DiskFullAppends, Plan.TornWALWrite), a failed fsync
	// (Plan.FailWALSync) and, once an append's bytes reached the file
	// (and, with SyncEvery 0, were fsynced), the crash matrix's SIGKILL
	// at an armed size (Plan.CrashWALAt). Nil costs one nil check.
	Faults *faultinject.Plan
	// Metrics, when set, receives wal_bytes / wal_appends /
	// wal_truncations. Nil-safe.
	Metrics *obs.Registry
}

// WAL is one open journal. Safe for concurrent use, though livesimd
// serializes all appends per session on the session worker.
type WAL struct {
	mu      sync.Mutex
	f       *os.File
	path    string
	size    int64
	seq     uint64
	appends int // lifetime append count, for the disk-fault hooks
	dirty   bool
	closed  bool
	// syncErr is the first failed fsync of batched appends; once set,
	// Append, Sync and Close return it.
	syncErr error
	opts    Options
	// group is the disk-pressure group-commit override: when > 0,
	// appends batch fsyncs on this interval even if the WAL was opened
	// inline (SyncEvery 0). Set by SetGroupCommit from the pressure
	// ladder's elevated rung.
	group     time.Duration
	flusherOn bool
	stop      chan struct{}
	stopped   chan struct{}
}

// Open opens (or creates) the journal at path, returning the intact
// records already present. A torn or corrupt tail is truncated off the
// file — recovery data loss is bounded to the records that never fully
// reached the disk — and is reported through the wal_truncations
// metric, never as an error. A file that is not a WAL at all is an
// error.
func Open(path string, opts Options) (*WAL, []*Record, error) {
	data, err := os.ReadFile(path)
	if err != nil && !os.IsNotExist(err) {
		return nil, nil, err
	}

	var recs []*Record
	clean := 0
	if len(data) > 0 {
		var derr error
		recs, clean, derr = DecodeAll(data)
		if derr != nil && clean == 0 && len(recs) == 0 {
			// Not even a valid header: refuse rather than clobber what
			// might be someone else's file.
			return nil, nil, fmt.Errorf("wal %s: %w", path, derr)
		}
		if clean < len(data) {
			if terr := os.Truncate(path, int64(clean)); terr != nil {
				return nil, nil, fmt.Errorf("wal %s: truncating torn tail: %w", path, terr)
			}
			opts.Metrics.Counter("wal_truncations").Inc()
			opts.Metrics.Counter("wal_truncated_bytes").Add(uint64(len(data) - clean))
		}
	}

	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, nil, err
	}
	w := &WAL{f: f, path: path, opts: opts, stop: make(chan struct{}), stopped: make(chan struct{})}
	if len(data) == 0 {
		if _, err := f.Write(format.Append(nil)); err != nil {
			f.Close()
			return nil, nil, err
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return nil, nil, err
		}
		w.size = frame.HeaderLen
	} else {
		w.size = int64(clean)
		if _, err := f.Seek(w.size, 0); err != nil {
			f.Close()
			return nil, nil, err
		}
	}
	if len(recs) > 0 {
		w.seq = recs[len(recs)-1].Seq
	}
	if opts.SyncEvery > 0 {
		w.flusherOn = true
		go w.flusher(opts.SyncEvery)
	} else {
		close(w.stopped)
	}
	return w, recs, nil
}

// SetGroupCommit switches fsync policy at runtime: d > 0 batches
// fsyncs on that interval (the disk-pressure ladder's elevated rung —
// fewer fsyncs, wider durability window), d == 0 restores the policy
// the WAL was opened with, syncing any batched appends inline before
// returning. The flusher goroutine is started lazily on the first
// enable and keeps its first interval for the WAL's lifetime.
func (w *WAL) SetGroupCommit(d time.Duration) error {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return nil
	}
	w.group = d
	var syncErr error
	if d == 0 && w.opts.SyncEvery == 0 && w.dirty {
		syncErr = w.syncBatched()
	}
	if d > 0 && !w.flusherOn {
		w.flusherOn = true
		w.stopped = make(chan struct{})
		go w.flusher(d)
	}
	w.mu.Unlock()
	return syncErr
}

// Append frames, writes and (per the sync policy) fsyncs one record,
// assigning its sequence number. The record's bytes are in the kernel
// when Append returns; with SyncEvery 0 they are on the platter too. A
// failed Append leaves the journal as it was, but for an injected torn
// append, which models a crash.
func (w *WAL) Append(r *Record) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return fmt.Errorf("wal %s: closed", w.path)
	}
	if w.syncErr != nil {
		return w.syncErr
	}
	r.Seq = w.seq + 1
	buf, err := EncodeRecord(r)
	if err != nil {
		return err
	}

	w.appends++
	if ferr := w.opts.Faults.WALWriteErr(w.appends); ferr != nil {
		// Injected ENOSPC: the write fails before any bytes land, the
		// way a full filesystem fails it. Unlike a torn append the
		// journal stays frame-aligned and the WAL stays usable.
		return fmt.Errorf("wal %s: append: %w", w.path, ferr)
	}
	if tear := w.opts.Faults.WALTear(w.appends, len(buf)); tear >= 0 {
		// Injected torn append: write only a prefix, sync it so the torn
		// tail is really on disk, and fail as a crash at this exact
		// offset would.
		if tear > len(buf) {
			tear = len(buf)
		}
		if _, werr := w.f.Write(buf[:tear]); werr != nil {
			return werr
		}
		w.f.Sync()
		w.size += int64(tear)
		w.closed = true // a crashed writer never writes again
		return fmt.Errorf("wal %s: torn append after %d/%d bytes: %w",
			w.path, tear, len(buf), faultinject.ErrInjected)
	}

	_, err = w.f.Write(buf)
	inline := w.opts.SyncEvery == 0 && w.group == 0
	if err == nil && inline {
		err = w.fsync()
	}
	if err != nil {
		// No part of a failed append stays in the file: cut it back to the
		// last whole record, so a retry appends the record once and a
		// refused mutation leaves no trace. A file that cannot be cut is a
		// writer that must not write again.
		if terr := w.f.Truncate(w.size); terr != nil {
			w.closed = true
		} else if _, serr := w.f.Seek(w.size, 0); serr != nil {
			w.closed = true
		}
		return fmt.Errorf("wal %s: append: %w", w.path, err)
	}
	w.seq = r.Seq
	w.size += int64(len(buf))
	w.dirty = !inline
	w.opts.Metrics.Counter("wal_appends").Inc()
	w.opts.Metrics.Counter("wal_bytes").Add(uint64(len(buf)))
	w.opts.Faults.WALSize(w.size)
	return nil
}

// Sync forces any batched appends to stable storage. It returns the
// WAL's kept fsync error, if any.
func (w *WAL) Sync() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return nil
	}
	return w.syncBatched()
}

// syncBatched fsyncs the batched appends, if there are any, and keeps
// the error of the first fsync that fails. The caller holds w.mu.
func (w *WAL) syncBatched() error {
	if w.syncErr != nil || !w.dirty {
		return w.syncErr
	}
	w.dirty = false
	if err := w.fsync(); err != nil {
		w.syncErr = fmt.Errorf("wal %s: fsync of batched appends: %w", w.path, err)
	}
	return w.syncErr
}

// fsync is every fsync of the journal's records, behind the fault hook.
func (w *WAL) fsync() error {
	if err := w.opts.Faults.WALSyncErr(); err != nil {
		return err
	}
	return w.f.Sync()
}

// Close syncs and closes the journal; its error is the kept fsync
// error, else the first new one. The file stays on disk — it is
// the session's durability record; remove it only when the session is
// explicitly discarded.
func (w *WAL) Close() error {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return nil
	}
	w.closed = true
	err := w.syncBatched()
	if cerr := w.f.Close(); err == nil {
		err = cerr
	}
	stopped := w.stopped
	w.mu.Unlock()
	close(w.stop)
	<-stopped
	return err
}

// Records reads back every whole record appended so far: the journal a
// restart would replay. A torn tail, which only an injected torn append
// leaves in a live journal, is not part of it.
func (w *WAL) Records() ([]*Record, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	buf := make([]byte, w.size)
	if _, err := w.f.ReadAt(buf, 0); err != nil {
		return nil, fmt.Errorf("wal %s: %w", w.path, err)
	}
	recs, clean, err := DecodeAll(buf)
	if clean == 0 {
		return nil, fmt.Errorf("wal %s: %w", w.path, err)
	}
	return recs, nil
}

// Size returns the current file size in bytes.
func (w *WAL) Size() int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.size
}

// Seq returns the sequence number of the last appended record.
func (w *WAL) Seq() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.seq
}

// Path returns the journal's file path.
func (w *WAL) Path() string { return w.path }

// flusher batches fsyncs on the given interval.
func (w *WAL) flusher(every time.Duration) {
	w.mu.Lock()
	stopped := w.stopped
	w.mu.Unlock()
	defer close(stopped)
	tick := time.NewTicker(every)
	defer tick.Stop()
	for {
		select {
		case <-w.stop:
			return
		case <-tick.C:
			w.Sync() // a failure is kept for the next Append
		}
	}
}

// EncodeRecord frames one record: a frame record carrying its JSON, the
// bytes json.Marshal writes for it.
func EncodeRecord(r *Record) ([]byte, error) {
	payload := appendRecord(nil, r)
	if len(payload) > MaxRecord {
		return nil, fmt.Errorf("wal record %d bytes exceeds limit %d", len(payload), MaxRecord)
	}
	return frame.AppendRecord(make([]byte, 0, frame.RecordHeaderLen+len(payload)), payload), nil
}

// appendRecord appends r as json.Marshal writes it.
func appendRecord(b []byte, r *Record) []byte {
	b = strconv.AppendUint(append(b, `{"seq":`...), r.Seq, 10)
	b = obs.AppendJSONString(append(b, `,"type":`...), r.Type)
	if r.PGAS != 0 {
		b = strconv.AppendInt(append(b, `,"pgas":`...), int64(r.PGAS), 10)
	}
	if r.Top != "" {
		b = obs.AppendJSONString(append(b, `,"top":`...), r.Top)
	}
	if r.CheckpointEvery != 0 {
		b = strconv.AppendUint(append(b, `,"ckpt_every":`...), r.CheckpointEvery, 10)
	}
	if r.Verb != "" {
		b = obs.AppendJSONString(append(b, `,"verb":`...), r.Verb)
	}
	if len(r.Args) > 0 {
		b = append(b, `,"args":`...)
		sep := byte('[')
		for _, a := range r.Args {
			b = obs.AppendJSONString(append(b, sep), a)
			sep = ','
		}
		b = append(b, ']')
	}
	if len(r.Files) > 0 {
		names := make([]string, 0, len(r.Files))
		for name := range r.Files {
			names = append(names, name)
		}
		sort.Strings(names)
		b = append(b, `,"files":`...)
		sep := byte('{')
		for _, name := range names {
			b = obs.AppendJSONString(append(b, sep), name)
			b = obs.AppendJSONString(append(b, ':'), r.Files[name])
			sep = ','
		}
		b = append(b, '}')
	}
	if r.Version != "" {
		b = obs.AppendJSONString(append(b, `,"version":`...), r.Version)
	}
	if r.Pipe != "" {
		b = obs.AppendJSONString(append(b, `,"pipe":`...), r.Pipe)
	}
	if r.Path != "" {
		b = obs.AppendJSONString(append(b, `,"path":`...), r.Path)
	}
	if r.Cycle != 0 {
		b = strconv.AppendUint(append(b, `,"cycle":`...), r.Cycle, 10)
	}
	if r.HistoryLen != 0 {
		b = strconv.AppendInt(append(b, `,"history_len":`...), int64(r.HistoryLen), 10)
	}
	if r.Epoch != 0 {
		b = strconv.AppendUint(append(b, `,"epoch":`...), r.Epoch, 10)
	}
	return append(b, '}')
}

// DecodeAll parses a WAL image, returning every intact record in order
// and the byte length of the clean prefix. It never panics and never
// reads past len(data), whatever the input: a missing or foreign header
// is an error with clean == 0; any framing damage past the header — a
// truncated length prefix, a length past EOF or over the record limit,
// a CRC mismatch, a payload that is not a record, a sequence gap —
// stops the scan at the last intact record, with the reason in err and
// clean marking where a recovering writer should truncate.
func DecodeAll(data []byte) (recs []*Record, clean int, err error) {
	_, body, err := format.Read(data)
	if err != nil {
		return nil, 0, err
	}
	recs, n, err := DecodeSegment(body, 0)
	return recs, frame.HeaderLen + n, err
}

// DecodeSegment parses a headerless run of record frames whose first
// record must carry sequence number afterSeq+1 — the shape of a journal
// tail read from a known frame boundary, or of a replication batch. It
// applies the same framing, CRC, size and strict-sequence checks as
// DecodeAll and the same never-panic contract, returning the intact
// records, the clean byte length, and the first damage found.
func DecodeSegment(data []byte, afterSeq uint64) (recs []*Record, clean int, err error) {
	lastSeq := afterSeq
	clean, err = frame.Records(data, MaxRecord, func(payload []byte) error {
		var r Record
		if err := json.Unmarshal(payload, &r); err != nil {
			return err
		}
		if r.Seq != lastSeq+1 {
			return fmt.Errorf("sequence %d after %d", r.Seq, lastSeq)
		}
		lastSeq = r.Seq
		recs = append(recs, &r)
		return nil
	})
	return recs, clean, err
}

// ReadSince reads the journal at path and returns the records with
// sequence numbers strictly greater than afterSeq — the tail a
// replication shipper still owes its standby. off is a scan hint: 0 (or
// anything inside the file header) decodes the whole file, while a
// newOff returned by a previous call resumes at that frame boundary, so
// steady-state shipping reads only the bytes appended since the last
// ship instead of re-decoding the journal. The returned newOff marks
// the clean end of what was decoded. Framing damage (which should never
// exist in a live, frame-aligned journal) and an off that does not line
// up with afterSeq's frame boundary are errors; callers recover by
// retrying from off 0.
func ReadSince(path string, afterSeq uint64, off int64) (recs []*Record, newOff int64, err error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, 0, err
	}
	defer f.Close()

	if off < frame.HeaderLen {
		// Scanning from the top: sequence numbers start at 1, so decode
		// the whole chain and drop what the caller already shipped.
		data, err := io.ReadAll(f)
		if err != nil {
			return nil, 0, err
		}
		all, clean, derr := DecodeAll(data)
		if derr != nil {
			return nil, 0, fmt.Errorf("wal %s: %w", path, derr)
		}
		for _, r := range all {
			if r.Seq > afterSeq {
				recs = append(recs, r)
			}
		}
		return recs, int64(clean), nil
	}

	if _, err := f.Seek(off, 0); err != nil {
		return nil, 0, err
	}
	data, err := io.ReadAll(f)
	if err != nil {
		return nil, 0, err
	}
	recs, clean, derr := DecodeSegment(data, afterSeq)
	if derr != nil {
		return nil, 0, fmt.Errorf("wal %s: tail at offset %d: %w", path, off, derr)
	}
	return recs, off + int64(clean), nil
}
