package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"
)

// FlightRecorder is a process-wide black box: a fixed-size ring of the
// most recent JSONL observability lines (completed spans, via the same
// fanout attachment a SpanStore uses, plus lifecycle notes recorded
// directly). It is always on and always cheap — one copied line per
// completed span — and only becomes interesting when something dies:
// Dump writes the ring to an io.Writer, DumpToFile writes an atomic
// blackbox-<ts>.jsonl the daemon triggers on panic, self-fence,
// quarantine trip, watchdog cancel, and drain-stuck, so the last N
// things the process did survive the process. Nil is the off switch.
type FlightRecorder struct {
	proc string

	wmu  sync.Mutex // serializes Write; never held with mu below
	frag []byte     // unterminated tail of the last Write, awaiting its newline

	mu     sync.Mutex
	buf    [][]byte
	next   int
	n      int
	writes atomic.Uint64
}

// NewFlightRecorder returns a recorder keeping the last capacity lines
// (capacity <= 0 defaults to 512) for process proc.
func NewFlightRecorder(proc string, capacity int) *FlightRecorder {
	if capacity <= 0 {
		capacity = 512
	}
	return &FlightRecorder{proc: proc, buf: make([][]byte, capacity)}
}

// Write records each newline-terminated JSONL line in p. A trailing
// chunk without its newline is buffered until a later Write delivers
// the rest of the line, so a chunked upstream writer never gets a
// truncated line into the ring. It always reports len(p) consumed so
// a Fanout never detaches it. Nil-safe.
func (f *FlightRecorder) Write(p []byte) (int, error) {
	total := len(p) // p is consumed below; a short return would detach us
	if f == nil {
		return total, nil
	}
	f.wmu.Lock()
	defer f.wmu.Unlock()
	if len(f.frag) > 0 {
		p = append(f.frag, p...)
		f.frag = nil
	}
	for len(p) > 0 {
		nl := bytes.IndexByte(p, '\n')
		if nl < 0 {
			if len(p) <= maxLineFrag {
				f.frag = append([]byte(nil), p...)
			}
			break
		}
		var line []byte
		line, p = p[:nl], p[nl+1:]
		if len(line) == 0 {
			continue
		}
		f.record(append([]byte(nil), line...))
	}
	return total, nil
}

// Note records a lifecycle event (quarantine trip, fence, watchdog
// cancel, ...) as its own JSONL line in the ring. Nil-safe.
func (f *FlightRecorder) Note(typ, session, trace, msg string) {
	if f == nil {
		return
	}
	line, err := json.Marshal(struct {
		Ev      string    `json:"ev"`
		TS      time.Time `json:"ts"`
		Type    string    `json:"type"`
		Session string    `json:"session,omitempty"`
		Trace   string    `json:"trace,omitempty"`
		Msg     string    `json:"msg"`
	}{Ev: "note", TS: time.Now(), Type: typ, Session: session, Trace: trace, Msg: msg})
	if err != nil {
		return
	}
	f.record(line)
}

func (f *FlightRecorder) record(line []byte) {
	f.mu.Lock()
	f.buf[f.next] = line
	f.next = (f.next + 1) % len(f.buf)
	if f.n < len(f.buf) {
		f.n++
	}
	f.mu.Unlock()
	f.writes.Add(1)
}

// Writes returns the total lines recorded so far (0 on nil) — the
// dirty counter the periodic flusher compares to skip no-op rewrites.
func (f *FlightRecorder) Writes() uint64 {
	if f == nil {
		return 0
	}
	return f.writes.Load()
}

// Dump writes a header line identifying the process and dump reason,
// then the retained lines oldest first. Nil-safe (writes nothing).
func (f *FlightRecorder) Dump(w io.Writer, reason string) error {
	if f == nil {
		return nil
	}
	f.mu.Lock()
	lines := make([][]byte, 0, f.n)
	start := f.next - f.n
	if start < 0 {
		start += len(f.buf)
	}
	for i := 0; i < f.n; i++ {
		lines = append(lines, f.buf[(start+i)%len(f.buf)])
	}
	f.mu.Unlock()
	hdr, err := json.Marshal(struct {
		Ev     string    `json:"ev"`
		Proc   string    `json:"proc"`
		Reason string    `json:"reason"`
		TS     time.Time `json:"ts"`
		Lines  int       `json:"lines"`
	}{Ev: "blackbox", Proc: f.proc, Reason: reason, TS: time.Now(), Lines: len(lines)})
	if err != nil {
		return err
	}
	if _, err := w.Write(append(hdr, '\n')); err != nil {
		return err
	}
	for _, ln := range lines {
		if _, err := w.Write(append(ln, '\n')); err != nil {
			return err
		}
	}
	return nil
}

// DumpToFile writes the ring to path atomically (temp file + rename in
// the same directory), so a reader never sees a half-written black box
// and a crash mid-dump leaves the previous dump intact. Nil-safe.
//
// This is frame.WriteFileAtomic without its backup step, on purpose: the
// periodic flusher rewrites a blackbox every 2 s (by default), and that
// must not leave .bak files behind.
func (f *FlightRecorder) DumpToFile(path, reason string) error {
	if f == nil {
		return nil
	}
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".blackbox-*")
	if err != nil {
		return err
	}
	if err := f.Dump(tmp, reason); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return nil
}

// BlackboxPath returns dir/blackbox-<ts>.jsonl for a dump taken now —
// shared by every trigger site so the naming stays greppable.
func BlackboxPath(dir string, ts time.Time) string {
	return filepath.Join(dir, fmt.Sprintf("blackbox-%d.jsonl", ts.UnixNano()))
}
