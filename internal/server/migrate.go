package server

import (
	"encoding/json"
	"fmt"
	"path/filepath"
	"time"

	"livesim/internal/frame"
	"livesim/internal/govern"
	"livesim/internal/transfer"
	"livesim/internal/wal"
	"livesim/internal/wire"
)

// Live migration. A session's durable state — journal plus watermark
// checkpoints — already makes it portable: any livesimd can rebuild it
// with the same replay engine crash recovery uses. The export verb
// freezes that state into an internal/transfer blob on the session's
// own worker goroutine (so it is serialized against every other
// operation and observes no torn mid-request state); the import verb
// writes the blob into the target's state dir and replays it
// synchronously, watermark fast path included. The gateway sequences
// the two and flips routing at the commit point; a close with a
// forwarding address leaves a "moved" tombstone behind so stragglers
// that still dial the old backend get redirected instead of
// no_session.

// maxWireBlob caps an export blob so its base64 form plus JSON framing
// stays under the 16 MB wire line limit both sides enforce.
const maxWireBlob = 11 << 20

// maxMovedTombstones bounds the forwarding table; oldest entries fall
// off first. A straggler that misses its tombstone degrades to
// no_session — safe, just less helpful.
const maxMovedTombstones = 512

// movedTombstoneTTL expires forwarding tombstones: a session re-homed
// again by a later migration or failover must not keep getting
// redirected to its first destination by a long-lived source. Expiry
// degrades to no_session, which sends a well-behaved client back to
// the gateway for fresh routing. A var so tests can shrink it.
var movedTombstoneTTL = 10 * time.Minute

// ExportData is the structured payload of a successful export: the
// transfer blob plus the numbers the gateway logs and tests assert on.
type ExportData struct {
	Session  string `json:"session"`
	Blob     []byte `json:"blob"`
	WALBytes int64  `json:"wal_bytes"`
	Seq      uint64 `json:"seq"`
	Pipes    int    `json:"pipes"`
}

// ImportData is the structured payload of a successful import: the
// replay report, which is also the blackout evidence (ReplayMs is the
// dominant cost of the routing freeze).
type ImportData struct {
	Session  string  `json:"session"`
	Records  int     `json:"records"`
	Executed int     `json:"executed"`
	Skipped  int     `json:"skipped"`
	FastPath bool    `json:"fast_path"`
	ReplayMs float64 `json:"replay_ms"`
}

// exportTask runs on the session's worker goroutine (task.special):
// watermark strictly, then frame the journal and its checkpoints into
// a transfer blob. Non-destructive — the session keeps serving here
// until the gateway closes it at the commit point.
func (s *Server) exportTask(h *hosted, t *task) *Response {
	req := t.req
	if h.wal == nil {
		return errResp(req, wire.CodeBadRequest,
			fmt.Errorf("session %q has no journal (state dir disabled); not portable", h.name))
	}
	img, meta, err := s.exportBlob(h)
	if err != nil {
		return errResp(req, wire.CodeError, fmt.Errorf("export: %w", err))
	}
	data, _ := json.Marshal(ExportData{
		Session: h.name, Blob: img, WALBytes: meta.WALBytes, Seq: meta.Seq, Pipes: meta.Pipes,
	})
	s.reg.Counter("server_exports").Inc()
	s.event("session_exported", h.name,
		fmt.Sprintf("exported %d bytes (%d journal, %d pipes, seq %d)",
			len(img), meta.WALBytes, meta.Pipes, meta.Seq))
	return &Response{ID: req.ID, OK: true,
		Output: fmt.Sprintf("exported session %s (%d bytes)\n", h.name, len(img)), Data: data}
}

// importSession materializes a transfer blob as a hosted session: write
// the journal and checkpoints into the state dir, then run the exact
// single-session recovery path a restart would — synchronously, because
// the caller's routing freeze is waiting on the answer. Runs inline on
// the connection goroutine like create; a recovering placeholder keeps
// concurrent requests out until replay completes.
//
// `import follower` is the replication seed: the landed session is
// marked a follower (direct mutations rejected; the primary's replapply
// stream is its only writer) under the epoch the request carries. A
// follower seed may land over an existing follower of the same session
// — that is the re-seed path after a reanchor crossed the stream — but
// never over a primary.
func (s *Server) importSession(req *Request) *Response {
	if s.cfg.StateDir == "" {
		return errResp(req, wire.CodeBadRequest, fmt.Errorf("import requires a state dir"))
	}
	if len(req.Blob) == 0 {
		return errResp(req, wire.CodeBadRequest, fmt.Errorf("import needs a transfer blob"))
	}
	follower := false
	switch {
	case len(req.Args) == 0:
	case len(req.Args) == 1 && req.Args[0] == "follower":
		follower = true
	default:
		return errResp(req, wire.CodeBadRequest, fmt.Errorf("usage: import [follower]"))
	}
	blob, err := transfer.Decode(req.Blob)
	if err != nil {
		return errResp(req, wire.CodeBadRequest, err)
	}
	name := blob.Meta.Session
	if req.Session != "" && req.Session != name {
		return errResp(req, wire.CodeBadRequest,
			fmt.Errorf("request names session %q but blob carries %q", req.Session, name))
	}
	if !nameRE.MatchString(name) {
		return errResp(req, wire.CodeBadRequest,
			fmt.Errorf("session name %q must match %s", name, nameRE.String()))
	}
	// Entry whitelist: exactly this session's journal and checkpoint
	// basenames — transfer.Decode already rejected path separators, this
	// rejects a blob smuggling some other session's files.
	sawWAL := false
	for _, e := range blob.Entries {
		switch {
		case e.Name == name+".wal":
			sawWAL = true
		case filepath.Ext(e.Name) == ".lscp" &&
			len(e.Name) > len(name)+6 && e.Name[:len(name)+1] == name+".":
		default:
			return errResp(req, wire.CodeBadRequest,
				fmt.Errorf("blob entry %q does not belong to session %q", e.Name, name))
		}
	}
	if !sawWAL {
		return errResp(req, wire.CodeBadRequest, fmt.Errorf("blob carries no journal for %q", name))
	}
	if s.diskLevelNow() >= govern.LevelCritical {
		// An import is all writes; at the critical rung the target could
		// not even keep the session durable once landed.
		s.reg.Counter("server_diskfull_rejects").Inc()
		return errResp(req, wire.CodeDiskFull, ErrDiskFull)
	}

	if follower {
		// Re-seed: a follower seed may replace an existing follower of the
		// same session (the primary re-baselines after a reanchor, or
		// after the follower diverged). The stale copy is torn down first;
		// a primary is never overwritten this way.
		s.mu.Lock()
		existing := s.sessions[name]
		s.mu.Unlock()
		if existing != nil && existing.sess != nil && existing.follower.Load() &&
			req.Epoch >= existing.epoch.Load() {
			if old := s.removeSession(name); old != nil {
				close(old.queue)
				<-old.stopped
				old.sess.Quiesce()
				if old.wal != nil {
					old.wal.Close()
				}
				s.removeSessionState(name)
				s.event("follower_reseed", name, "stale follower replaced by a fresh seed")
			}
		}
	}

	h := s.newHosted(name)
	h.recovering.Store(true)
	s.mu.Lock()
	switch {
	case s.draining:
		s.mu.Unlock()
		return errResp(req, wire.CodeDraining, ErrDraining)
	case s.sessions[name] != nil:
		s.mu.Unlock()
		return errResp(req, wire.CodeBadRequest, fmt.Errorf("session %q already exists", name))
	case len(s.sessions) >= s.cfg.MaxSessions:
		s.mu.Unlock()
		s.reg.Counter("server_session_limit_rejects").Inc()
		return errResp(req, wire.CodeSessionLimit,
			fmt.Errorf("session limit %d reached: %w", s.cfg.MaxSessions, ErrSessionLimit))
	}
	s.sessions[name] = h
	delete(s.moved, name) // the session lives here now; drop any stale forwarding
	s.mu.Unlock()

	fail := func(code string, cause error) *Response {
		s.mu.Lock()
		delete(s.sessions, name)
		s.mu.Unlock()
		if h.wal != nil {
			h.wal.Close()
		}
		close(h.queue)
		for t := range h.queue {
			if !t.abandoned.Load() {
				t.reply <- errResp(t.req, wire.CodeNoSession, fmt.Errorf("session %q failed to import", name))
			}
		}
		s.removeSessionState(name)
		s.reg.Counter("server_imports_failed").Inc()
		s.event("import_failed", name, cause.Error())
		return errResp(req, code, fmt.Errorf("import %q: %w", name, cause))
	}

	t0 := time.Now()
	s.removeSessionState(name)
	for _, e := range blob.Entries {
		path := filepath.Join(s.cfg.StateDir, e.Name)
		if err := frame.WriteFileAtomic(path, e.Payload, nil); err != nil {
			return fail(wire.CodeError, fmt.Errorf("write %s: %w", e.Name, err))
		}
	}
	w, recs, err := wal.Open(s.walPath(name), s.walOpts())
	if err != nil {
		return fail(wire.CodeError, fmt.Errorf("journal open: %w", err))
	}
	h.wal = w
	if len(recs) == 0 || recs[0].Type != wal.TypeBoot {
		return fail(wire.CodeError, fmt.Errorf("imported journal has no boot record"))
	}
	rep, err := s.replayRecords(h, recs)
	if err != nil {
		return fail(wire.CodeError, err)
	}

	if follower {
		// Follower-ness and the seed epoch must be durable before the
		// session serves: a restarted standby that forgot it was a
		// follower would accept direct mutations and fork the stream.
		if req.Epoch > h.epoch.Load() {
			h.epoch.Store(req.Epoch)
		}
		if err := s.writeFollowerMeta(name, h.epoch.Load()); err != nil {
			return fail(wire.CodeError, fmt.Errorf("persist follower meta: %w", err))
		}
		h.follower.Store(true)
	}

	h.dirty.Store(rep.Executed+rep.Skipped > 0)
	h.touch()
	s.noteMark(h)
	s.updateMemUsage(h) // safe: the worker has not started yet
	go s.worker(h)
	h.recovering.Store(false)
	dur := time.Since(t0)
	s.reg.Counter("server_imports").Inc()
	s.reg.Histogram("server_import_seconds", nil).Observe(dur.Seconds())
	role := ""
	if follower {
		role = fmt.Sprintf(" as follower (epoch %d)", h.epoch.Load())
	}
	s.event("session_imported", name,
		fmt.Sprintf("imported in %v%s (%d records: %d replayed, %d skipped, fast=%v)",
			dur.Round(time.Millisecond), role, rep.Records, rep.Executed, rep.Skipped, rep.FastPath))
	data, _ := json.Marshal(ImportData{
		Session: name, Records: rep.Records, Executed: rep.Executed,
		Skipped: rep.Skipped, FastPath: rep.FastPath,
		ReplayMs: float64(dur.Microseconds()) / 1e3,
	})
	return &Response{ID: req.ID, OK: true,
		Output: fmt.Sprintf("imported session %s in %v\n", name, dur.Round(time.Millisecond)),
		Data:   data}
}

// watermarkStrict is saveWatermark with teeth: any checkpoint save,
// mark append or sync failure aborts with the error instead of logging
// and carrying on. Export uses it — a blob framed around a failed
// watermark would ship a lie.
func (s *Server) watermarkStrict(h *hosted) error {
	for _, pipe := range h.sess.PipeNames() {
		base := fmt.Sprintf("%s.%s.lscp", h.name, pipe)
		path := filepath.Join(s.cfg.StateDir, base)
		if err := s.saveCheckpointRetry(h, pipe, path); err != nil {
			return fmt.Errorf("checkpoint %s: %w", pipe, err)
		}
		cycle, histLen, ok := h.sess.PipeStatus(pipe)
		if !ok {
			continue
		}
		mark := &wal.Record{Type: wal.TypeMark, Pipe: pipe, Path: base, Cycle: cycle, HistoryLen: histLen}
		if err := h.wal.Append(mark); err != nil {
			return fmt.Errorf("mark %s: %w", pipe, err)
		}
	}
	if err := h.wal.Sync(); err != nil {
		return fmt.Errorf("sync: %w", err)
	}
	h.mutations = 0
	s.noteMark(h)
	return nil
}

// noteMark refreshes the session's watermark bookkeeping (journal
// sequence, highest covered pipe cycle) after marks were written or an
// import landed. Callers hold the session quiescent (worker goroutine,
// or before the worker starts).
func (s *Server) noteMark(h *hosted) {
	if h.wal == nil || h.sess == nil {
		return
	}
	h.markSeq.Store(h.wal.Seq())
	top := uint64(0)
	for _, pipe := range h.sess.PipeNames() {
		if cycle, _, ok := h.sess.PipeStatus(pipe); ok && cycle > top {
			top = cycle
		}
	}
	h.markCycle.Store(top)
}

// requestDrain is the operator-initiated drain verb: it fires the same
// graceful-drain machinery SIGTERM does — via the host process, which
// selects on DrainRequested and calls Shutdown with its own deadline
// and drain-dir policy. The verb acks immediately; running Shutdown
// inline would deadlock on this very request's in-flight count.
func (s *Server) requestDrain(req *Request) *Response {
	if s.isDraining() {
		return errResp(req, wire.CodeDraining, ErrDraining)
	}
	s.drainOnce.Do(func() { close(s.drainReq) })
	s.reg.Counter("server_drain_requests").Inc()
	s.event("drain_requested", "", "graceful drain requested over the wire")
	return &Response{ID: req.ID, OK: true,
		Output: "drain requested; server will checkpoint sessions and stop\n"}
}

// DrainRequested is closed when a client issues the drain verb. Host
// processes (cmd/livesimd) select on it alongside SIGTERM and run the
// same Shutdown path.
func (s *Server) DrainRequested() <-chan struct{} { return s.drainReq }

// movedEntry is one forwarding tombstone.
type movedEntry struct {
	addr string
	at   time.Time
}

// noteMoved records a forwarding tombstone: requests for name now get
// CodeMoved + addr instead of no_session. Bounded (oldest falls off)
// and TTL'd (see movedTombstoneTTL).
func (s *Server) noteMoved(name, addr string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for n, m := range s.moved {
		if time.Since(m.at) > movedTombstoneTTL {
			delete(s.moved, n)
		}
	}
	if len(s.moved) >= maxMovedTombstones {
		oldest, oldestAt := "", time.Time{}
		for n, m := range s.moved {
			if oldest == "" || m.at.Before(oldestAt) {
				oldest, oldestAt = n, m.at
			}
		}
		delete(s.moved, oldest)
	}
	s.moved[name] = movedEntry{addr: addr, at: time.Now()}
}

// movedTo reports where a departed session went, if known and fresh.
func (s *Server) movedTo(name string) (string, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	m, ok := s.moved[name]
	if ok && time.Since(m.at) > movedTombstoneTTL {
		delete(s.moved, name)
		return "", false
	}
	return m.addr, ok
}

// movedResp builds the CodeMoved redirect response.
func movedResp(req *Request, addr string) *Response {
	r := errResp(req, wire.CodeMoved, fmt.Errorf("session %q: %w (now at %s)", req.Session, ErrMoved, addr))
	r.MovedTo = addr
	return r
}

// Halt stops the server abruptly — no drain, no final watermarks, no
// checkpoint saves — leaving the state dir exactly as a SIGKILL would:
// journals durable up to their last fsync, nothing else. It exists so
// in-process crash tests and the fleet benchmark can kill a backend
// and restart it on the same state dir without forking a process.
func (s *Server) Halt() {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return
	}
	s.draining = true
	hs := make([]*hosted, 0, len(s.sessions))
	for _, h := range s.sessions {
		if h.sess != nil && !h.recovering.Load() {
			hs = append(hs, h)
		}
	}
	s.sessions = make(map[string]*hosted)
	s.mu.Unlock()

	s.acc.Close()
	s.stopOnce.Do(func() { close(s.janitorStop) })
	for _, h := range hs {
		close(h.queue)
		if !waitClosed(h.stopped, 2*time.Second) {
			continue
		}
		stopShipper(h)
		h.sess.Quiesce()
		if h.wal != nil {
			// No watermark marks are written: recovery must replay the
			// journal tail, exactly as after a real crash. (Close still
			// flushes buffered appends; run crash-fidelity tests that need
			// torn tails through the SIGKILL matrix instead.)
			h.wal.Close()
		}
	}
	s.bgWG.Wait()
	s.tel.Stop()
}
