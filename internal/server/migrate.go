package server

import (
	"fmt"
	"path/filepath"
	"time"

	"livesim/internal/wal"
	"livesim/internal/wire"
)

// Moving a session. The gateway moves a session by making the target its
// standby, catching the replication stream up and promoting the target
// (replicate.go); what is left here is what the source does around it. A
// close with a forwarding address leaves a "moved" tombstone behind, so
// stragglers that still dial the old backend get redirected instead of
// no_session; the gateway's reconcile sweep leaves the same tombstone on
// a resurrected stale copy it closes.

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

// watermarkStrict is saveWatermark with teeth: any checkpoint save,
// mark append or sync failure aborts with the error instead of logging
// and carrying on. A seed uses it — a blob framed around a failed
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
// sequence, highest covered pipe cycle) after marks were written or a
// seed landed. Callers hold the session quiescent (worker goroutine,
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
