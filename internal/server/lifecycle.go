package server

import (
	"fmt"
	"path/filepath"
	"sort"
	"time"

	"livesim/internal/core"
	"livesim/internal/obs"
	"livesim/internal/wal"
	"livesim/internal/wire"
)

// The hosted-session lifecycle. A session comes in one of three ways:
// create, boot-time recovery of a journal already in the state dir, or
// import of a replication seed. Each of them reserves the name (a
// placeholder in the table), builds the session, then either launches it
// (publish, start the worker) or abandons it (drop the placeholder).
// It goes out one of five ways — close, idle eviction, memory shed,
// drain, halt — and each of them unlinks it (so only the caller stops
// it), stops it, and persists what that way out promises to leave:
//
//	close               nothing: journal, checkpoints and sidecar deleted
//	eviction, shed,     a dirty session's checkpoints in DrainDir (when
//	drain               set) and a final watermark in its journal; a
//	                    follower's journal is left as the stream wrote it
//	halt                the journal as last fsynced, as a SIGKILL would
//
// Shutdown and Halt wait for recoveries in flight; one that ends after
// the stop began closes its journal and starts nothing.

// maxSessions caps the sessions hosted at once; create and import past
// it answer CodeSessionLimit. A var so tests can lower it.
var maxSessions = 64

// way is how a session comes in.
type way int

const (
	viaCreate  way = iota
	viaRecover     // boot-time recovery, exempt from maxSessions
	viaImport
)

// leave is what a way out leaves in the state dir.
type leave int

const (
	leaveNothing   leave = iota // close
	leaveJournal                // halt
	leaveWatermark              // eviction, memory shed, drain
)

// hostedSet is the one read of the session table: a name-sorted
// snapshot of the sessions whose worker runs, plus — with recovering —
// those still replaying their journal. Of the latter a caller reads only
// the name and flags: their session is not built yet.
func (s *Server) hostedSet(recovering bool) []*hosted {
	s.mu.Lock()
	hs := make([]*hosted, 0, len(s.sessions))
	for _, h := range s.sessions {
		if h.recovering.Load() && recovering || !h.recovering.Load() && h.sess.Load() != nil {
			hs = append(hs, h)
		}
	}
	s.mu.Unlock()
	sort.Slice(hs, func(i, j int) bool { return hs[i].name < hs[j].name })
	return hs
}

// lookup returns the named entry, started or not.
func (s *Server) lookup(name string) *hosted {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sessions[name]
}

// unlink takes a running session out of the table so that only the
// caller stops it. It returns nil when name is absent, still being built
// or recovered (no worker drains its queue yet), or refused by ok.
func (s *Server) unlink(name string, ok func(*hosted) bool) *hosted {
	s.mu.Lock()
	defer s.mu.Unlock()
	h := s.sessions[name]
	if h == nil || h.sess.Load() == nil || h.recovering.Load() || ok != nil && !ok(h) {
		return nil
	}
	delete(s.sessions, name)
	return h
}

// reserve claims name for a session on its way in and registers the
// placeholder that holds it until launch or abandon: requests queue on a
// create's placeholder and get CodeRecovering on the others, which count
// in recoveryWG until their caller is done.
func (s *Server) reserve(name string, via way) (*hosted, string, error) {
	h := s.newHosted(name)
	h.recovering.Store(via != viaCreate)
	h.importing = via == viaImport
	s.mu.Lock()
	defer s.mu.Unlock()
	switch {
	case s.env.Draining():
		return nil, wire.CodeDraining, ErrDraining
	case s.sessions[name] != nil:
		return nil, wire.CodeBadRequest, fmt.Errorf("session %q already exists", name)
	case via != viaRecover && len(s.sessions) >= maxSessions:
		return nil, wire.CodeSessionLimit,
			fmt.Errorf("session limit %d reached: %w", maxSessions, ErrSessionLimit)
	}
	s.sessions[name] = h
	delete(s.moved, name) // the session lives here now; drop any stale forwarding
	if via != viaCreate {
		s.recoveryWG.Add(1)
	}
	return h, "", nil
}

// launch publishes a built session and starts its worker. A recovered
// session (rep set) takes its dirty flag and watermark from the replay.
// Once a stop began it refuses, and the caller abandons the entry.
func (s *Server) launch(h *hosted, sess *core.Session, rep *core.ReplayReport) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.env.Draining() {
		return false
	}
	h.sess.Store(sess)
	if rep != nil {
		h.dirty.Store(rep.Executed+rep.Skipped > 0)
		s.noteMark(h)
		s.updateMemUsage(h)
	}
	h.touch()
	h.recovering.Store(false)
	go s.worker(h)
	return true
}

// abandon drops a placeholder that will not start: unlink it, fail what
// queued on it and release its journal. It reports whether a stop began,
// in which case a recovery leaves the state dir as it found it.
func (s *Server) abandon(h *hosted) (stopping bool) {
	s.mu.Lock()
	stopping = s.env.Draining()
	if s.sessions[h.name] == h {
		delete(s.sessions, h.name)
	}
	s.mu.Unlock()
	s.stop(h, 0)
	s.persist(h, leaveJournal)
	return stopping
}

// stop takes an unlinked session out of service: close its queue, let
// the worker finish what it accepted (waiting at most patience when
// positive), stop its replication stream and quiesce background
// verification. A session that never started has no worker; what queued
// on its placeholder is failed instead. False when the worker is wedged.
func (s *Server) stop(h *hosted, patience time.Duration) bool {
	h.queue.close()
	if h.sess.Load() == nil {
		for t, ok := h.queue.take(); ok; t, ok = h.queue.take() {
			s.answer(t, wire.Refuse(t.Req, wire.CodeNoSession, fmt.Errorf("session %q failed to start", h.name)))
		}
		return true
	}
	if patience > 0 && !waitClosed(h.stopped, patience) {
		return false
	}
	<-h.stopped
	stopShipper(h)
	h.sess.Load().WaitBackground()
	return true
}

// persist releases a stopped session's journal and leaves on disk what
// its way out promises (see the table above).
func (s *Server) persist(h *hosted, how leave) DrainedSession {
	ds := DrainedSession{Name: h.name}
	if how == leaveWatermark && h.dirty.Load() {
		if s.cfg.DrainDir != "" {
			ds = s.saveSession(h)
		}
		// A follower's journal has one writer, the replication stream: a
		// mark here would move its head past the primary's seq.
		if h.wal != nil && !h.follower.Load() {
			s.watermark(h)
		}
	}
	if h.wal != nil {
		h.wal.Close()
	}
	if how == leaveNothing {
		s.removeSessionState(h.name)
	}
	return ds
}

// evict is idle eviction's and memory shed's way out: it only reclaims
// memory — a journaled session resurrects at the next daemon boot, and a
// re-create over the same name clears the stale state first.
func (s *Server) evict(h *hosted, why string) {
	s.stop(h, 0)
	if ds := s.persist(h, leaveWatermark); ds.Files != nil {
		why += fmt.Sprintf("; checkpointed %d pipes", len(ds.Files))
	}
	s.tel.Event("eviction", h.name, "", why)
}

// watermark is the one writer of watermarks. It checkpoints every pipe
// into the state dir, journals one mark record per pipe and syncs. The
// periodic, eviction, drain and seed paths all come through here. The
// first failure aborts: a partial watermark only sends a replay further
// back, but a seed built on one would be a lie.
func (s *Server) watermark(h *hosted) (err error) {
	h.mutations = 0
	defer func() {
		if err != nil {
			s.log.Error("watermark failed", obs.Str("session", h.name), obs.Str("err", err.Error()))
		}
	}()
	sess := h.sess.Load()
	for _, pipe := range sess.PipeNames() {
		base := fmt.Sprintf("%s.%s.lscp", h.name, pipe)
		if err := s.saveCheckpointRetry(h, pipe, filepath.Join(s.cfg.StateDir, base)); err != nil {
			return fmt.Errorf("checkpoint %s: %w", pipe, err)
		}
		cycle, histLen, ok := sess.PipeStatus(pipe)
		if !ok {
			continue
		}
		rec := &wal.Record{Type: wal.TypeMark, Pipe: pipe, Path: base, Cycle: cycle, HistoryLen: histLen}
		if err := h.wal.Append(rec); err != nil {
			return fmt.Errorf("mark %s: %w", pipe, err)
		}
	}
	if err := h.wal.Sync(); err != nil {
		return fmt.Errorf("sync: %w", err)
	}
	s.noteMark(h)
	return nil
}

// noteMark refreshes the session's watermark bookkeeping (journal
// sequence, highest covered pipe cycle) after a watermark was written or
// a journal replayed. Callers hold the session quiescent (worker
// goroutine, or before the worker starts).
func (s *Server) noteMark(h *hosted) {
	sess := h.sess.Load()
	if h.wal == nil || sess == nil {
		return
	}
	h.markSeq.Store(h.wal.Seq())
	top := uint64(0)
	for _, pipe := range sess.PipeNames() {
		if cycle, _, ok := sess.PipeStatus(pipe); ok && cycle > top {
			top = cycle
		}
	}
	h.markCycle.Store(top)
}

func waitClosed(ch <-chan struct{}, d time.Duration) bool {
	select {
	case <-ch:
		return true
	case <-time.After(d):
		return false
	}
}
