package server

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"livesim/internal/command"
	"livesim/internal/core"
	"livesim/internal/govern"
	"livesim/internal/liveparser"
	"livesim/internal/obs"
	"livesim/internal/wal"
)

// Restart recovery. With Config.StateDir set, every hosted session
// journals its committed mutations to <state-dir>/<name>.wal and its
// watermark checkpoints to <state-dir>/<name>.<pipe>.lscp. On boot,
// Recover scans the state dir and rebuilds each journaled session:
// re-boot from the journal's boot record, then core.Session.ReplayFrom
// re-applies the mutations (taking the checkpoint fast path when the
// stream allows). Until a session's replay completes it answers every
// request with CodeRecovering; a torn journal tail is truncated, never
// fatal; a journal that deterministically cannot be replayed is set
// aside as <name>.wal.failed — the daemon always boots.

// walSyncInterval maps Config.WALSyncEvery onto wal.Options.SyncEvery:
// negative = fsync inline on every append (the crash-matrix setting),
// zero = default 100ms group commit, positive = that interval.
func (s *Server) walSyncInterval() time.Duration {
	switch {
	case s.cfg.WALSyncEvery < 0:
		return 0
	case s.cfg.WALSyncEvery == 0:
		return 100 * time.Millisecond
	default:
		return s.cfg.WALSyncEvery
	}
}

func (s *Server) walOpts() wal.Options {
	return wal.Options{
		SyncEvery: s.walSyncInterval(),
		Faults:    s.cfg.Faults,
		OnWrite:   s.cfg.WALOnWrite,
		Metrics:   s.reg,
	}
}

func (s *Server) walPath(name string) string {
	return filepath.Join(s.cfg.StateDir, name+".wal")
}

// removeSessionState deletes a session's journal and watermark
// checkpoint files (create-over-stale and the close verb).
func (s *Server) removeSessionState(name string) {
	os.Remove(s.walPath(name))
	os.Remove(s.walPath(name) + ".failed")
	os.Remove(s.followerPath(name))
	for _, pat := range []string{name + ".*.lscp", name + ".*.lscp.bak"} {
		matches, _ := filepath.Glob(filepath.Join(s.cfg.StateDir, pat))
		for _, m := range matches {
			os.Remove(m)
		}
	}
}

// Recover scans the state dir and starts recovery of every journaled
// session. Placeholders are registered synchronously — callers should
// Recover before Serve so a session can never be re-created over its
// own pending journal — and replay runs in the background, one
// goroutine per session. WaitRecovered blocks until all are done.
func (s *Server) Recover() error {
	if s.cfg.StateDir == "" {
		return nil
	}
	matches, err := filepath.Glob(filepath.Join(s.cfg.StateDir, "*.wal"))
	if err != nil {
		return err
	}
	sort.Strings(matches)
	for _, path := range matches {
		name := strings.TrimSuffix(filepath.Base(path), ".wal")
		if !nameRE.MatchString(name) {
			continue
		}
		h := s.newHosted(name)
		h.recovering.Store(true)
		s.mu.Lock()
		if s.draining || s.sessions[name] != nil {
			s.mu.Unlock()
			continue
		}
		s.sessions[name] = h
		s.mu.Unlock()
		s.recoveryWG.Add(1)
		go s.recoverSession(h, path)
	}
	return nil
}

// WaitRecovered blocks until every recovery started by Recover has
// finished (successfully or not).
func (s *Server) WaitRecovered() { s.recoveryWG.Wait() }

func (s *Server) recoverSession(h *hosted, path string) {
	defer s.recoveryWG.Done()
	t0 := time.Now()

	failed := func(cause error) {
		// Deterministic replay failure: set the journal aside so the next
		// boot doesn't retry it forever, drop the placeholder, keep booting.
		s.mu.Lock()
		delete(s.sessions, h.name)
		s.mu.Unlock()
		if h.wal != nil {
			h.wal.Close()
		}
		if rerr := os.Rename(path, path+".failed"); rerr != nil {
			s.log.Error("recovery set-aside failed",
				obs.Str("session", h.name), obs.Str("err", rerr.Error()))
		}
		s.reg.Counter("server_recoveries_failed").Inc()
		s.event("recovery_failed", h.name,
			fmt.Sprintf("%v (journal set aside as %s.failed)", cause, filepath.Base(path)))
	}

	w, recs, err := wal.Open(path, s.walOpts())
	if err != nil {
		failed(err)
		return
	}
	h.wal = w
	if len(recs) == 0 || recs[0].Type != wal.TypeBoot {
		failed(fmt.Errorf("journal has no boot record"))
		return
	}

	rep, err := s.replayRecords(h, recs)
	if err != nil {
		failed(err)
		return
	}

	// A follower's role and epoch survive restarts via the sidecar: a
	// standby that rebooted amnesiac would accept direct mutations and
	// fork the primary's stream. The journal's own epoch records (already
	// adopted by replayRecords) and the sidecar agree on whichever is
	// newest.
	if meta, ok := s.readFollowerMeta(h.name); ok {
		h.follower.Store(true)
		if meta.Epoch > h.epoch.Load() {
			h.epoch.Store(meta.Epoch)
		}
	}

	h.dirty.Store(rep.Executed+rep.Skipped > 0)
	h.touch()
	s.noteMark(h)
	s.updateMemUsage(h) // safe: the worker has not started yet
	go s.worker(h)
	h.recovering.Store(false)
	s.reg.Counter("server_sessions_recovered").Inc()
	s.reg.Histogram("server_recover_seconds", nil).Observe(time.Since(t0).Seconds())
	s.event("recovery", h.name,
		fmt.Sprintf("recovered in %v (%d records: %d replayed, %d skipped via %d checkpoints, fast=%v)",
			time.Since(t0).Round(time.Millisecond), rep.Records, rep.Executed, rep.Skipped,
			rep.Checkpoints, rep.FastPath))
}

// replayRecords rebuilds h's session from its journal records: re-boot
// from the boot record, replay via the checkpoint fast path, fall back
// to full re-execution if the fast path diverges. It is the one replay
// engine both restart recovery and a replication seed run — the two
// callers differ only in where the journal bytes came from. On return
// h.sess is set (even on a fast-path fallback re-boot).
func (s *Server) replayRecords(h *hosted, recs []*wal.Record) (*core.ReplayReport, error) {
	// Epoch records are fencing metadata, not session state: core replay
	// would try to execute them as commands. Strip them here and adopt
	// the highest epoch seen — that is their entire replay semantics.
	// (Replay does not re-check sequence numbers, so the gaps left by
	// stripping are harmless.)
	if maxEpoch := maxEpochIn(recs); maxEpoch > 0 {
		filtered := make([]*wal.Record, 0, len(recs))
		for _, r := range recs {
			if r.Type != wal.TypeEpoch {
				filtered = append(filtered, r)
			}
		}
		recs = filtered
		if maxEpoch > h.epoch.Load() {
			h.epoch.Store(maxEpoch)
		}
	}
	exec := func(rec *wal.Record) error { return s.execRecord(h, rec) }
	sess, err := s.bootFromRecord(h, recs[0])
	if err != nil {
		return nil, fmt.Errorf("re-boot: %w", err)
	}
	s.mu.Lock()
	h.sess = sess
	s.mu.Unlock()
	rep, err := sess.ReplayFrom(s.cfg.StateDir, recs, exec)
	if err != nil && rep != nil && rep.FastPath {
		// The checkpoint fast path diverged (e.g. a stale watermark file):
		// re-boot and re-execute everything — slower, always faithful.
		s.event("wal_fallback", h.name,
			fmt.Sprintf("checkpoint fast path failed (%v); replaying in full", err))
		if sess, err = s.bootFromRecord(h, recs[0]); err == nil {
			s.mu.Lock()
			h.sess = sess
			s.mu.Unlock()
			rep, err = sess.ReplayFull(s.cfg.StateDir, recs, exec)
		}
	}
	if err != nil {
		return nil, err
	}
	return rep, nil
}

// maxEpochIn returns the highest epoch recorded in a journal, 0 when it
// holds no epoch records.
func maxEpochIn(recs []*wal.Record) uint64 {
	top := uint64(0)
	for _, r := range recs {
		if r.Type == wal.TypeEpoch && r.Epoch > top {
			top = r.Epoch
		}
	}
	return top
}

// bootFromRecord re-creates a session from its journal's boot record,
// with the same configuration createSession would use.
func (s *Server) bootFromRecord(h *hosted, rec *wal.Record) (*core.Session, error) {
	ccfg := s.sessionConfig(h, rec.CheckpointEvery)
	if rec.PGAS > 0 {
		return command.BootPGAS(rec.PGAS, ccfg)
	}
	return command.BootSource(rec.Top, rec.Files, ccfg)
}

// execRecord replays one journaled command through the shared verb
// table — the exact code path live traffic takes, minus the wire.
func (s *Server) execRecord(h *hosted, rec *wal.Record) error {
	env := &command.Env{Session: h.sess, Metrics: h.reg, Out: io.Discard}
	if rec.Files != nil {
		files := rec.Files
		env.ApplySource = func() (liveparser.Source, error) {
			return liveparser.Source{Files: files}, nil
		}
	}
	return command.Dispatch(env, rec.Verb, rec.Args)
}

// journalMutation appends one committed mutation to the session's
// journal (write-behind: the mutation is already applied; the journal
// is its durability record). Run-style verbs also record the cycle the
// pipe ended on, so replay is verified — and the checkpoint fast path
// can reconstruct the run journal — from actual, not requested, cycles.
//
// A journal that stays broken past the bounded retries (ENOSPC, a
// yanked volume) pauses: the session keeps serving from memory, marked
// nondurable in sessions/top/healthz, and every further mutation counts
// as missed. It does NOT feed the quarantine breaker — a full disk is
// the daemon's condition, not the session's fault, and quarantining
// every session the moment the disk fills would turn a disk incident
// into a total mutation outage. Once pressure clears (and the resume
// cooldown passes), the next mutation re-anchors the journal: fresh
// checkpoints plus a reanchor record carrying cycle/history/version
// that both replay gears treat as authoritative, so the unjournaled gap
// can never silently diverge a recovery.
func (s *Server) journalMutation(h *hosted, t *task) {
	req := t.req
	if h.wal == nil {
		return
	}
	if h.journalPaused.Load() {
		// The mutation triggering this call is already applied (write-
		// behind), so a resume's reanchor checkpoint includes it: when an
		// anchor is written (something was missed), appending the record
		// too would replay the mutation twice on top of the anchor.
		covered := h.missedAppends.Load() > 0
		if !s.tryResumeJournal(h) {
			h.missedAppends.Add(1)
			s.reg.Counter("server_journal_missed_appends").Inc()
			return
		}
		if covered {
			return
		}
	}
	rec := &wal.Record{
		Type:    wal.TypeCmd,
		Verb:    strings.ToLower(req.Verb),
		Args:    req.Args,
		Files:   req.Files,
		Version: h.sess.Version(),
	}
	if (rec.Verb == "run" || rec.Verb == "trace") && len(req.Args) >= 2 {
		if cycle, _, ok := h.sess.PipeStatus(req.Args[1]); ok {
			rec.Cycle = cycle
		}
	}
	err := govern.Retry(3, 5*time.Millisecond, nil, func() error {
		return h.wal.Append(rec)
	})
	if err != nil {
		s.reg.Counter("wal_append_failures").Inc()
		s.event("wal_append_failure", h.name, err.Error())
		s.pauseJournal(h, fmt.Sprintf("journal append failed: %v", err))
		h.missedAppends.Add(1)
		s.reg.Counter("server_journal_missed_appends").Inc()
		return
	}
	h.mutations++
	every := s.cfg.JournalCheckpointEvery * int(s.ckptFactor.Load())
	if s.cfg.JournalCheckpointEvery > 0 && h.mutations >= every {
		h.mutations = 0
		s.saveWatermark(h)
	}
	// Ship-on-commit: the standby must hold this record before the client
	// sees OK, so a primary lost the instant after responding loses no
	// acked mutation. (The crash matrix's OnWrite hook fires inside
	// Append, BEFORE this ship — a kill there loses only unacked work.)
	s.shipTail(h, t)
}

// tryResumeJournal attempts to end a journal pause. Worker goroutine
// only (it touches the live session). Resume requires the cooldown to
// have passed and the disk ladder to be below the critical rung; then:
//
//   - nothing was missed: just lift the pause — the journal tail is
//     still a faithful prefix.
//   - mutations were missed: the gap is unreconstructable from records,
//     so re-anchor — checkpoint every pipe and append one TypeReanchor
//     record per pipe carrying cycle, history and version. Replay (both
//     gears) skips everything before the anchor and restores from it,
//     which is exactly what the journal can now honestly promise.
//
// Any IO failure re-arms the cooldown and keeps the pause: a resume
// must be all-or-nothing, half an anchor is worse than none.
func (s *Server) tryResumeJournal(h *hosted) bool {
	if time.Since(time.Unix(0, h.pausedAt.Load())) < s.cfg.JournalResumeDelay {
		return false
	}
	if s.diskLevelNow() >= govern.LevelCritical {
		return false
	}
	rearm := func(stage string, err error) bool {
		h.pausedAt.Store(time.Now().UnixNano())
		s.reg.Counter("server_journal_resume_failures").Inc()
		s.log.Warn("journal resume failed; staying nondurable",
			obs.Str("session", h.name), obs.Str("stage", stage), obs.Str("err", err.Error()))
		return false
	}
	missed := h.missedAppends.Load()
	if missed > 0 {
		for _, pipe := range h.sess.PipeNames() {
			base := fmt.Sprintf("%s.%s.lscp", h.name, pipe)
			path := filepath.Join(s.cfg.StateDir, base)
			err := govern.Retry(3, 10*time.Millisecond, nil, func() error {
				return h.sess.SaveCheckpoint(pipe, path)
			})
			if err != nil {
				return rearm("checkpoint "+pipe, err)
			}
			cycle, histLen, ok := h.sess.PipeStatus(pipe)
			if !ok {
				continue
			}
			anchor := &wal.Record{
				Type: wal.TypeReanchor, Pipe: pipe, Path: base,
				Cycle: cycle, HistoryLen: histLen,
				Version: h.sess.Version(),
				History: h.sess.HistorySteps(pipe),
			}
			if err := h.wal.Append(anchor); err != nil {
				return rearm("anchor "+pipe, err)
			}
		}
		if err := h.wal.Sync(); err != nil {
			return rearm("sync", err)
		}
	}
	h.missedAppends.Store(0)
	h.mutations = 0
	h.journalPaused.Store(false)
	s.updateNondurableGauge()
	s.reg.Counter("server_journal_resumes").Inc()
	msg := "durable again (no mutations missed)"
	if missed > 0 {
		// The anchor closes over the missed mutations plus the one that
		// triggered this resume (already applied, included in the anchor).
		msg = fmt.Sprintf("durable again (%d mutation(s) closed over by reanchor)", missed+1)
	}
	s.event("journal_resumed", h.name, msg)
	return true
}

// saveWatermark checkpoints every pipe into the state dir and journals
// a mark record per pipe, then forces the journal to disk. After this,
// restart recovery of a pure run/poke stream loads the checkpoints and
// skips re-executing everything they cover.
func (s *Server) saveWatermark(h *hosted) {
	if h.wal == nil {
		return
	}
	for _, pipe := range h.sess.PipeNames() {
		base := fmt.Sprintf("%s.%s.lscp", h.name, pipe)
		path := filepath.Join(s.cfg.StateDir, base)
		if err := s.saveCheckpointRetry(h, pipe, path); err != nil {
			s.log.Error("watermark save failed",
				obs.Str("session", h.name), obs.Str("pipe", pipe), obs.Str("err", err.Error()))
			continue
		}
		cycle, histLen, ok := h.sess.PipeStatus(pipe)
		if !ok {
			continue
		}
		mark := &wal.Record{Type: wal.TypeMark, Pipe: pipe, Path: base, Cycle: cycle, HistoryLen: histLen}
		if err := h.wal.Append(mark); err != nil {
			s.log.Error("watermark mark append failed",
				obs.Str("session", h.name), obs.Str("pipe", pipe), obs.Str("err", err.Error()))
		}
	}
	if err := h.wal.Sync(); err != nil {
		s.log.Error("watermark sync failed",
			obs.Str("session", h.name), obs.Str("err", err.Error()))
		return
	}
	s.noteMark(h)
}

// saveCheckpointRetry is checkpoint-save IO with bounded jittered
// retry-with-backoff (the shared govern.Retry loop); only an exhausted
// retry budget feeds the session's quarantine breaker.
func (s *Server) saveCheckpointRetry(h *hosted, pipe, path string) error {
	err := govern.Retry(3, 10*time.Millisecond, nil, func() error {
		if serr := h.sess.SaveCheckpoint(pipe, path); serr != nil {
			s.reg.Counter("server_checkpoint_save_retries").Inc()
			return serr
		}
		return nil
	})
	if err != nil {
		s.noteFailure(h, fmt.Sprintf("checkpoint save %s: %v", pipe, err))
	}
	return err
}
