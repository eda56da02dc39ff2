package server

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"livesim/internal/catalogue"
	"livesim/internal/command"
	"livesim/internal/core"
	"livesim/internal/govern"
	"livesim/internal/liveparser"
	"livesim/internal/obs"
	"livesim/internal/wal"
	"livesim/internal/wire"
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
		Metrics:   s.reg,
	}
}

func (s *Server) walPath(name string) string {
	return filepath.Join(s.cfg.StateDir, name+".wal")
}

// removeSessionState deletes a session's journal, sidecar and watermark
// checkpoint files (create-over-stale, a failed import, the close verb).
func (s *Server) removeSessionState(name string) {
	if s.cfg.StateDir == "" {
		return
	}
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
		h, _, err := s.reserve(name, viaRecover)
		if err != nil {
			continue
		}
		go func() {
			defer s.recoveryWG.Done()
			t0 := time.Now()
			rep, err := s.recoverSession(h, nil)
			switch {
			case err == nil:
				s.reg.Histogram("server_recover_seconds", nil).Observe(time.Since(t0).Seconds())
				s.tel.Event("recovery", name, "",
					fmt.Sprintf("recovered in %v (%d records: %d replayed, %d skipped via %d checkpoints, fast=%v)",
						time.Since(t0).Round(time.Millisecond), rep.Records, rep.Executed, rep.Skipped,
						rep.Checkpoints, rep.FastPath))
			case !errors.Is(err, ErrDraining):
				// Deterministic replay failure: keep booting.
				s.failJournal(name, err)
			}
		}()
	}
	return nil
}

// WaitRecovered blocks until every recovery started by Recover — and any
// import replaying a seed — has finished (successfully or not). Call it
// before Serve, as Recover.
func (s *Server) WaitRecovered() { s.recoveryWG.Wait() }

// recoverSession is the one recovery routine, run by Recover on the
// files a previous process left and by import on the files land writes
// from a seed: open the journal, check its boot record, replay it, adopt
// the follower sidecar, start. A failure abandons the placeholder.
// ErrDraining means a stop began first: the caller leaves the state dir
// as it is, so the next boot recovers the session again.
func (s *Server) recoverSession(h *hosted, land func() error) (*core.ReplayReport, error) {
	sess, rep, err := s.rebuild(h, land)
	if err == nil && s.launch(h, sess, rep) {
		return rep, nil
	}
	if s.abandon(h) {
		return nil, ErrDraining
	}
	return nil, err
}

// rebuild is recoverSession up to the start: the built session and what
// its replay did.
func (s *Server) rebuild(h *hosted, land func() error) (*core.Session, *core.ReplayReport, error) {
	if land != nil {
		if err := land(); err != nil {
			return nil, nil, err
		}
	}
	w, recs, err := wal.Open(s.walPath(h.name), s.walOpts())
	if err != nil {
		return nil, nil, err
	}
	h.wal = w
	sess, rep, err := s.replayRecords(h, recs)
	if err != nil {
		return nil, nil, err
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
	return sess, rep, nil
}

// replayRecords rebuilds a session from its journal records: re-boot
// from the boot record, replay via the checkpoint fast path, fall back
// to full re-execution if the fast path diverges.
func (s *Server) replayRecords(h *hosted, recs []*wal.Record) (*core.Session, *core.ReplayReport, error) {
	if len(recs) == 0 || recs[0].Type != wal.TypeBoot {
		return nil, nil, fmt.Errorf("journal has no boot record")
	}
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
	sess, err := s.bootFromRecord(h, recs[0])
	if err != nil {
		return nil, nil, fmt.Errorf("re-boot: %w", err)
	}
	exec := func(rec *wal.Record) error { return execRecord(sess, h.reg, rec) }
	rep, err := sess.ReplayFrom(s.cfg.StateDir, recs, exec)
	if err != nil && rep != nil && rep.FastPath {
		// The checkpoint fast path diverged (e.g. a stale watermark file):
		// re-boot and re-execute everything — slower, always faithful.
		s.tel.Event("wal_fallback", h.name, "",
			fmt.Sprintf("checkpoint fast path failed (%v); replaying in full", err))
		if sess, err = s.bootFromRecord(h, recs[0]); err == nil {
			rep, err = sess.ReplayFull(s.cfg.StateDir, recs, exec)
		}
	}
	if err != nil {
		return nil, nil, err
	}
	return sess, rep, nil
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
func execRecord(sess *core.Session, reg *obs.Registry, rec *wal.Record) error {
	env := &command.Env{Session: sess, Metrics: reg, Out: io.Discard}
	if rec.Files != nil {
		files := rec.Files
		env.ApplySource = func() (liveparser.Source, error) {
			return liveparser.Source{Files: files}, nil
		}
	}
	return command.Dispatch(env, rec.Verb, rec.Args)
}

// journalMutation appends one applied mutation to the session's journal
// before it is acked. Run-style verbs also record the cycle the pipe
// ended on, so replay is verified — and the checkpoint fast path can
// reconstruct the run journal — from actual, not requested, cycles. An
// append that still fails after the bounded retries is the caller's to
// undo and refuse (see rewind).
func (s *Server) journalMutation(h *hosted, t *task) error {
	req := t.Req
	if h.wal == nil {
		return nil
	}
	sess := h.sess.Load()
	rec := &wal.Record{
		Type:    wal.TypeCmd,
		Verb:    strings.ToLower(req.Verb),
		Args:    req.Args,
		Files:   req.Files,
		Version: sess.Version(),
	}
	if v, ok := catalogue.Lookup(rec.Verb); ok && v.Pipe == catalogue.PipeAfterTB {
		if cycle, _, ok := sess.PipeStatus(v.PipeOf(req.Args)); ok {
			rec.Cycle = cycle
		}
	}
	err := govern.Retry(3, 5*time.Millisecond, nil, func() error {
		return h.wal.Append(rec)
	})
	if err != nil {
		s.tel.Event("wal_append_failure", h.name, "", err.Error())
		return err
	}
	h.mutations++
	every := s.cfg.JournalCheckpointEvery * int(s.ckptFactor.Load())
	if s.cfg.JournalCheckpointEvery > 0 && h.mutations >= every {
		s.watermark(h)
	}
	// Ship-on-commit: the standby must hold this record before the client
	// sees OK, so a primary lost the instant after responding loses no
	// acked mutation. (The crash matrix's SIGKILL fires inside
	// Append, BEFORE this ship — a kill there loses only unacked work.)
	s.shipTail(h, t)
	return nil
}

// rewind undoes a mutation its journal refused: the worker rebuilds the
// session in place from the journal, through the replay a restart runs,
// so the session holds exactly its acked history again. A journal that
// cannot be replayed is set aside as <name>.wal.failed, as boot recovery
// does, and the session goes with it. Worker goroutine only.
func (s *Server) rewind(h *hosted, cause error) {
	h.sess.Load().WaitBackground()
	recs, err := h.wal.Records()
	var sess *core.Session
	if err == nil {
		sess, _, err = s.replayRecords(h, recs)
	}
	h.out.Drain() // the undone mutation's $display text, and the replay's
	if err != nil {
		s.setAside(h, err)
		return
	}
	h.sess.Store(sess)
	s.noteMark(h)
	s.updateMemUsage(h)
	s.tel.Event("recovery", h.name, "",
		fmt.Sprintf("rebuilt from its journal (%d records) after a refused append: %v", len(recs), cause))
}

// setAside takes a session whose journal cannot be replayed out of
// service from its own worker: the name leaves the table, what queued
// behind the failed request is refused, and the journal is renamed
// <name>.wal.failed. A stop already under way finds the session clean,
// so it does not watermark state its journal never held. Worker
// goroutine only.
func (s *Server) setAside(h *hosted, cause error) {
	s.unlink(h.name, func(x *hosted) bool { return x == h })
	h.dirty.Store(false)
	h.queue.close()
	for t, ok := h.queue.take(); ok; t, ok = h.queue.take() {
		s.answer(t, wire.Refuse(t.Req, wire.CodeNoSession, fmt.Errorf("session %q set aside: %v", h.name, cause)))
	}
	stopShipper(h)
	h.wal.Close()
	s.failJournal(h.name, cause)
}

// failJournal sets an unreplayable journal aside as <name>.wal.failed, so
// no later boot retries it forever, and records why.
func (s *Server) failJournal(name string, cause error) {
	path := s.walPath(name)
	if err := os.Rename(path, path+".failed"); err != nil {
		s.log.Error("recovery set-aside failed", obs.Str("session", name), obs.Str("err", err.Error()))
	}
	s.tel.Event("recovery_failed", name, "",
		fmt.Sprintf("%v (journal set aside as %s.failed)", cause, filepath.Base(path)))
}

// saveCheckpointRetry is checkpoint-save IO with bounded jittered
// retry-with-backoff (the shared govern.Retry loop); only an exhausted
// retry budget feeds the session's quarantine breaker.
func (s *Server) saveCheckpointRetry(h *hosted, pipe, path string) error {
	err := govern.Retry(3, 10*time.Millisecond, nil, func() error {
		if serr := h.sess.Load().SaveCheckpoint(pipe, path); serr != nil {
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
