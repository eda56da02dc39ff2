package core

import (
	"fmt"

	"livesim/internal/checkpoint"
	"livesim/internal/livecompiler"
	"livesim/internal/liveparser"
	"livesim/internal/obs"
	"livesim/internal/vm"
)

// This file is the rollback half of the transactional live loop.
// ApplyChange runs in two phases: prepare (compile, validate every pipe's
// preconditions, snapshot every pipe, advance the version table) and
// commit (swap/reload/re-execute pipe by pipe). Any commit failure hands
// the changeTxn built during prepare to rollback, which restores the
// session — version table, compiler diff baseline, and every pipe's
// simulation state, testbenches, journal and checkpoints — to be
// bit-identical with the pre-change state, so the REPL keeps running on
// the old version and a corrected edit can follow.

// pipeSnapshot holds everything ApplyChange may mutate in one pipe: a
// capture, plus what a checkpoint does not carry.
type pipeSnapshot struct {
	p              *Pipe
	cp             *checkpoint.Checkpoint
	stats          vm.Stats
	lastCheckpoint uint64
	// runs is the pipe's run count. Neither a commit phase nor a
	// cancelled run rewrites the journal below the captured cycle, so
	// the journal is restored by a cut there, not from a copy.
	runs int
	// cpMark is the checkpoint store watermark; checkpoints taken during
	// a failed re-execution are dropped back to it.
	cpMark int
}

// snapshotPipe captures a pipe's pre-change state. A testbench panic
// fails the prepare phase before anything live has been touched. The
// caller holds s.mu.
func (s *Session) snapshotPipe(p *Pipe) (*pipeSnapshot, error) {
	cp, err := s.capture(p, s.version)
	if err != nil {
		return nil, err
	}
	return &pipeSnapshot{
		p:              p,
		cp:             cp,
		stats:          p.Sim.Stats,
		lastCheckpoint: p.lastCheckpoint,
		runs:           p.runs,
		cpMark:         p.Checkpoints.Mark(),
	}, nil
}

// changeTxn is the undo record for one ApplyChange.
type changeTxn struct {
	newVersion  string
	oldVersion  string
	oldObjects  map[string]*vm.Object
	oldTopKey   string
	oldSource   liveparser.Source
	preCompiler livecompiler.BuildState
	snaps       []*pipeSnapshot
}

// rollback restores the session and every snapshotted pipe to the
// pre-change state after a commit-phase failure. It must be called with
// s.mu released and no background verification in flight (the commit
// phase defers starting verifications until every pipe has committed).
func (s *Session) rollback(txn *changeTxn, failedPipe string, cause error, root *obs.Span) {
	sp := root.Child("rollback",
		obs.Str("failed_pipe", failedPipe),
		obs.Str("to_version", txn.oldVersion))
	defer sp.End()

	// Session tables first, so pipe rebuilds resolve old objects through
	// the session's own resolver paths.
	s.mu.Lock()
	s.version = txn.oldVersion
	s.objects = txn.oldObjects
	s.topKey = txn.oldTopKey
	s.source = txn.oldSource
	s.compiler.Rollback(txn.preCompiler)
	s.versionSeq--
	delete(s.versionObjects, txn.newVersion)
	if err := s.versions.Remove(txn.newVersion); err != nil {
		// The version was never given children (no later change committed),
		// so Remove cannot fail in practice; surface it for debugging.
		s.noteHealthLocked(func(h *healthState) {
			h.lastRollbackErr = fmt.Sprintf("version history: %v", err)
		})
	}
	s.mu.Unlock()

	for _, snap := range txn.snaps {
		if err := s.restorePipeSnapshot(snap); err != nil {
			// A snapshot restore can only fail if user testbench Restore
			// code fails on bytes its own Snapshot produced. Record it; the
			// pipe's RTL state is already back, only testbench state is
			// suspect.
			s.noteHealthLocked(func(h *healthState) {
				h.lastRollbackErr = fmt.Sprintf("pipe %s: %v", snap.p.Name, err)
			})
		}
	}

	s.metrics.Counter("changes_rolled_back").Inc()
	s.noteHealthLocked(func(h *healthState) {
		h.rolledBack++
		h.lastRollback = fmt.Sprintf("pipe %s: %v", failedPipe, cause)
	})
}

// restorePipeSnapshot rebuilds the pipe's simulation and restores the
// captured state bit-for-bit, then swaps the rebuilt simulation,
// testbenches, journal and checkpoint watermark into the pipe. The sim is
// built against the session's live resolver — rollback has already put
// the old object table back, and a later corrected ApplyChange must be
// able to hot-reload new objects into this rebuilt sim.
func (s *Session) restorePipeSnapshot(snap *pipeSnapshot) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	p := snap.p
	sm, err := s.newSim(s.resolverLocked(), p.TopKey)
	if err != nil {
		return err
	}
	if err := s.restoreStateLocked(sm, snap.cp); err != nil {
		return err
	}
	sm.Stats = snap.stats
	tbs, tbErr := s.testbenchesLocked(snap.cp.Aux, nil)
	// The rebuild replaced the kernel, so a recording profiler must be
	// re-attached (Bind carries the accumulated heat over by path).
	if p.profiler != nil && p.Sim.Profiler() != nil {
		sm.SetProfiler(p.profiler)
	}
	p.Sim = sm
	p.History = cutJournal(p.History, snap.cp.Cycle)
	p.runs = snap.runs
	p.tbs = tbs
	p.lastCheckpoint = snap.lastCheckpoint
	p.Checkpoints.DropSince(snap.cpMark)
	return tbErr
}
