package core

import (
	"fmt"

	"livesim/internal/liveparser"
	"livesim/internal/livecompiler"
	"livesim/internal/obs"
	"livesim/internal/sim"
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

// pipeSnapshot captures everything ApplyChange may mutate in one pipe.
type pipeSnapshot struct {
	p              *Pipe
	state          *sim.State
	stats          vm.Stats
	tbs            map[string][]byte
	version        string
	history        []RunOp
	lastCheckpoint uint64
	// cpMark is the checkpoint store watermark; checkpoints taken during
	// a failed re-execution are dropped back to it.
	cpMark int
}

// snapshotPipe captures a pipe's pre-change state. Testbench Snapshot is
// user code, so it runs under panic recovery — a panic fails the prepare
// phase before anything live has been touched.
func (s *Session) snapshotPipe(p *Pipe) (*pipeSnapshot, error) {
	snap := &pipeSnapshot{
		p:              p,
		state:          p.Sim.Snapshot(),
		stats:          p.Sim.Stats,
		tbs:            make(map[string][]byte, len(p.tbs)),
		version:        p.Version,
		history:        append([]RunOp(nil), p.History...),
		lastCheckpoint: p.lastCheckpoint,
		cpMark:         p.Checkpoints.Mark(),
	}
	for h, tb := range p.tbs {
		data, err := s.safeSnapshot(tb)
		if err != nil {
			return nil, fmt.Errorf("pipe %s: testbench %s: %w", p.Name, h, err)
		}
		snap.tbs[h] = data
	}
	return snap, nil
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
	var opts []sim.Option
	if s.cfg.Output != nil {
		opts = append(opts, sim.WithOutput(s.cfg.Output))
	}
	opts = append(opts, sim.WithMetrics(s.metrics))
	s.mu.Lock()
	resolver := s.resolverLocked()
	s.mu.Unlock()
	sm, err := sim.New(resolver, snap.p.TopKey, opts...)
	if err != nil {
		return err
	}
	if err := sm.Restore(snap.state); err != nil {
		return err
	}
	sm.Stats = snap.stats

	s.mu.Lock()
	factories := make(map[string]TestbenchFactory, len(snap.tbs))
	for h := range snap.tbs {
		factories[h] = s.tbFactory[h]
	}
	s.mu.Unlock()

	tbs := make(map[string]Testbench, len(snap.tbs))
	var tbErr error
	for h, data := range snap.tbs {
		f := factories[h]
		if f == nil {
			tbErr = fmt.Errorf("testbench %q not registered", h)
			continue
		}
		tb := f()
		if err := s.safeRestore(tb, data); err != nil && tbErr == nil {
			tbErr = fmt.Errorf("testbench %s: %w", h, err)
		}
		tbs[h] = tb
	}

	p := snap.p
	s.mu.Lock()
	// The rebuild replaced the kernel, so a recording profiler must be
	// re-attached (Bind carries the accumulated heat over by path).
	if p.profiler != nil && p.Sim.Profiler() != nil {
		sm.SetProfiler(p.profiler)
	}
	p.Sim = sm
	p.Version = snap.version
	p.History = snap.history
	p.tbs = tbs
	p.lastCheckpoint = snap.lastCheckpoint
	s.mu.Unlock()
	p.Checkpoints.DropSince(snap.cpMark)
	return tbErr
}
