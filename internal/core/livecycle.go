package core

import (
	"errors"
	"fmt"
	"time"

	"livesim/internal/checkpoint"
	"livesim/internal/livecompiler"
	"livesim/internal/liveparser"
	"livesim/internal/obs"
	"livesim/internal/sim"
	"livesim/internal/verify"
	"livesim/internal/vm"
	"livesim/internal/xform"
)

// ErrRolledBack marks errors from changes that failed mid-commit and
// were rolled back to the pre-change state. Callers classify with
// errors.Is(err, ErrRolledBack); the server's quarantine breaker counts
// these as session failures.
var ErrRolledBack = errors.New("change rolled back")

// rolledBackError tags an abort-path error with ErrRolledBack without
// altering its message or its unwrap chain — existing callers match the
// underlying cause (e.g. faultinject.ErrInjected) through it unchanged.
type rolledBackError struct{ cause error }

func (e *rolledBackError) Error() string            { return e.cause.Error() }
func (e *rolledBackError) Unwrap() error            { return e.cause }
func (e *rolledBackError) Is(target error) bool     { return target == ErrRolledBack }

// ChangeReport describes one trip around the live ERD loop — the latency
// budget of Figure 8.
type ChangeReport struct {
	// NewVersion is the design version created ("" when nothing changed).
	NewVersion string
	// Diff summarizes what LiveParser found.
	Diff *liveparser.Diff
	// Swapped lists the object keys hot-reloaded into the pipes.
	Swapped []string
	// NoChange is set when the edit had no behavioural effect.
	NoChange bool
	// RolledBack is set when the change failed mid-commit and the session
	// was restored, bit-identical, to the pre-change version. NewVersion
	// then names the version that was attempted and discarded.
	RolledBack bool
	// FailedPipe names the pipe whose swap/reload/re-execution failed
	// ("" unless RolledBack).
	FailedPipe string

	// Timing breakdown of the loop. All four fields are derived from the
	// session's span tracer (the swap/reload/reexec spans and the
	// apply_change root span), so a JSONL trace and this report can
	// never disagree.
	CompileStats livecompiler.Stats
	SwapTime     time.Duration
	ReloadTime   time.Duration // checkpoint selection + transformed restore
	ReExecTime   time.Duration // re-run from checkpoint to the prior cycle
	Total        time.Duration

	// Verifications tracks the background consistency checks, one per
	// pipe (Figure 6).
	Verifications []*VerificationHandle
}

// WaitVerification blocks until every background check (and refinement)
// started by this change has finished.
func (r *ChangeReport) WaitVerification() {
	for _, h := range r.Verifications {
		h.Wait()
	}
}

// VerificationHandle tracks a background consistency verification.
type VerificationHandle struct {
	done chan struct{}

	// Result and Err are valid after Wait returns.
	Result *verify.Result
	Err    error
	// Refined is set when a divergence forced the session to recompute
	// the pipe state from an earlier point.
	Refined bool
}

// Wait blocks until verification (and any refinement) finished.
func (h *VerificationHandle) Wait() {
	if h != nil {
		<-h.done
	}
}

// ApplyChange runs the whole live loop for an edited source snapshot:
// incremental parse and compile, hot reload of every changed object in
// every pipe, checkpoint-based fast re-execution to each pipe's previous
// cycle, and a background parallel verification of the surviving
// checkpoints. The returned report carries the timing breakdown.
//
// The call is transactional. A prepare phase compiles the edit, checks
// every pipe's preconditions and snapshots every pipe before anything
// live is touched; the commit phase then swaps pipe by pipe. Any commit
// failure — a reload error, a testbench panic during re-execution, an
// injected fault — rolls every pipe, the version table and the compiler's
// diff baseline back to the pre-change state bit-for-bit, so the session
// keeps running on the old version and a corrected edit can follow. The
// report is returned alongside the error in that case, with RolledBack
// and FailedPipe set.
func (s *Session) ApplyChange(newSrc liveparser.Source) (*ChangeReport, error) {
	// Serialize with any in-flight background verification/refinement.
	s.verifyWG.Wait()

	rep := &ChangeReport{}
	root := s.tracer.Start("apply_change")
	defer func() {
		root.End()
		rep.Total = root.Dur()
	}()
	// Exactly one of changes_applied / changes_nochange / changes_failed
	// counts each call, so the three always sum to total invocations
	// (rolled-back changes count as failed; changes_rolled_back tracks
	// the subset that needed state restoration).
	fail := func(err error) error {
		s.metrics.Counter("changes_failed").Inc()
		s.noteHealthLocked(func(h *healthState) { h.changesFailed++ })
		return err
	}

	// ---- Prepare phase: nothing live is touched until it cannot fail ----

	s.mu.Lock()
	preCompiler := s.compiler.State()
	compileSpan := root.Child("compile")
	build, err := s.compiler.BuildSpan(newSrc, compileSpan)
	compileSpan.End()
	if err != nil {
		// A failed build must not shift the diff baseline: the next edit
		// still diffs against the code actually running in the pipes.
		s.compiler.Rollback(preCompiler)
		s.mu.Unlock()
		return nil, fail(err)
	}
	rep.Diff = build.Diff
	rep.CompileStats = build.Stats
	rep.Swapped = build.Swapped

	if len(build.Swapped) == 0 && len(build.Removed) == 0 {
		s.source = newSrc
		rep.NoChange = true
		root.Annotate(obs.Bool("no_change", true))
		s.metrics.Counter("changes_nochange").Inc()
		s.mu.Unlock()
		return rep, nil
	}

	// Precondition: hot reload cannot express a change of the top-level
	// specialization's identity (e.g. a parameter default edit). Checked
	// for every pipe before any pipe is mutated.
	for _, name := range s.pipeOrder {
		if p := s.pipes[name]; p.TopKey != build.TopKey {
			s.compiler.Rollback(preCompiler)
			s.mu.Unlock()
			return nil, fail(fmt.Errorf("pipe %s: top-level specialization changed (%s -> %s); re-instantiate the pipe",
				p.Name, p.TopKey, build.TopKey))
		}
	}

	oldVersion := s.version
	oldObjects := s.objects
	txn := &changeTxn{
		oldVersion:  oldVersion,
		oldObjects:  oldObjects,
		oldTopKey:   s.topKey,
		oldSource:   s.source,
		preCompiler: preCompiler,
	}

	// Snapshot every pipe — simulation state, testbenches, journal and
	// checkpoint watermark — while still untouched.
	snapSpan := root.Child("snapshot")
	for _, name := range s.pipeOrder {
		snap, err := s.snapshotPipe(s.pipes[name])
		if err != nil {
			snapSpan.End()
			s.compiler.Rollback(preCompiler)
			s.mu.Unlock()
			return nil, fail(err)
		}
		txn.snaps = append(txn.snaps, snap)
	}
	snapSpan.End()

	// New design version: infer per-object transform ops (best guess,
	// Section III-E) for every swapped object that has a predecessor.
	s.versionSeq++
	newVersion := fmt.Sprintf("v%d", s.versionSeq)
	ops := make(map[string][]xform.Op)
	for _, key := range build.Swapped {
		if oldObj, ok := oldObjects[key]; ok {
			if guessed := xform.BestGuess(oldObj, build.Objects[key]); len(guessed) > 0 {
				ops[key] = guessed
			}
		}
	}
	if err := s.versions.Add(newVersion, oldVersion, ops); err != nil {
		s.versionSeq--
		s.compiler.Rollback(preCompiler)
		s.mu.Unlock()
		return nil, fail(err)
	}
	txn.newVersion = newVersion
	s.version = newVersion
	s.versionObjects[newVersion] = build.Objects
	s.objects = build.Objects
	s.topKey = build.TopKey
	s.source = newSrc
	rep.NewVersion = newVersion
	root.Annotate(obs.Str("version", newVersion), obs.U64("swapped", uint64(len(build.Swapped))))

	pipes := make([]*Pipe, 0, len(s.pipes))
	for _, name := range s.pipeOrder {
		pipes = append(pipes, s.pipes[name])
	}
	s.mu.Unlock()

	// ---- Commit phase: swap pipe by pipe, roll everything back on any
	// failure. Verifications start only after every pipe has committed, so
	// no background goroutine ever observes (or replays over) a state that
	// rollback is about to discard.

	abort := func(p *Pipe, err error) (*ChangeReport, error) {
		s.rollback(txn, p.Name, err, root)
		rep.RolledBack = true
		rep.FailedPipe = p.Name
		return rep, fail(&rolledBackError{err})
	}

	type pendingVerify struct {
		p      *Pipe
		target uint64
	}
	var pending []pendingVerify

	for _, p := range pipes {
		target := p.Sim.Cycle()
		pipeAttrs := []obs.Attr{obs.Str("pipe", p.Name), obs.U64("cycle", target), obs.Str("version", newVersion)}

		sp := root.Child("swap", pipeAttrs...)
		for _, key := range build.Swapped {
			mig := sim.MigrateFunc(nil)
			if o := ops[key]; o != nil {
				mig = xform.Migrator(o)
			}
			if err := s.cfg.Faults.ReloadFault(key); err != nil {
				sp.End()
				return abort(p, fmt.Errorf("pipe %s: reload %s: %w", p.Name, key, err))
			}
			if _, err := p.Sim.Reload(key, mig); err != nil {
				sp.End()
				return abort(p, fmt.Errorf("pipe %s: reload %s: %w", p.Name, key, err))
			}
		}
		sp.End()
		rep.SwapTime += sp.Dur()

		sp = root.Child("reload", pipeAttrs...)
		cp := p.Checkpoints.Select(target, s.cfg.Lookback)
		if cp != nil {
			sp.Annotate(obs.U64("from_cycle", cp.Cycle))
		}
		if err := s.restoreFromCheckpoint(p, cp); err != nil {
			sp.End()
			return abort(p, fmt.Errorf("pipe %s: %w", p.Name, err))
		}
		sp.End()
		rep.ReloadTime += sp.Dur()

		sp = root.Child("reexec", pipeAttrs...)
		if err := s.replayTo(p, target, s.newRunToken()); err != nil {
			sp.End()
			return abort(p, fmt.Errorf("pipe %s: replay: %w", p.Name, err))
		}
		sp.End()
		rep.ReExecTime += sp.Dur()
		// Under s.mu: an earlier pipe's background verification may be
		// reading every pipe's Version through PruneVersions already.
		s.mu.Lock()
		p.Version = newVersion
		s.mu.Unlock()
		pending = append(pending, pendingVerify{p, target})
	}

	// Every pipe committed: the change is durable. Start the background
	// consistency verifications (Sections III-D, III-F).
	for _, pv := range pending {
		vsp := root.Child("verify",
			obs.Str("pipe", pv.p.Name), obs.U64("cycle", pv.target), obs.Str("version", newVersion))
		rep.Verifications = append(rep.Verifications, s.startVerification(pv.p, oldVersion, pv.target, vsp))
	}

	s.metrics.Counter("objects_swapped").Add(uint64(len(build.Swapped)))
	s.metrics.Counter("changes_applied").Inc()
	s.noteHealthLocked(func(h *healthState) { h.changesApplied++ })
	return rep, nil
}

// restoreFromCheckpoint loads cp (possibly from an older design version)
// into the pipe; nil cp resets to the power-on state.
func (s *Session) restoreFromCheckpoint(p *Pipe, cp *checkpoint.Checkpoint) error {
	if cp == nil {
		for _, n := range p.Sim.Nodes() {
			n.Inst.ZeroState()
		}
		p.Sim.SetCycle(0)
		for h := range p.tbs {
			p.tbs[h] = s.tbFactory[h]()
		}
		return nil
	}
	if err := s.restoreStateAdapted(p.Sim, cp); err != nil {
		return err
	}
	for h, tb := range p.tbs {
		if data, ok := cp.Aux[h]; ok {
			if err := s.safeRestore(tb, data); err != nil {
				return fmt.Errorf("testbench %s: %w", h, err)
			}
		} else {
			p.tbs[h] = s.tbFactory[h]()
		}
	}
	return nil
}

// restoreStateAdapted restores cp.State into sm, transforming node states
// recorded under older object versions through the version graph.
func (s *Session) restoreStateAdapted(sm *sim.Sim, cp *checkpoint.Checkpoint) error {
	s.mu.Lock()
	fromObjects := s.versionObjects[cp.Version]
	curVersion := s.version
	graph := s.versions
	s.mu.Unlock()
	if fromObjects == nil {
		return fmt.Errorf("no retained objects for version %s", cp.Version)
	}

	return sm.RestoreAdapted(cp.State, func(n *sim.Node, ns *sim.NodeState) error {
		// Fast path: state recorded under the identical object.
		if ns.ObjKey == n.Obj.Key && len(ns.Slots) == len(n.Inst.Slots) && len(ns.Mems) == len(n.Inst.Mems) {
			if fromObjects[ns.ObjKey] == n.Obj {
				copy(n.Inst.Slots, ns.Slots)
				for mi, m := range ns.Mems {
					m.CopyTo(n.Inst.Mems[mi])
				}
				return nil
			}
		}
		// Transform path: registers by name through the version graph's
		// ops (Table V rules), memories and input ports by name.
		oldObj := fromObjects[ns.ObjKey]
		if oldObj == nil {
			n.Inst.ZeroState()
			return nil
		}
		ops, err := graph.PathOps(n.Obj.Key, cp.Version, curVersion)
		if err != nil {
			// Keys can change across versions (parameter edits); fall back
			// to pure name matching.
			ops = nil
		}
		n.Inst.ZeroState()
		vals := applyOpsToRegs(oldObj, ns.Slots, ops)
		for _, r := range n.Obj.Regs {
			if v, ok := vals[r.Name]; ok {
				n.Inst.Slots[r.Cur] = v & r.Mask
			}
		}
		for _, m := range n.Obj.Mems {
			om := oldObj.MemByName(m.Name)
			if om == nil || int(om.Index) >= len(ns.Mems) {
				continue
			}
			dst, src := n.Inst.Mems[m.Index], ns.Mems[om.Index]
			src.CopyTo(dst)
			for i := range min(len(dst), src.Len()) {
				dst[i] &= m.Mask
			}
		}
		for _, pt := range n.Obj.Ports {
			if pt.Dir != vm.In {
				continue
			}
			if oi := oldObj.PortIndex(pt.Name); oi >= 0 && int(oldObj.Ports[oi].Slot) < len(ns.Slots) {
				n.Inst.Slots[pt.Slot] = ns.Slots[oldObj.Ports[oi].Slot] & pt.Mask
			}
		}
		return nil
	})
}

// replayTo re-applies the journaled history from the pipe's current cycle
// up to target, taking new checkpoints along the way. The token bounds
// the whole replay leg (nil = unbudgeted).
func (s *Session) replayTo(p *Pipe, target uint64, tok *runToken) error {
	for p.Sim.Cycle() < target && !p.Sim.Finished() {
		cur := p.Sim.Cycle()
		op := activeOp(p.History, cur)
		if op == nil {
			return fmt.Errorf("no journaled operation covers cycle %d", cur)
		}
		opEnd := op.StartCycle + uint64(op.Cycles)
		runTo := opEnd
		if target < runTo {
			runTo = target
		}
		tb, ok := p.tbs[op.TB]
		if !ok {
			tb = s.tbFactory[op.TB]()
			p.tbs[op.TB] = tb
		}
		if err := s.runChunked(p, tb, int(runTo-cur), tok); err != nil {
			return err
		}
		if p.Sim.Cycle() <= cur {
			return fmt.Errorf("replay made no progress at cycle %d", cur)
		}
	}
	return nil
}

// activeOp finds the history operation covering a cycle.
func activeOp(history []RunOp, cycle uint64) *RunOp {
	for i := range history {
		op := &history[i]
		if cycle >= op.StartCycle && cycle < op.StartCycle+uint64(op.Cycles) {
			return op
		}
	}
	return nil
}

// startVerification launches the parallel checkpoint consistency check
// for one pipe and returns its handle. On divergence the pipe's estimate
// is refined: stale checkpoints are dropped and the state is recomputed
// from the last consistent point.
func (s *Session) startVerification(p *Pipe, oldVersion string, target uint64, span *obs.Span) *VerificationHandle {
	h := &VerificationHandle{done: make(chan struct{})}
	s.metrics.Counter("verify_runs").Inc()

	var oldCps []*checkpoint.Checkpoint
	for _, cp := range p.Checkpoints.Before(target) {
		if cp.Version == oldVersion {
			oldCps = append(oldCps, cp)
		}
	}
	if len(oldCps) < 2 {
		close(h.done)
		h.Result = &verify.Result{FirstDivergence: -1}
		s.metrics.Counter("verify_consistent").Inc()
		span.Annotate(obs.Bool("consistent", true), obs.U64("segments", 0))
		span.End()
		return h
	}

	s.verifyWG.Add(1)
	go func() {
		defer s.verifyWG.Done()
		defer close(h.done)
		defer func() {
			// Verification errors were previously only visible to callers
			// holding the handle; route them into Health()/verify_errors.
			s.noteVerifyError(h.Err)
			if h.Result != nil {
				span.Annotate(obs.Bool("consistent", h.Result.Consistent()),
					obs.U64("segments", uint64(len(h.Result.Segments))),
					obs.Bool("refined", h.Refined))
			}
			span.End()
		}()

		replay := func(from *checkpoint.Checkpoint, toCycle uint64) (*sim.State, error) {
			return s.verifyReplay(p, from, toCycle)
		}
		compare := func(replayed *sim.State, recorded *checkpoint.Checkpoint) (bool, string) {
			return s.compareToRecorded(replayed, recorded)
		}
		res, err := verify.Run(oldCps, replay, verify.Options{
			Workers: s.cfg.VerifyWorkers,
			Compare: compare,
		})
		h.Result, h.Err = res, err
		if err != nil || res.Consistent() {
			if err == nil {
				s.metrics.Counter("verify_consistent").Inc()
			}
			s.PruneVersions()
			return
		}
		s.metrics.Counter("verify_divergent").Inc()
		// Divergence: drop unreachable checkpoints and refine the live
		// estimate from the last consistent point (Section III-D: "if so,
		// update the final results as necessary").
		divergeCycle := oldCps[res.FirstDivergence+1].Cycle
		p.Checkpoints.DropVersionAfter(oldVersion, divergeCycle)

		cp := p.Checkpoints.Select(divergeCycle-1, 0)
		if err := s.restoreFromCheckpoint(p, cp); err != nil {
			h.Err = err
			return
		}
		if err := s.replayTo(p, target, s.newRunToken()); err != nil {
			h.Err = err
			return
		}
		h.Refined = true
		s.metrics.Counter("verify_refined").Inc()
		s.PruneVersions()
	}()
	return h
}

// verifyReplay re-executes one checkpoint segment on a private simulation.
func (s *Session) verifyReplay(p *Pipe, from *checkpoint.Checkpoint, toCycle uint64) (*sim.State, error) {
	s.mu.Lock()
	resolver := s.resolverLocked()
	topKey := s.topKey
	history := append([]RunOp(nil), p.History...)
	factories := make(map[string]TestbenchFactory, len(s.tbFactory))
	for k, v := range s.tbFactory {
		factories[k] = v
	}
	s.mu.Unlock()

	sm, err := sim.New(resolver, topKey)
	if err != nil {
		return nil, err
	}
	if err := s.restoreStateAdapted(sm, from); err != nil {
		return nil, err
	}
	tbs := make(map[string]Testbench)
	for h, data := range from.Aux {
		f, ok := factories[h]
		if !ok {
			return nil, fmt.Errorf("testbench %q not registered", h)
		}
		tb := f()
		if err := s.safeRestore(tb, data); err != nil {
			return nil, err
		}
		tbs[h] = tb
	}
	d := &Driver{s: sm}
	for sm.Cycle() < toCycle && !sm.Finished() {
		cur := sm.Cycle()
		op := activeOp(history, cur)
		if op == nil {
			return nil, fmt.Errorf("no journaled operation covers cycle %d", cur)
		}
		runTo := op.StartCycle + uint64(op.Cycles)
		if toCycle < runTo {
			runTo = toCycle
		}
		tb, ok := tbs[op.TB]
		if !ok {
			tb = factories[op.TB]()
			tbs[op.TB] = tb
		}
		if err := s.safeRun(tb, d, int(runTo-cur)); err != nil {
			return nil, err
		}
		if sm.Cycle() <= cur {
			return nil, fmt.Errorf("verification replay made no progress at cycle %d", cur)
		}
	}
	if err := sm.Settle(); err != nil {
		return nil, err
	}
	return sm.Snapshot(), nil
}

// compareToRecorded checks a replayed (current-version) state against a
// recorded (possibly old-version) checkpoint: architectural registers are
// compared through the transform ops, memories by name. A replay shares
// the pages it did not change with the checkpoint it started from, and so
// often with the recorded one: those are skipped (sim.FirstDiff).
func (s *Session) compareToRecorded(replayed *sim.State, recorded *checkpoint.Checkpoint) (bool, string) {
	s.mu.Lock()
	fromObjects := s.versionObjects[recorded.Version]
	curObjects := s.objects
	curVersion := s.version
	graph := s.versions
	s.mu.Unlock()
	if fromObjects == nil {
		return false, "no retained objects for version " + recorded.Version
	}

	recByPath := make(map[string]*sim.NodeState, len(recorded.State.Nodes))
	for i := range recorded.State.Nodes {
		recByPath[recorded.State.Nodes[i].Path] = &recorded.State.Nodes[i]
	}
	for i := range replayed.Nodes {
		rn := &replayed.Nodes[i]
		rec := recByPath[rn.Path]
		if rec == nil {
			continue // instance new in this version: nothing to compare
		}
		newObj := curObjects[rn.ObjKey]
		oldObj := fromObjects[rec.ObjKey]
		if newObj == nil || oldObj == nil {
			continue
		}
		ops, err := graph.PathOps(rn.ObjKey, recorded.Version, curVersion)
		if err != nil {
			ops = nil
		}
		want := applyOpsToRegs(oldObj, rec.Slots, ops)
		for _, r := range newObj.Regs {
			wv, ok := want[r.Name]
			if !ok {
				continue // register new in this version: unconstrained
			}
			if int(r.Cur) >= len(rn.Slots) {
				return false, fmt.Sprintf("%s: reg %s slot out of range", rn.Path, r.Name)
			}
			if rn.Slots[r.Cur] != wv&r.Mask {
				return false, fmt.Sprintf("%s reg %s: replayed %#x, recorded %#x",
					rn.Path, r.Name, rn.Slots[r.Cur], wv&r.Mask)
			}
		}
		for _, m := range newObj.Mems {
			om := oldObj.MemByName(m.Name)
			if om == nil || int(om.Index) >= len(rec.Mems) || int(m.Index) >= len(rn.Mems) {
				continue
			}
			got, wantM := rn.Mems[m.Index], rec.Mems[om.Index]
			if j := sim.FirstDiff(got, wantM, m.Mask); j >= 0 {
				return false, fmt.Sprintf("%s mem %s[%d]: replayed %#x, recorded %#x",
					rn.Path, m.Name, j, got.At(j), wantM.At(j)&m.Mask)
			}
		}
	}
	return true, ""
}
