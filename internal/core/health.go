package core

import "fmt"

// healthState holds the session-local robustness counters. They live
// outside the metrics registry so Health() works even when metrics are
// disabled, and outside s.mu so background verification goroutines can
// record errors without contending with the live loop.
type healthState struct {
	verifyErrors    uint64
	lastVerifyError string
	rolledBack      uint64
	lastRollback    string
	lastRollbackErr string
	tbPanics        uint64
	lastTBPanic     string
	changesApplied  uint64
	changesFailed   uint64
	watchdogCancels uint64
	lastWatchdog    string
}

// Health is a point-in-time summary of the session's robustness state —
// the answer to "is this REPL still trustworthy after that last edit?".
type Health struct {
	// ChangesApplied / ChangesFailed count ApplyChange outcomes.
	ChangesApplied uint64
	ChangesFailed  uint64
	// RolledBack counts changes that failed mid-commit and were rolled
	// back to the pre-change version; LastRollback describes the newest.
	RolledBack   uint64
	LastRollback string
	// RollbackDegraded is set when the newest rollback could not fully
	// restore testbench state (the RTL state is always restored).
	RollbackDegraded string
	// VerifyErrors counts background consistency verifications that ended
	// in an error (as opposed to a clean consistent/divergent verdict);
	// LastVerifyError describes the newest.
	VerifyErrors    uint64
	LastVerifyError string
	// TestbenchPanics counts panics recovered from user testbench code.
	TestbenchPanics uint64
	LastPanic       string
	// WatchdogCancels counts runs the hung-run watchdog deadline-cancelled
	// (each rolled the pipe back to its pre-run state); LastWatchdog
	// describes the newest.
	WatchdogCancels uint64
	LastWatchdog    string
	// ProfiledPipes counts pipes with the activity profiler currently
	// recording; ProfInstances the instances bound across all profilers
	// (recording or stopped); ProfQuiescentPct the percentage of
	// observed instance commits that changed no state, as `profile
	// report` computes it (prof.Totals.QuiescentFraction).
	ProfiledPipes    int
	ProfInstances    int
	ProfQuiescentPct float64
}

// Ok reports whether nothing has gone wrong since the session started.
func (h Health) Ok() bool {
	return h.ChangesFailed == 0 && h.VerifyErrors == 0 && h.TestbenchPanics == 0
}

// String renders the summary for the REPL's health command.
func (h Health) String() string {
	out := fmt.Sprintf("changes: %d applied, %d failed (%d rolled back)\nverify errors: %d\ntestbench panics: %d",
		h.ChangesApplied, h.ChangesFailed, h.RolledBack, h.VerifyErrors, h.TestbenchPanics)
	if h.LastRollback != "" {
		out += "\nlast rollback: " + h.LastRollback
	}
	if h.RollbackDegraded != "" {
		out += "\nrollback degraded: " + h.RollbackDegraded
	}
	if h.LastVerifyError != "" {
		out += "\nlast verify error: " + h.LastVerifyError
	}
	if h.LastPanic != "" {
		out += "\nlast panic: " + h.LastPanic
	}
	if h.WatchdogCancels > 0 {
		out += fmt.Sprintf("\nwatchdog cancels: %d (last: %s)", h.WatchdogCancels, h.LastWatchdog)
	}
	if h.ProfInstances > 0 {
		out += fmt.Sprintf("\nprofiler: %d pipes recording, %d instances, %.1f%% quiescent evals",
			h.ProfiledPipes, h.ProfInstances, h.ProfQuiescentPct)
	}
	if h.Ok() {
		out += "\nstatus: ok"
	}
	return out
}

// Health returns the current robustness summary.
func (s *Session) Health() Health {
	// The profile summary takes s.mu; gather it before healthMu so the
	// two locks are never nested.
	pp, pi, pq := s.profileSummary()
	s.healthMu.Lock()
	defer s.healthMu.Unlock()
	return Health{
		ProfiledPipes:    pp,
		ProfInstances:    pi,
		ProfQuiescentPct: pq,
		ChangesApplied:   s.health.changesApplied,
		ChangesFailed:    s.health.changesFailed,
		RolledBack:       s.health.rolledBack,
		LastRollback:     s.health.lastRollback,
		RollbackDegraded: s.health.lastRollbackErr,
		VerifyErrors:     s.health.verifyErrors,
		LastVerifyError:  s.health.lastVerifyError,
		TestbenchPanics:  s.health.tbPanics,
		LastPanic:        s.health.lastTBPanic,
		WatchdogCancels:  s.health.watchdogCancels,
		LastWatchdog:     s.health.lastWatchdog,
	}
}

// noteHealthLocked applies fn to the health counters under healthMu.
func (s *Session) noteHealthLocked(fn func(h *healthState)) {
	s.healthMu.Lock()
	fn(&s.health)
	s.healthMu.Unlock()
}

// noteVerifyError records a background-verification error — previously
// these were only visible to callers that kept the VerificationHandle.
func (s *Session) noteVerifyError(err error) {
	if err == nil {
		return
	}
	s.metrics.Counter("verify_errors").Inc()
	s.noteHealthLocked(func(h *healthState) {
		h.verifyErrors++
		h.lastVerifyError = err.Error()
	})
}

// noteTBPanic records a recovered testbench panic.
func (s *Session) noteTBPanic(v any) {
	s.metrics.Counter("testbench_panics").Inc()
	s.noteHealthLocked(func(h *healthState) {
		h.tbPanics++
		h.lastTBPanic = fmt.Sprint(v)
	})
}

// safeRun invokes tb.Run — user code — with panic recovery, converting a
// panic into an error so the session's transactional machinery (rollback,
// verification error reporting) can handle it like any other failure. The
// fault-injection testbench hook fires inside the recovery scope, so an
// injected panic exercises exactly the production recovery path.
func (s *Session) safeRun(tb Testbench, d *Driver, cycles int) (err error) {
	defer func() {
		if r := recover(); r != nil {
			s.noteTBPanic(r)
			err = fmt.Errorf("testbench panic: %v", r)
		}
	}()
	s.cfg.Faults.TestbenchStep(d.Cycle())
	return tb.Run(d, cycles)
}

// safeRestore invokes tb.Restore with panic recovery.
func (s *Session) safeRestore(tb Testbench, data []byte) (err error) {
	defer func() {
		if r := recover(); r != nil {
			s.noteTBPanic(r)
			err = fmt.Errorf("testbench panic in Restore: %v", r)
		}
	}()
	return tb.Restore(data)
}

// safeSnapshot invokes tb.Snapshot with panic recovery.
func (s *Session) safeSnapshot(tb Testbench) (data []byte, err error) {
	defer func() {
		if r := recover(); r != nil {
			s.noteTBPanic(r)
			err = fmt.Errorf("testbench panic in Snapshot: %v", r)
		}
	}()
	return tb.Snapshot(), nil
}
