package core

import (
	"errors"
	"fmt"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"livesim/internal/faultinject"
	"livesim/internal/sim"
)

// pipePrint is everything observable about a pipe's session state, used
// to assert bit-identical rollback.
type pipePrint struct {
	Version        string
	Cycle          uint64
	State          *sim.State
	History        []RunOp
	LastCheckpoint uint64
	Checkpoints    []string // "id@cycle/version" per live checkpoint
	TBs            map[string][]byte
}

// printPipe fingerprints one pipe of s.
func printPipe(s *Session, p *Pipe) pipePrint {
	pr := pipePrint{
		Version:        s.Version(),
		Cycle:          p.Sim.Cycle(),
		State:          p.Sim.Snapshot(),
		History:        append([]RunOp(nil), p.History...),
		LastCheckpoint: p.lastCheckpoint,
		TBs:            make(map[string][]byte),
	}
	for _, cp := range p.Checkpoints.All() {
		pr.Checkpoints = append(pr.Checkpoints, fmt.Sprintf("%d@%d/%s", cp.ID, cp.Cycle, cp.Version))
	}
	for h, tb := range p.tbs {
		pr.TBs[h] = tb.Snapshot()
	}
	return pr
}

// printSession fingerprints the session: version table plus every pipe.
func printSession(s *Session) map[string]pipePrint {
	out := map[string]pipePrint{
		"": {Version: s.Version(), History: nil},
	}
	s.mu.Lock()
	names := append([]string(nil), s.pipeOrder...)
	s.mu.Unlock()
	for _, name := range names {
		p, _ := s.Pipe(name)
		out[name] = printPipe(s, p)
	}
	return out
}

// newFaultSession is newAccSession with a fault plan installed.
func newFaultSession(t *testing.T, text string, plan *faultinject.Plan) *Session {
	t.Helper()
	s := NewSession("acc_top", Config{CheckpointEvery: 10, Lookback: 10, Faults: plan})
	if _, err := s.LoadDesign(srcOf(text)); err != nil {
		t.Fatal(err)
	}
	s.RegisterTestbench("tb0", NewStatelessTB(func(d *Driver, cycle uint64) error {
		return d.SetIn("d", 3)
	}))
	return s
}

var lateEdit = strings.Replace(accDesign, "sum <= sum + d;", "sum <= sum + d + 1;", 1)

// requireIdentical asserts the session state matches a fingerprint taken
// before a failed change — the core rollback guarantee.
func requireIdentical(t *testing.T, pre, post map[string]pipePrint) {
	t.Helper()
	if !reflect.DeepEqual(pre, post) {
		t.Fatalf("session state not bit-identical after rollback:\npre:  %+v\npost: %+v", pre, post)
	}
}

// retryAndCheck re-applies the edit after a failed attempt and checks the
// session lands on ground truth — the "corrected retry succeeds" half of
// every fault test. Whatever the failed attempt left in the compiler's
// memos, the retry must diff and swap against the code still running.
func retryAndCheck(t *testing.T, s *Session, pipeNames ...string) *ChangeReport {
	t.Helper()
	rep, err := s.ApplyChange(srcOf(lateEdit))
	if err != nil {
		t.Fatalf("retry after fault: %v", err)
	}
	if rep.RolledBack {
		t.Fatalf("retry rolled back: %+v", rep)
	}
	if want := []string{"acc_stage"}; !reflect.DeepEqual(rep.Swapped, want) || !reflect.DeepEqual(rep.Diff.BodyChanged, want) {
		t.Errorf("retry swapped %v, body changed %v, want %v", rep.Swapped, rep.Diff.BodyChanged, want)
	}
	rep.WaitVerification()
	if s.Version() != "v1" {
		t.Errorf("version after retry: %s", s.Version())
	}
	want := groundTruth(t, lateEdit, 60)
	for _, name := range pipeNames {
		p := mustPipe(t, s, name)
		p.Sim.Settle()
		sum, _ := p.Sim.Out("sum")
		if sum != want {
			t.Errorf("pipe %s: sum %d, ground truth %d", name, sum, want)
		}
	}
	return rep
}

// TestFaultCompileRollsBack: a build that fails mid-phase must leave the
// session (including the compiler's diff baseline) untouched, and a
// retry of the same edit must succeed.
func TestFaultCompileRollsBack(t *testing.T) {
	for _, phase := range []string{"parse", "elab", "codegen"} {
		t.Run(phase, func(t *testing.T) {
			plan := faultinject.New()
			s := newFaultSession(t, accDesign, plan)
			if _, err := s.InstPipe("p0"); err != nil {
				t.Fatal(err)
			}
			if err := s.Run("tb0", "p0", 60); err != nil {
				t.Fatal(err)
			}
			pre := printSession(s)

			plan.FailCompileAt(phase)
			_, err := s.ApplyChange(srcOf(lateEdit))
			if !errors.Is(err, faultinject.ErrInjected) {
				t.Fatalf("want injected fault, got %v", err)
			}
			requireIdentical(t, pre, printSession(s))
			if h := s.Health(); h.ChangesFailed != 1 || h.RolledBack != 0 {
				t.Errorf("health %+v", h)
			}
			retryAndCheck(t, s, "p0")
		})
	}
}

// TestFaultReloadRollsBackAllPipes: the second pipe's hot reload fails
// after the first pipe has already been swapped and re-executed — both
// pipes and the version table must roll back together.
func TestFaultReloadRollsBackAllPipes(t *testing.T) {
	plan := faultinject.New()
	s := newFaultSession(t, accDesign, plan)
	for _, name := range []string{"p0", "p1"} {
		if _, err := s.InstPipe(name); err != nil {
			t.Fatal(err)
		}
		if err := s.Run("tb0", name, 60); err != nil {
			t.Fatal(err)
		}
	}
	pre := printSession(s)

	// One swapped object per ApplyChange, two pipes: attempt #1 is p0
	// (succeeds), attempt #2 is p1 (fails after p0 committed).
	plan.FailReload("acc_stage", 2)
	rep, err := s.ApplyChange(srcOf(lateEdit))
	if !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("want injected fault, got %v", err)
	}
	if rep == nil || !rep.RolledBack || rep.FailedPipe != "p1" {
		t.Fatalf("report %+v", rep)
	}
	if s.Version() != "v0" {
		t.Errorf("version after rollback: %s", s.Version())
	}
	requireIdentical(t, pre, printSession(s))
	if got := s.TransformOps().Versions(); len(got) != 1 {
		t.Errorf("phantom versions survived rollback: %v", got)
	}
	h := s.Health()
	if h.RolledBack != 1 || h.ChangesFailed != 1 || h.LastRollback == "" {
		t.Errorf("health %+v", h)
	}
	// The build of the failed attempt was complete: the retry finds the
	// edited file parsed, the design elaborated and the object compiled,
	// and still swaps it in.
	rep = retryAndCheck(t, s, "p0", "p1")
	if st := rep.CompileStats; st.FilesParsed != 0 || st.Elaborated != 0 || st.Compiled != 0 {
		t.Errorf("retry of a built edit: %+v", st)
	}
}

// TestFaultTestbenchPanicRollsBack: a panic in user testbench code during
// the commit-phase re-execution is recovered, converted to an error, and
// rolled back like any other failure.
func TestFaultTestbenchPanicRollsBack(t *testing.T) {
	plan := faultinject.New()
	s := newFaultSession(t, accDesign, plan)
	if _, err := s.InstPipe("p0"); err != nil {
		t.Fatal(err)
	}
	if err := s.Run("tb0", "p0", 60); err != nil {
		t.Fatal(err)
	}
	pre := printSession(s)

	// Commit-phase re-execution replays from the cycle-50 checkpoint, so
	// its first (and only) chunk starts at exactly 50.
	plan.PanicTestbenchAt(50)
	rep, err := s.ApplyChange(srcOf(lateEdit))
	if err == nil || !strings.Contains(err.Error(), "panic") {
		t.Fatalf("want recovered panic error, got %v", err)
	}
	if rep == nil || !rep.RolledBack || rep.FailedPipe != "p0" {
		t.Fatalf("report %+v", rep)
	}
	requireIdentical(t, pre, printSession(s))
	h := s.Health()
	if h.TestbenchPanics != 1 || h.RolledBack != 1 {
		t.Errorf("health %+v", h)
	}
	retryAndCheck(t, s, "p0")
}

// TestFaultVerifyErrorSurfaced: a panic that fires only inside a
// background verification replay (chunk starting at cycle 20 — the live
// re-execution starts at 50) must not crash or roll back the session;
// the error surfaces through the handle and Health().
func TestFaultVerifyErrorSurfaced(t *testing.T) {
	plan := faultinject.New()
	s := newFaultSession(t, accDesign, plan)
	if _, err := s.InstPipe("p0"); err != nil {
		t.Fatal(err)
	}
	if err := s.Run("tb0", "p0", 60); err != nil {
		t.Fatal(err)
	}

	plan.PanicTestbenchAt(20)
	rep, err := s.ApplyChange(srcOf(lateEdit))
	if err != nil {
		t.Fatalf("commit must succeed (fault is verify-only): %v", err)
	}
	rep.WaitVerification()
	if len(rep.Verifications) != 1 || rep.Verifications[0].Err == nil {
		t.Fatalf("verification error not surfaced: %+v", rep.Verifications)
	}
	h := s.Health()
	if h.VerifyErrors != 1 || h.LastVerifyError == "" {
		t.Errorf("health %+v", h)
	}
	if s.Version() != "v1" {
		t.Errorf("change should stay applied, version %s", s.Version())
	}
	// The session is still live: keep running on the new version.
	if err := s.Run("tb0", "p0", 10); err != nil {
		t.Fatal(err)
	}
	if got := mustPipe(t, s, "p0").Sim.Cycle(); got != 70 {
		t.Errorf("cycle %d", got)
	}
}

// TestFaultCorruptCheckpointFile: a corrupted checkpoint file must be
// rejected on load (CRC) with the pipe untouched, and a clean re-save
// must load again.
func TestFaultCorruptCheckpointFile(t *testing.T) {
	plan := faultinject.New()
	s := newFaultSession(t, accDesign, plan)
	if _, err := s.InstPipe("p0"); err != nil {
		t.Fatal(err)
	}
	if err := s.Run("tb0", "p0", 25); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "cp.lscp")

	plan.CorruptCheckpoint(64)
	if err := s.SaveCheckpoint("p0", path); err != nil {
		t.Fatal(err)
	}
	if err := s.Run("tb0", "p0", 25); err != nil {
		t.Fatal(err)
	}
	err := s.LoadCheckpoint("p0", path)
	if err == nil || !strings.Contains(err.Error(), "unreadable") {
		t.Fatalf("corrupt file must be rejected, got %v", err)
	}
	if got := mustPipe(t, s, "p0").Sim.Cycle(); got != 50 {
		t.Errorf("failed load must leave pipe untouched, cycle %d", got)
	}

	// A clean save overwrites the corrupt file; load works again.
	if err := s.SaveCheckpoint("p0", path); err != nil {
		t.Fatal(err)
	}
	if err := s.LoadCheckpoint("p0", path); err != nil {
		t.Fatal(err)
	}
	if got := mustPipe(t, s, "p0").Sim.Cycle(); got != 50 {
		t.Errorf("cycle after reload %d", got)
	}
}

// TestFaultCrashDuringSave: a crash between the temp write and the final
// rename must leave the previous checkpoint loadable — directly (crash
// before the backup rename) or via the .bak fallback (crash after it).
func TestFaultCrashDuringSave(t *testing.T) {
	for _, stage := range []string{"after-temp", "after-backup"} {
		t.Run(stage, func(t *testing.T) {
			plan := faultinject.New()
			s := newFaultSession(t, accDesign, plan)
			if _, err := s.InstPipe("p0"); err != nil {
				t.Fatal(err)
			}
			if err := s.Run("tb0", "p0", 25); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(t.TempDir(), "cp.lscp")
			if err := s.SaveCheckpoint("p0", path); err != nil {
				t.Fatal(err)
			}
			if err := s.Run("tb0", "p0", 25); err != nil {
				t.Fatal(err)
			}

			plan.CrashSaveAt(stage)
			if err := s.SaveCheckpoint("p0", path); !errors.Is(err, faultinject.ErrInjected) {
				t.Fatalf("want injected crash, got %v", err)
			}
			// The cycle-25 checkpoint must still be loadable.
			if err := s.LoadCheckpoint("p0", path); err != nil {
				t.Fatalf("previous checkpoint lost after crash at %s: %v", stage, err)
			}
			p := mustPipe(t, s, "p0")
			if p.Sim.Cycle() != 25 {
				t.Errorf("cycle %d, want 25", p.Sim.Cycle())
			}
		})
	}
}

// TestRunJournalRecordsActualCycles: the regression for the journaling
// bug — a run that stops early (testbench error) must journal the cycles
// actually advanced, not the cycles requested, so replays reproduce the
// run instead of over-running the stop point.
func TestRunJournalRecordsActualCycles(t *testing.T) {
	s := newAccSession(t, accDesign)
	s.RegisterTestbench("tbErr", NewStatelessTB(func(d *Driver, cycle uint64) error {
		if cycle == 37 {
			return fmt.Errorf("injected testbench stop at cycle %d", cycle)
		}
		return d.SetIn("d", 3)
	}))
	if _, err := s.InstPipe("p0"); err != nil {
		t.Fatal(err)
	}
	if err := s.Run("tbErr", "p0", 60); err == nil {
		t.Fatal("want testbench error")
	}
	p := mustPipe(t, s, "p0")
	if p.Sim.Cycle() != 37 {
		t.Fatalf("cycle %d", p.Sim.Cycle())
	}
	if len(p.History) != 1 || p.History[0].Cycles != 37 {
		t.Fatalf("journal must record 37 actually-run cycles, got %+v", p.History)
	}

	// A run that advances nothing must not be journaled at all.
	if err := s.Run("tbErr", "p0", 10); err == nil {
		t.Fatal("want immediate testbench error")
	}
	if len(p.History) != 1 {
		t.Fatalf("zero-cycle run must not be journaled: %+v", p.History)
	}

	// The journal now replays cleanly: an ApplyChange replaying through
	// the truncated op reproduces the same state.
	if err := s.Run("tb0", "p0", 23); err != nil {
		t.Fatal(err)
	}
	rep, err := s.ApplyChange(srcOf(lateEdit))
	if err != nil {
		t.Fatal(err)
	}
	rep.WaitVerification()
	for _, h := range rep.Verifications {
		if h.Err != nil {
			t.Fatal(h.Err)
		}
	}
	if got := p.Sim.Cycle(); got != 60 {
		t.Errorf("cycle after replay %d", got)
	}
}

// TestFaultTestbenchPanicInPlainRun: a panic outside ApplyChange — during
// an ordinary Run — is also recovered and journaled correctly.
func TestFaultTestbenchPanicInPlainRun(t *testing.T) {
	plan := faultinject.New()
	s := newFaultSession(t, accDesign, plan)
	if _, err := s.InstPipe("p0"); err != nil {
		t.Fatal(err)
	}
	if err := s.Run("tb0", "p0", 25); err != nil {
		t.Fatal(err)
	}
	plan.PanicTestbenchAt(30) // chunk boundary at the cycle-30 checkpoint
	err := s.Run("tb0", "p0", 35)
	if err == nil || !strings.Contains(err.Error(), "panic") {
		t.Fatalf("want recovered panic, got %v", err)
	}
	p := mustPipe(t, s, "p0")
	if p.Sim.Cycle() != 30 {
		t.Fatalf("cycle %d", p.Sim.Cycle())
	}
	// Journaled as the 5 cycles actually run (25 -> 30), not 35: the one
	// tb0 op now ends at cycle 30.
	if want := []RunOp{{TB: "tb0", Cycles: 30}}; !slices.Equal(p.History, want) {
		t.Fatalf("journal %+v, want %+v", p.History, want)
	}
	if h := s.Health(); h.TestbenchPanics != 1 {
		t.Errorf("health %+v", h)
	}
	// Session still live.
	if err := s.Run("tb0", "p0", 30); err != nil {
		t.Fatal(err)
	}
	if p.Sim.Cycle() != 60 {
		t.Errorf("cycle %d", p.Sim.Cycle())
	}
	if want := []RunOp{{TB: "tb0", Cycles: 60}}; !slices.Equal(p.History, want) {
		t.Errorf("journal %+v, want %+v", p.History, want)
	}
	if _, runs, _ := s.PipeStatus("p0"); runs != 3 {
		t.Errorf("%d runs counted, want 3", runs)
	}
}
