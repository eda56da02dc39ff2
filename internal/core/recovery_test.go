package core

import (
	"errors"
	"fmt"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"livesim/internal/faultinject"
	"livesim/internal/wal"
)

// sessionExec maps journaled command records onto direct session calls —
// the core-level equivalent of the server wiring replay through the
// shared verb table (internal/command can't be imported from here
// without a cycle).
func sessionExec(s *Session) ExecRecord {
	return func(r *wal.Record) error {
		switch r.Verb {
		case "instpipe":
			_, err := s.InstPipe(r.Args[0])
			return err
		case "run":
			n, err := strconv.Atoi(r.Args[2])
			if err != nil {
				return err
			}
			return s.Run(r.Args[0], r.Args[1], n)
		case "poke":
			p, ok := s.Pipe(r.Args[0])
			if !ok {
				return fmt.Errorf("no pipe %q", r.Args[0])
			}
			v, err := strconv.ParseUint(r.Args[2], 0, 64)
			if err != nil {
				return err
			}
			return p.Sim.Poke(r.Args[1], v)
		case "apply":
			rep, err := s.ApplyChange(srcOf(r.Files["acc.v"]))
			if err != nil {
				return err
			}
			rep.WaitVerification()
			return nil
		}
		return fmt.Errorf("unknown replay verb %q", r.Verb)
	}
}

// journalRun executes a run on the live session and returns the record
// the server would have journaled for it (actual post-run cycle).
func journalRun(t *testing.T, s *Session, tb, pipe string, cycles int) *wal.Record {
	t.Helper()
	if err := s.Run(tb, pipe, cycles); err != nil {
		t.Fatal(err)
	}
	cycle, _, _ := s.PipeStatus(pipe)
	return &wal.Record{Type: wal.TypeCmd, Verb: "run",
		Args: []string{tb, pipe, strconv.Itoa(cycles)}, Version: s.Version(), Cycle: cycle}
}

// TestReplayFullBitIdentical: journal a mixed mutation stream (runs, a
// poke, a hot-reload apply), replay it into a freshly booted session,
// and require the full session fingerprint — state, history, checkpoint
// cadence, version table, testbench state — to match exactly.
func TestReplayFullBitIdentical(t *testing.T) {
	s := newAccSession(t, accDesign)
	var recs []*wal.Record
	if _, err := s.InstPipe("p0"); err != nil {
		t.Fatal(err)
	}
	recs = append(recs, &wal.Record{Type: wal.TypeCmd, Verb: "instpipe",
		Args: []string{"p0"}, Version: s.Version()})
	recs = append(recs, journalRun(t, s, "tb0", "p0", 37))

	p := mustPipe(t, s, "p0")
	if err := p.Sim.Poke("top.u0.sum", 123); err != nil {
		t.Fatal(err)
	}
	recs = append(recs, &wal.Record{Type: wal.TypeCmd, Verb: "poke",
		Args: []string{"p0", "top.u0.sum", "123"}, Version: s.Version()})
	recs = append(recs, journalRun(t, s, "tb0", "p0", 25))

	rep, err := s.ApplyChange(srcOf(lateEdit))
	if err != nil {
		t.Fatal(err)
	}
	rep.WaitVerification()
	recs = append(recs, &wal.Record{Type: wal.TypeCmd, Verb: "apply",
		Files: map[string]string{"acc.v": lateEdit}, Version: s.Version()})
	recs = append(recs, journalRun(t, s, "tb0", "p0", 18))

	s.WaitBackground()
	pre := printSession(s)

	s2 := newAccSession(t, accDesign)
	rrep, err := s2.ReplayFrom(t.TempDir(), recs, sessionExec(s2))
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if rrep.FastPath {
		t.Errorf("apply in the stream must disable the fast path: %+v", rrep)
	}
	if rrep.Executed != len(recs) {
		t.Errorf("executed %d of %d records", rrep.Executed, len(recs))
	}
	s2.WaitBackground()
	requireIdentical(t, pre, printSession(s2))
}

// TestReplayFastPathFromWatermark: a pure instpipe/run/poke journal with
// a watermark restores from the checkpoint and re-executes only the
// tail. The recovered pipe must match the original in state, cycle,
// run journal and version — everything except the checkpoint store's
// internal timeline, which legitimately differs from re-execution.
func TestReplayFastPathFromWatermark(t *testing.T) {
	dir := t.TempDir()
	s := newAccSession(t, accDesign)
	w, _, err := wal.Open(filepath.Join(dir, "s.wal"), wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	app := func(r *wal.Record) {
		t.Helper()
		if err := w.Append(r); err != nil {
			t.Fatal(err)
		}
	}

	if _, err := s.InstPipe("p0"); err != nil {
		t.Fatal(err)
	}
	app(&wal.Record{Type: wal.TypeCmd, Verb: "instpipe", Args: []string{"p0"}, Version: s.Version()})
	app(journalRun(t, s, "tb0", "p0", 30))
	p := mustPipe(t, s, "p0")
	if err := p.Sim.Poke("top.u0.sum", 77); err != nil {
		t.Fatal(err)
	}
	app(&wal.Record{Type: wal.TypeCmd, Verb: "poke", Args: []string{"p0", "top.u0.sum", "77"}, Version: s.Version()})
	app(journalRun(t, s, "tb0", "p0", 20))

	// Watermark: checkpoint to disk + mark record, like the server's
	// watermark.
	if err := s.SaveCheckpoint("p0", filepath.Join(dir, "s.p0.lscp")); err != nil {
		t.Fatal(err)
	}
	cycle, histLen, _ := s.PipeStatus("p0")
	app(&wal.Record{Type: wal.TypeMark, Pipe: "p0", Path: "s.p0.lscp", Cycle: cycle, HistoryLen: histLen})

	// Post-watermark tail, then "crash" (no clean close of anything).
	app(journalRun(t, s, "tb0", "p0", 15))
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	_, recs, err := wal.Open(filepath.Join(dir, "s.wal"), wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s2 := newAccSession(t, accDesign)
	rep, err := s2.ReplayFrom(dir, recs, sessionExec(s2))
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if !rep.FastPath || rep.Checkpoints != 1 {
		t.Errorf("expected fast path via 1 watermark, got %+v", rep)
	}
	if rep.Skipped == 0 {
		t.Errorf("watermark should cover pre-mark records: %+v", rep)
	}

	pre, post := printPipe(s, mustPipe(t, s, "p0")), printPipe(s2, mustPipe(t, s2, "p0"))
	// The checkpoint ring's IDs/timeline differ on the fast path; the
	// session-observable state must not.
	pre.Checkpoints, post.Checkpoints = nil, nil
	pre.LastCheckpoint, post.LastCheckpoint = 0, 0
	requireIdentical(t, map[string]pipePrint{"p0": pre}, map[string]pipePrint{"p0": post})
	if got, want := s2.Version(), s.Version(); got != want {
		t.Errorf("version %s, want %s", got, want)
	}
}

// TestReplayDivergenceDetected: a journal whose claims contradict the
// replayed outcome must fail with ErrReplayDiverged, not serve wrong
// state.
func TestReplayDivergenceDetected(t *testing.T) {
	s := newAccSession(t, accDesign)
	if _, err := s.InstPipe("p0"); err != nil {
		t.Fatal(err)
	}
	recs := []*wal.Record{
		{Type: wal.TypeCmd, Verb: "instpipe", Args: []string{"p0"}, Version: "v0"},
		{Type: wal.TypeCmd, Verb: "run", Args: []string{"tb0", "p0", "20"}, Version: "v0", Cycle: 20},
	}

	t.Run("wrong-cycle", func(t *testing.T) {
		bad := []*wal.Record{recs[0], {Type: wal.TypeCmd, Verb: "run",
			Args: []string{"tb0", "p0", "20"}, Version: "v0", Cycle: 999}}
		s2 := newAccSession(t, accDesign)
		if _, err := s2.ReplayFull(t.TempDir(), bad, sessionExec(s2)); !errors.Is(err, ErrReplayDiverged) {
			t.Fatalf("err = %v, want ErrReplayDiverged", err)
		}
	})
	t.Run("wrong-version", func(t *testing.T) {
		bad := []*wal.Record{recs[0], {Type: wal.TypeCmd, Verb: "run",
			Args: []string{"tb0", "p0", "20"}, Version: "v7", Cycle: 20}}
		s2 := newAccSession(t, accDesign)
		if _, err := s2.ReplayFull(t.TempDir(), bad, sessionExec(s2)); !errors.Is(err, ErrReplayDiverged) {
			t.Fatalf("err = %v, want ErrReplayDiverged", err)
		}
	})
	t.Run("intact", func(t *testing.T) {
		s2 := newAccSession(t, accDesign)
		if _, err := s2.ReplayFull(t.TempDir(), recs, sessionExec(s2)); err != nil {
			t.Fatalf("intact journal: %v", err)
		}
	})
}

// TestWatchdogCancelsStalledRun: a run that wedges (injected stall) past
// the session's run budget is cancelled at a cycle-batch boundary and
// the pipe rolls back to its pre-run state bit-identically; the session
// stays fully usable and the next (healthy) run succeeds.
func TestWatchdogCancelsStalledRun(t *testing.T) {
	plan := faultinject.New()
	plan.StallRunAt(20, 200*time.Millisecond)
	s := NewSession("acc_top", Config{
		CheckpointEvery: 10, Lookback: 10, Faults: plan,
		RunBudget: 20 * time.Millisecond,
	})
	if _, err := s.LoadDesign(srcOf(accDesign)); err != nil {
		t.Fatal(err)
	}
	s.RegisterTestbench("tb0", NewStatelessTB(func(d *Driver, cycle uint64) error {
		return d.SetIn("d", 3)
	}))
	if _, err := s.InstPipe("p0"); err != nil {
		t.Fatal(err)
	}
	if err := s.Run("tb0", "p0", 15); err != nil {
		t.Fatal(err)
	}
	pre := printSession(s)

	err := s.Run("tb0", "p0", 60) // stalls at cycle 20, budget blown
	if !errors.Is(err, ErrRunCancelled) {
		t.Fatalf("err = %v, want ErrRunCancelled", err)
	}
	requireIdentical(t, pre, printSession(s))

	h := s.Health()
	if h.WatchdogCancels != 1 {
		t.Errorf("watchdog cancels = %d, want 1", h.WatchdogCancels)
	}
	if !strings.Contains(h.LastWatchdog, "cancel") {
		t.Errorf("last watchdog = %q", h.LastWatchdog)
	}

	// The stall was one-shot; the session must be healthy for real work.
	if err := s.Run("tb0", "p0", 45); err != nil {
		t.Fatalf("run after cancel: %v", err)
	}
	if cycle, _, _ := s.PipeStatus("p0"); cycle != 60 {
		t.Errorf("cycle after recovery run = %d, want 60", cycle)
	}
	// The rollback cut the journal back to cycle 15 and the run count to
	// one: the cancelled run is gone, and the next run extended the op.
	if p, _ := s.Pipe("p0"); !slices.Equal(p.History, []RunOp{{TB: "tb0", Cycles: 60}}) {
		t.Errorf("journal after cancel and rerun = %+v, want one tb0 op of 60 cycles", p.History)
	}
	if _, runs, _ := s.PipeStatus("p0"); runs != 2 {
		t.Errorf("%d runs counted after cancel and rerun, want 2", runs)
	}
}

// TestReplayRefusesReanchorRecord: journals written while a session
// acked mutations it did not journal hold reanchor records, whose
// checkpoint stood in for the missing records. Neither replay gear
// replays one or skips it: the journal is refused, naming the record
// type, before any record runs.
func TestReplayRefusesReanchorRecord(t *testing.T) {
	dir := t.TempDir()
	s := newAccSession(t, accDesign)
	if _, err := s.InstPipe("p0"); err != nil {
		t.Fatal(err)
	}
	recs := []*wal.Record{{Type: wal.TypeCmd, Verb: "instpipe", Args: []string{"p0"}, Version: s.Version()}}
	recs = append(recs, journalRun(t, s, "tb0", "p0", 30))
	if err := s.Run("tb0", "p0", 25); err != nil { // acked, never journaled
		t.Fatal(err)
	}
	if err := s.SaveCheckpoint("p0", filepath.Join(dir, "s.p0.lscp")); err != nil {
		t.Fatal(err)
	}
	cycle, histLen, _ := s.PipeStatus("p0")
	recs = append(recs, &wal.Record{Type: "reanchor", Pipe: "p0", Path: "s.p0.lscp",
		Cycle: cycle, HistoryLen: histLen, Version: s.Version()})
	recs = append(recs, journalRun(t, s, "tb0", "p0", 15))
	s.WaitBackground()

	check := func(t *testing.T, rep *ReplayReport, err error) {
		t.Helper()
		if !errors.Is(err, ErrReplayDiverged) || !strings.Contains(err.Error(), `"reanchor"`) {
			t.Fatalf("err = %v, want ErrReplayDiverged naming the reanchor record", err)
		}
		if rep.Executed != 0 || rep.Checkpoints != 0 || rep.FastPath {
			t.Errorf("a refused journal ran records: %+v", rep)
		}
	}
	t.Run("fast-gear", func(t *testing.T) {
		s2 := newAccSession(t, accDesign)
		rep, err := s2.ReplayFrom(dir, recs, sessionExec(s2))
		check(t, rep, err)
	})
	t.Run("full-gear", func(t *testing.T) {
		s2 := newAccSession(t, accDesign)
		rep, err := s2.ReplayFull(dir, recs, sessionExec(s2))
		check(t, rep, err)
	})
}
