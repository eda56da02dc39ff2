package core

import (
	"path/filepath"
	"slices"
	"testing"

	"livesim/internal/sim"
	"livesim/internal/wal"
)

// TestRunJournalIsBounded: the journal grows with testbench switches,
// not with requests. Ten thousand single-cycle runs of one testbench
// leave one op; alternating two testbenches leaves one op per switch.
// The run count still counts every run.
func TestRunJournalIsBounded(t *testing.T) {
	s := newAccSession(t, accDesign)
	s.RegisterTestbench("tb1", NewStatelessTB(func(d *Driver, cycle uint64) error {
		return d.SetIn("d", 7)
	}))
	for _, name := range []string{"one", "two"} {
		if _, err := s.InstPipe(name); err != nil {
			t.Fatal(err)
		}
	}
	for range 10_000 {
		if err := s.Run("tb0", "one", 1); err != nil {
			t.Fatal(err)
		}
	}
	if want := []RunOp{{TB: "tb0", Cycles: 10_000}}; !slices.Equal(mustPipe(t, s, "one").History, want) {
		t.Fatalf("journal %+v, want %+v", mustPipe(t, s, "one").History, want)
	}
	if _, runs, _ := s.PipeStatus("one"); runs != 10_000 {
		t.Fatalf("%d runs counted, want 10000", runs)
	}

	const switches = 200
	var want []RunOp
	for i := range switches {
		tb := []string{"tb0", "tb1"}[i%2]
		for range 3 {
			if err := s.Run(tb, "two", 2); err != nil {
				t.Fatal(err)
			}
		}
		want = append(want, RunOp{TB: tb, Cycles: 6, StartCycle: uint64(6 * i)})
	}
	if got := mustPipe(t, s, "two").History; !slices.Equal(got, want) {
		t.Fatalf("journal has %d ops, want one per switch (%d)", len(got), switches)
	}
}

// TestCutJournal pins the cut at the boundaries: inside an op, at an
// op's start, past the end and at zero.
func TestCutJournal(t *testing.T) {
	h := []RunOp{{TB: "a", Cycles: 10}, {TB: "b", Cycles: 5, StartCycle: 10}}
	for _, c := range []struct {
		cycle uint64
		want  []RunOp
	}{
		{20, h},
		{15, h},
		{12, []RunOp{{TB: "a", Cycles: 10}, {TB: "b", Cycles: 2, StartCycle: 10}}},
		{10, []RunOp{{TB: "a", Cycles: 10}}},
		{3, []RunOp{{TB: "a", Cycles: 3}}},
		{0, []RunOp{}},
	} {
		if got := cutJournal(slices.Clone(h), c.cycle); !slices.Equal(got, c.want) {
			t.Errorf("cut at %d: %+v, want %+v", c.cycle, got, c.want)
		}
	}
}

// FuzzRunJournal draws runs (testbench, cycles asked, cycles reached)
// and cuts (a checkpoint load or a rollback to an earlier cycle), and
// holds extendJournal and cutJournal, as Run drives them, to a journal
// of one op per run: the same testbench covers every cycle, and the
// journal is contiguous from 0 with no two neighbours of one testbench.
func FuzzRunJournal(f *testing.F) {
	f.Add([]byte{0x10, 0x20, 0x35, 0x81, 0x11, 0x11, 0x52})
	f.Add([]byte{0x07, 0x07, 0x07, 0xc3, 0x17, 0x27, 0x80})
	f.Fuzz(func(t *testing.T, data []byte) {
		tbs := []string{"tb0", "tb1", "clock"}
		var got, model []RunOp
		cycle := uint64(0)
		for k := 0; k+1 < len(data); k += 2 {
			a, b := data[k], data[k+1]
			if a&0x80 != 0 {
				// Cut back to an earlier cycle, as ldch or a rollback does.
				c := uint64(b) % (cycle + 1)
				got = cutJournal(got, c)
				model = cutModel(model, c)
				cycle = c
				continue
			}
			tb := tbs[int(a&0x3)%len(tbs)]
			asked := int(b & 0x1f)
			reached := asked
			if a&0x40 != 0 { // early stop
				reached = int(b>>5) % (asked + 1)
			}
			got = extendJournal(got, tb, cycle, asked)
			if reached != asked {
				got = extendJournal(got, tb, cycle, reached)
			}
			if reached > 0 {
				model = append(model, RunOp{TB: tb, Cycles: reached, StartCycle: cycle})
			}
			cycle += uint64(reached)
		}
		checkJournal(t, got, model, cycle)
	})
}

// cutModel cuts a one-op-per-run journal at cycle.
func cutModel(h []RunOp, cycle uint64) []RunOp {
	var out []RunOp
	for _, op := range h {
		if op.StartCycle >= cycle {
			break
		}
		op.Cycles = int(min(op.end(), cycle) - op.StartCycle)
		out = append(out, op)
	}
	return out
}

func checkJournal(t *testing.T, got, model []RunOp, end uint64) {
	t.Helper()
	next := uint64(0)
	for i, op := range got {
		if op.StartCycle != next || op.Cycles <= 0 {
			t.Fatalf("op %d %+v: want a non-empty op starting at %d; journal %+v", i, op, next, got)
		}
		if i > 0 && got[i-1].TB == op.TB {
			t.Fatalf("ops %d and %d are both %s: not merged; journal %+v", i-1, i, op.TB, got)
		}
		next = op.end()
	}
	if next != end {
		t.Fatalf("journal ends at %d, pipe at %d; journal %+v", next, end, got)
	}
	for _, op := range model {
		for c := op.StartCycle; c < op.end(); c++ {
			i := firstOpEndingAfter(got, c)
			if i == len(got) || got[i].StartCycle > c || got[i].TB != op.TB {
				t.Fatalf("cycle %d: model says %s; journal %+v", c, op.TB, got)
			}
		}
	}
}

// TestReplayFastPathMergedRuns: a hand-built journal of several runs of
// one testbench before a watermark, with the mark's history_len the run
// count, recovers on the fast path to the live session's state, its
// one-op journal and its run count.
func TestReplayFastPathMergedRuns(t *testing.T) {
	dir := t.TempDir()
	s := newAccSession(t, accDesign)
	if _, err := s.InstPipe("p0"); err != nil {
		t.Fatal(err)
	}
	recs := []*wal.Record{{Type: wal.TypeBoot}, {Type: wal.TypeCmd, Verb: "instpipe", Args: []string{"p0"}, Version: "v0"}}
	for _, n := range []int{7, 13, 10, 25} {
		recs = append(recs, journalRun(t, s, "tb0", "p0", n))
	}
	if err := s.SaveCheckpoint("p0", filepath.Join(dir, "s.p0.lscp")); err != nil {
		t.Fatal(err)
	}
	recs = append(recs, &wal.Record{Type: wal.TypeMark, Pipe: "p0", Path: "s.p0.lscp", Cycle: 55, HistoryLen: 4})
	recs = append(recs, journalRun(t, s, "tb0", "p0", 9), journalRun(t, s, "tb0", "p0", 6))
	if c, runs, _ := s.PipeStatus("p0"); c != 70 || runs != 6 {
		t.Fatalf("live pipe at cycle %d with %d runs, want 70 and 6", c, runs)
	}

	s2 := newAccSession(t, accDesign)
	rep, err := s2.ReplayFrom(dir, recs, sessionExec(s2))
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if !rep.FastPath || rep.Checkpoints != 1 || rep.Executed != 3 {
		t.Errorf("want the fast path through one watermark, executing instpipe and the two tail runs: %+v", rep)
	}
	pre, post := printPipe(s, mustPipe(t, s, "p0")), printPipe(s2, mustPipe(t, s2, "p0"))
	pre.Checkpoints, post.Checkpoints = nil, nil
	pre.LastCheckpoint, post.LastCheckpoint = 0, 0
	requireIdentical(t, map[string]pipePrint{"p0": pre}, map[string]pipePrint{"p0": post})
	if want := []RunOp{{TB: "tb0", Cycles: 70}}; !slices.Equal(post.History, want) {
		t.Errorf("recovered journal %+v, want %+v", post.History, want)
	}
	if _, runs, _ := s2.PipeStatus("p0"); runs != 6 {
		t.Errorf("recovered run count %d, want 6", runs)
	}
}

// TestLoadCheckpointCutsMergedOp: a file saved at cycle 60 of a tb0
// stretch that then ran on to 80 loads with the journal cut at 60, not
// at the file's one journaled run (which would keep tb0 to 80). tb1
// then runs 60..90, and an edit whose re-execution starts before 60
// gives, once verified, the state of a cold run of the edited design.
func TestLoadCheckpointCutsMergedOp(t *testing.T) {
	tb1 := NewStatelessTB(func(d *Driver, cycle uint64) error { return d.SetIn("d", 7) })
	s := NewSession("acc_top", Config{CheckpointEvery: 10, Lookback: 40})
	if _, err := s.LoadDesign(srcOf(accDesign)); err != nil {
		t.Fatal(err)
	}
	s.RegisterTestbench("tb0", NewStatelessTB(func(d *Driver, cycle uint64) error { return d.SetIn("d", 3) }))
	s.RegisterTestbench("tb1", tb1)
	if _, err := s.InstPipe("p0"); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "p0.lscp")
	if err := s.Run("tb0", "p0", 60); err != nil {
		t.Fatal(err)
	}
	if err := s.SaveCheckpoint("p0", path); err != nil {
		t.Fatal(err)
	}
	if err := s.Run("tb0", "p0", 20); err != nil {
		t.Fatal(err)
	}
	if err := s.LoadCheckpoint("p0", path); err != nil {
		t.Fatal(err)
	}
	p := mustPipe(t, s, "p0")
	if want := []RunOp{{TB: "tb0", Cycles: 60}}; !slices.Equal(p.History, want) {
		t.Fatalf("journal after ldch %+v, want %+v", p.History, want)
	}
	if _, runs, _ := s.PipeStatus("p0"); runs != 1 {
		t.Fatalf("run count after ldch %d, want the file's 1", runs)
	}
	if err := s.Run("tb1", "p0", 30); err != nil {
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

	cold := newAccSession(t, lateEdit)
	cold.RegisterTestbench("tb1", tb1)
	if _, err := cold.InstPipe("p0"); err != nil {
		t.Fatal(err)
	}
	for _, r := range []struct {
		tb     string
		cycles int
	}{{"tb0", 60}, {"tb1", 30}} {
		if err := cold.Run(r.tb, "p0", r.cycles); err != nil {
			t.Fatal(err)
		}
	}
	if ok, why := sim.StateEqual(mustPipe(t, cold, "p0").Sim.Snapshot(), p.Sim.Snapshot()); !ok {
		t.Fatalf("hot state differs from a cold run of the edit: %s", why)
	}
}
