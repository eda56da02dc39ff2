package core

import (
	"errors"
	"strings"
	"testing"

	"livesim/internal/faultinject"
	"livesim/internal/obs"
)

func TestProfileStartReportStop(t *testing.T) {
	s := newAccSession(t, accDesign)
	if _, err := s.InstPipe("p0"); err != nil {
		t.Fatal(err)
	}
	if n, err := s.ProfileStart(""); err != nil || n != 1 {
		t.Fatalf("start: n=%d err=%v", n, err)
	}
	if err := s.Run("tb0", "p0", 30); err != nil {
		t.Fatal(err)
	}

	profiles, err := s.ProfileSnapshot("")
	if err != nil {
		t.Fatal(err)
	}
	if len(profiles) != 1 || profiles[0].Pipe != "p0" || !profiles[0].Enabled {
		t.Fatalf("profiles %+v", profiles)
	}
	snap := profiles[0].Snapshot
	// acc_top + u0.
	if snap.Instances != 2 {
		t.Fatalf("instances %d", snap.Instances)
	}
	// u0's clock edge runs every cycle; acc_top's comb code reads no
	// port, so its clock edge runs once, after the first settle, and is
	// skipped as quiescent from then on.
	if snap.Cycles != 30 || snap.SeqEvals != 31 {
		t.Errorf("cycles %d seqEvals %d", snap.Cycles, snap.SeqEvals)
	}
	// u0's cyc register increments every cycle, so the stage always
	// toggles; the top module has no registers and is always quiescent.
	var stage, top int = -1, -1
	for i, st := range snap.Insts {
		if strings.HasSuffix(st.Path, ".u0") {
			stage = i
		} else if st.Depth == 0 {
			top = i
		}
	}
	if stage < 0 || top < 0 {
		t.Fatalf("missing instances: %+v", snap.Insts)
	}
	if snap.Insts[stage].Toggles != 30 || snap.Insts[stage].QuiescentEvals != 0 {
		t.Errorf("stage toggles %d quiescent %d", snap.Insts[stage].Toggles, snap.Insts[stage].QuiescentEvals)
	}
	if snap.Insts[top].Toggles != 0 || snap.Insts[top].QuiescentEvals != 30 {
		t.Errorf("top toggles %d quiescent %d", snap.Insts[top].Toggles, snap.Insts[top].QuiescentEvals)
	}

	// Stop freezes the statistics but keeps them readable.
	if n, err := s.ProfileStop(""); err != nil || n != 1 {
		t.Fatalf("stop: n=%d err=%v", n, err)
	}
	if err := s.Run("tb0", "p0", 20); err != nil {
		t.Fatal(err)
	}
	after, err := s.ProfileSnapshot("p0")
	if err != nil {
		t.Fatal(err)
	}
	if after[0].Enabled {
		t.Error("still enabled after stop")
	}
	if after[0].Snapshot.SeqEvals != 31 {
		t.Errorf("stopped profiler kept counting: %d", after[0].Snapshot.SeqEvals)
	}

	// Reset zeroes; unknown pipes are errors.
	if n, err := s.ProfileReset("p0"); err != nil || n != 1 {
		t.Fatalf("reset: n=%d err=%v", n, err)
	}
	got, _ := s.ProfileSnapshot("p0")
	if got[0].Snapshot.SeqEvals != 0 {
		t.Errorf("reset did not zero: %d", got[0].Snapshot.SeqEvals)
	}
	if _, err := s.ProfileStart("nope"); err == nil {
		t.Error("start on unknown pipe should fail")
	}
	if _, err := s.ProfileSnapshot("nope"); err == nil {
		t.Error("snapshot of unknown pipe should fail")
	}
}

func TestProfileHealthAndMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	s := NewSession("acc_top", Config{CheckpointEvery: 10, Lookback: 10, Metrics: reg})
	if _, err := s.LoadDesign(srcOf(accDesign)); err != nil {
		t.Fatal(err)
	}
	s.RegisterTestbench("tb0", NewStatelessTB(func(d *Driver, cycle uint64) error {
		return d.SetIn("d", 3)
	}))
	if _, err := s.InstPipe("p0"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.ProfileStart("p0"); err != nil {
		t.Fatal(err)
	}
	if err := s.Run("tb0", "p0", 25); err != nil {
		t.Fatal(err)
	}

	h := s.Health()
	if h.ProfiledPipes != 1 || h.ProfInstances != 2 {
		t.Errorf("health profile summary: %+v", h)
	}
	if !strings.Contains(h.String(), "profiler: 1 pipes recording") {
		t.Errorf("health text missing profiler line:\n%s", h.String())
	}

	// The /metrics bridge: gauges must agree with the snapshot and with
	// the verb's instance count.
	ms := reg.Snapshot()
	if got := ms.Gauges["prof_instances"]; got != 2 {
		t.Errorf("prof_instances gauge %d want 2", got)
	}
	if got := ms.Gauges["prof_pipes_enabled"]; got != 1 {
		t.Errorf("prof_pipes_enabled gauge %d want 1", got)
	}
	// u0 every cycle, acc_top once (see TestProfileStartReportStop).
	if got := ms.Gauges["prof_seq_evals"]; got != 26 {
		t.Errorf("prof_seq_evals gauge %d want 26", got)
	}
	// Satellite: the cached run instruments still count.
	if got := ms.Counters["session_runs"]; got != 1 {
		t.Errorf("session_runs %d want 1", got)
	}
	if got := ms.Counters["session_cycles_run"]; got != 25 {
		t.Errorf("session_cycles_run %d want 25", got)
	}

	// A session with metrics off must stay inert on the same paths.
	s2 := newAccSession(t, accDesign)
	if _, err := s2.InstPipe("p0"); err != nil {
		t.Fatal(err)
	}
	if _, err := s2.ProfileStart(""); err != nil {
		t.Fatal(err)
	}
	if err := s2.Run("tb0", "p0", 10); err != nil {
		t.Fatal(err)
	}
	if h := s2.Health(); h.ProfiledPipes != 1 {
		t.Errorf("nil-registry session health: %+v", h)
	}
}

// TestProfileHealthAgreesWithSnapshot: Health's quiescent percentage is
// the snapshot's fraction. acc_top's clock edge is skipped after the
// first settle, so it commits quiescent with no Seq evaluation: 30
// quiescent commits over 31 Seq evaluations but 60 commits.
func TestProfileHealthAgreesWithSnapshot(t *testing.T) {
	s := newAccSession(t, accDesign)
	if _, err := s.InstPipe("p0"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.ProfileStart("p0"); err != nil {
		t.Fatal(err)
	}
	if err := s.Run("tb0", "p0", 30); err != nil {
		t.Fatal(err)
	}
	profiles, err := s.ProfileSnapshot("p0")
	if err != nil {
		t.Fatal(err)
	}
	snap := profiles[0].Snapshot
	if snap.QuiescentFraction != 0.5 {
		t.Fatalf("snapshot quiescent fraction %v, want 30 of 60 commits", snap.QuiescentFraction)
	}
	if got := s.Health().ProfQuiescentPct; got != 100*snap.QuiescentFraction {
		t.Errorf("Health quiescent %.1f%%, snapshot %.1f%%", got, 100*snap.QuiescentFraction)
	}
}

// TestProfileSurvivesApplyAndRollback pins the two sim-replacement
// paths: a successful hot reload keeps the profiler attached (in-place
// Reload rebinds it), and a failed one — whose rollback rebuilds the
// pipe's simulation from scratch — must re-attach it to the new sim.
func TestProfileSurvivesApplyAndRollback(t *testing.T) {
	plan := faultinject.New()
	s := NewSession("acc_top", Config{CheckpointEvery: 10, Lookback: 10, Faults: plan})
	if _, err := s.LoadDesign(srcOf(accDesign)); err != nil {
		t.Fatal(err)
	}
	s.RegisterTestbench("tb0", NewStatelessTB(func(d *Driver, cycle uint64) error {
		return d.SetIn("d", 3)
	}))
	p, err := s.InstPipe("p0")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.ProfileStart(""); err != nil {
		t.Fatal(err)
	}
	if err := s.Run("tb0", "p0", 60); err != nil {
		t.Fatal(err)
	}

	// Successful apply: in-place reload, attachment survives.
	edited := strings.Replace(accDesign, "sum <= sum + d;", "sum <= sum + d + 1;", 1)
	rep, err := s.ApplyChange(srcOf(edited))
	if err != nil {
		t.Fatal(err)
	}
	rep.WaitVerification()
	if p.Sim.Profiler() == nil {
		t.Fatal("profiler detached by successful apply")
	}
	evalsAfterApply := p.profiler.Totals().SeqEvals

	// Failed apply: the rollback rebuilds p.Sim; the profiler must be
	// recording on the rebuilt sim.
	plan.FailReload("acc_stage", 1)
	edited2 := strings.Replace(accDesign, "sum <= sum + d;", "sum <= sum + d + 2;", 1)
	rep2, err := s.ApplyChange(srcOf(edited2))
	if !errors.Is(err, faultinject.ErrInjected) || rep2 == nil || !rep2.RolledBack {
		t.Fatalf("want injected rollback, got err=%v rep=%+v", err, rep2)
	}
	if p.Sim.Profiler() == nil {
		t.Fatal("profiler not re-attached after rollback")
	}
	if err := s.Run("tb0", "p0", 10); err != nil {
		t.Fatal(err)
	}
	if got := p.profiler.Totals().SeqEvals; got <= evalsAfterApply {
		t.Errorf("profiler not recording after rollback: %d <= %d", got, evalsAfterApply)
	}
}
