package core

import (
	"path/filepath"
	"strings"
	"testing"

	"livesim/internal/checkpoint"
	"livesim/internal/liveparser"
)

// The test design: an accumulator whose step behaviour changes at cycle
// 50, so edits to the early/late step isolate which history region a
// change affects.
const accDesign = `
module acc_stage (input clk, input [15:0] d, output reg [31:0] sum, output reg [31:0] cyc);
  always @(posedge clk) begin
    cyc <= cyc + 1;
    if (cyc < 32'd50)
      sum <= sum + 1;       // early phase
    else
      sum <= sum + d;       // late phase
  end
endmodule
module acc_top (input clk, input [15:0] d, output [31:0] sum);
  wire [31:0] cyc_unused;
  acc_stage u0 (.clk(clk), .d(d), .sum(sum), .cyc(cyc_unused));
endmodule
`

func srcOf(text string) liveparser.Source {
	return liveparser.Source{Files: map[string]string{"acc.v": text}}
}

// newAccSession builds a session with checkpoints every 10 cycles and a
// short lookback, with a constant-input testbench registered as tb0.
func newAccSession(t *testing.T, text string) *Session {
	t.Helper()
	s := NewSession("acc_top", Config{CheckpointEvery: 10, Lookback: 10})
	if _, err := s.LoadDesign(srcOf(text)); err != nil {
		t.Fatal(err)
	}
	s.RegisterTestbench("tb0", NewStatelessTB(func(d *Driver, cycle uint64) error {
		return d.SetIn("d", 3)
	}))
	return s
}

// groundTruth runs the given design text from scratch for cycles and
// returns sum.
func groundTruth(t *testing.T, text string, cycles int) uint64 {
	t.Helper()
	s := newAccSession(t, text)
	if _, err := s.InstPipe("ref"); err != nil {
		t.Fatal(err)
	}
	if err := s.Run("tb0", "ref", cycles); err != nil {
		t.Fatal(err)
	}
	p, _ := s.Pipe("ref")
	v, err := p.Sim.Out("sum")
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func TestSessionBasicRun(t *testing.T) {
	s := newAccSession(t, accDesign)
	p, err := s.InstPipe("p0")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Run("tb0", "p0", 60); err != nil {
		t.Fatal(err)
	}
	if p.Sim.Cycle() != 60 {
		t.Errorf("cycle %d", p.Sim.Cycle())
	}
	sum, _ := p.Sim.Out("sum")
	// 50 early steps of +1, 10 late steps of +3.
	if sum != 50+10*3 {
		t.Errorf("sum %d", sum)
	}
	// Checkpoints at 0,10,...,60.
	if got := p.Checkpoints.Len(); got != 7 {
		t.Errorf("checkpoints %d", got)
	}
	if len(p.History) != 1 || p.History[0].Cycles != 60 {
		t.Errorf("history %+v", p.History)
	}
}

func TestTables(t *testing.T) {
	s := newAccSession(t, accDesign)
	if _, err := s.InstPipe("p0"); err != nil {
		t.Fatal(err)
	}
	lib := s.Library()
	var pipeRows, stageRows, tbRows int
	for _, e := range lib {
		switch e.Type {
		case "Pipe":
			pipeRows++
		case "Stage":
			stageRows++
		case "Testbench":
			tbRows++
		}
	}
	if pipeRows != 1 || stageRows != 1 || tbRows != 1 {
		t.Errorf("library %+v", lib)
	}
	pipes := s.Pipes()
	if len(pipes) != 1 || pipes[0].Name != "p0" || pipes[0].Handle != "acc_top" {
		t.Errorf("pipes %+v", pipes)
	}
	stages, err := s.Stages("p0")
	if err != nil {
		t.Fatal(err)
	}
	if len(stages) != 2 || stages[0].StageName != "top" || stages[1].StageName != "top.u0" {
		t.Errorf("stages %+v", stages)
	}
	if _, err := s.Stages("nope"); err == nil {
		t.Error("want error for unknown pipe")
	}
}

func TestCopyPipe(t *testing.T) {
	s := newAccSession(t, accDesign)
	if _, err := s.InstPipe("p0"); err != nil {
		t.Fatal(err)
	}
	if err := s.Run("tb0", "p0", 20); err != nil {
		t.Fatal(err)
	}
	cp, err := s.CopyPipe("p1", "p0")
	if err != nil {
		t.Fatal(err)
	}
	if cp.Sim.Cycle() != 20 {
		t.Errorf("copy cycle %d", cp.Sim.Cycle())
	}
	v0, _ := mustPipe(t, s, "p0").Sim.Out("sum")
	v1, _ := cp.Sim.Out("sum")
	if v0 != v1 {
		t.Errorf("copy state mismatch %d vs %d", v0, v1)
	}
	// Diverge the copy; original unaffected.
	if err := s.Run("tb0", "p1", 10); err != nil {
		t.Fatal(err)
	}
	if mustPipe(t, s, "p0").Sim.Cycle() != 20 {
		t.Error("original advanced with copy")
	}
}

func mustPipe(t *testing.T, s *Session, name string) *Pipe {
	t.Helper()
	p, ok := s.Pipe(name)
	if !ok {
		t.Fatalf("no pipe %s", name)
	}
	return p
}

func TestSaveLoadCheckpointFile(t *testing.T) {
	s := newAccSession(t, accDesign)
	if _, err := s.InstPipe("p0"); err != nil {
		t.Fatal(err)
	}
	if err := s.Run("tb0", "p0", 25); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "cp.bin")
	if err := s.SaveCheckpoint("p0", path); err != nil {
		t.Fatal(err)
	}
	sumAt25, _ := mustPipe(t, s, "p0").Sim.Out("sum")

	if err := s.Run("tb0", "p0", 25); err != nil {
		t.Fatal(err)
	}
	if err := s.LoadCheckpoint("p0", path); err != nil {
		t.Fatal(err)
	}
	p := mustPipe(t, s, "p0")
	if p.Sim.Cycle() != 25 {
		t.Errorf("cycle %d", p.Sim.Cycle())
	}
	p.Sim.Settle()
	sum, _ := p.Sim.Out("sum")
	if sum != sumAt25 {
		t.Errorf("sum %d want %d", sum, sumAt25)
	}
}

func TestApplyChangeNoBehavioralEdit(t *testing.T) {
	s := newAccSession(t, accDesign)
	if _, err := s.InstPipe("p0"); err != nil {
		t.Fatal(err)
	}
	if err := s.Run("tb0", "p0", 30); err != nil {
		t.Fatal(err)
	}
	rep, err := s.ApplyChange(srcOf(strings.Replace(accDesign, "// early phase", "// EARLY phase", 1)))
	if err != nil {
		t.Fatal(err)
	}
	if !rep.NoChange {
		t.Errorf("comment edit should be no-change: %+v", rep)
	}
	if s.Version() != "v0" {
		t.Errorf("version %s", s.Version())
	}
}

// TestApplyChangeLateBehavior changes only the late phase: all checkpoints
// before cycle 50 remain consistent; the estimate is already exact.
func TestApplyChangeLateBehavior(t *testing.T) {
	s := newAccSession(t, accDesign)
	if _, err := s.InstPipe("p0"); err != nil {
		t.Fatal(err)
	}
	if err := s.Run("tb0", "p0", 60); err != nil {
		t.Fatal(err)
	}
	edited := strings.Replace(accDesign, "sum <= sum + d;", "sum <= sum + d + 1;", 1)
	rep, err := s.ApplyChange(srcOf(edited))
	if err != nil {
		t.Fatal(err)
	}
	if rep.NoChange || len(rep.Swapped) != 1 || rep.Swapped[0] != "acc_stage" {
		t.Fatalf("report %+v", rep)
	}
	rep.WaitVerification()
	for _, h := range rep.Verifications {
		if h.Err != nil {
			t.Fatal(h.Err)
		}
	}
	p := mustPipe(t, s, "p0")
	p.Sim.Settle()
	sum, _ := p.Sim.Out("sum")
	want := groundTruth(t, edited, 60)
	if sum != want {
		t.Errorf("sum %d, ground truth %d", sum, want)
	}
	if s.Version() != "v1" {
		t.Errorf("version %s", s.Version())
	}
}

// TestApplyChangeEarlyBehavior changes the early phase: checkpoints past
// the first step are invalid, the verifier must find the divergence and
// the refinement must land on ground truth.
func TestApplyChangeEarlyBehavior(t *testing.T) {
	s := newAccSession(t, accDesign)
	if _, err := s.InstPipe("p0"); err != nil {
		t.Fatal(err)
	}
	if err := s.Run("tb0", "p0", 60); err != nil {
		t.Fatal(err)
	}
	edited := strings.Replace(accDesign, "sum <= sum + 1;", "sum <= sum + 2;", 1)
	rep, err := s.ApplyChange(srcOf(edited))
	if err != nil {
		t.Fatal(err)
	}
	rep.WaitVerification()
	h := rep.Verifications[0]
	if h.Err != nil {
		t.Fatal(h.Err)
	}
	if h.Result.Consistent() {
		t.Fatal("verifier missed the early divergence")
	}
	if !h.Refined {
		t.Fatal("estimate was not refined")
	}
	p := mustPipe(t, s, "p0")
	p.Sim.Settle()
	sum, _ := p.Sim.Out("sum")
	want := groundTruth(t, edited, 60)
	if sum != want {
		t.Errorf("sum %d, ground truth %d", sum, want)
	}
}

// TestCheckpointReadsDuringVerification: another goroutine serializes and
// selects checkpoints while verification replays restore from them and
// the session adds new ones (run under -race): a checkpoint is its state,
// and nothing writes that state after Add.
func TestCheckpointReadsDuringVerification(t *testing.T) {
	s := newAccSession(t, accDesign)
	if _, err := s.InstPipe("p0"); err != nil {
		t.Fatal(err)
	}
	if err := s.Run("tb0", "p0", 60); err != nil {
		t.Fatal(err)
	}
	store := mustPipe(t, s, "p0").Checkpoints
	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			default:
			}
			for _, cp := range store.All() {
				if _, err := checkpoint.DecodeState(cp.Bytes()); err != nil {
					t.Error(err)
					return
				}
			}
			store.Select(100, 10)
		}
	}()
	rep, err := s.ApplyChange(srcOf(strings.Replace(accDesign, "sum <= sum + 1;", "sum <= sum + 2;", 1)))
	if err != nil {
		t.Fatal(err)
	}
	rep.WaitVerification()
	if err := s.Run("tb0", "p0", 40); err != nil {
		t.Fatal(err)
	}
	close(stop)
	<-done
	if h := rep.Verifications[0]; h.Err != nil || !h.Refined {
		t.Errorf("verification %+v", h)
	}
}

// TestApplyChangeRegisterRename exercises the Table V rules end to end:
// a register is renamed; the best-guess transform maps its value across
// the reload.
func TestApplyChangeRegisterRename(t *testing.T) {
	s := newAccSession(t, accDesign)
	if _, err := s.InstPipe("p0"); err != nil {
		t.Fatal(err)
	}
	if err := s.Run("tb0", "p0", 60); err != nil {
		t.Fatal(err)
	}
	edited := strings.ReplaceAll(accDesign, "cyc", "cyc_r")
	rep, err := s.ApplyChange(srcOf(edited))
	if err != nil {
		t.Fatal(err)
	}
	rep.WaitVerification()
	for _, h := range rep.Verifications {
		if h.Err != nil {
			t.Fatal(h.Err)
		}
		if !h.Result.Consistent() {
			t.Errorf("rename should be state-preserving; divergence %+v", h.Result.FirstDivergence)
		}
	}
	p := mustPipe(t, s, "p0")
	v, err := p.Sim.Peek("top.u0.cyc_r")
	if err != nil {
		t.Fatal(err)
	}
	if v != 60 {
		t.Errorf("renamed register lost value: %d", v)
	}
	// The version graph recorded the rename.
	desc := s.TransformOps().Describe()
	if !strings.Contains(desc, "rename cyc, cyc_r") {
		t.Errorf("transform history missing rename:\n%s", desc)
	}
}

func TestRunAfterChangeContinues(t *testing.T) {
	s := newAccSession(t, accDesign)
	if _, err := s.InstPipe("p0"); err != nil {
		t.Fatal(err)
	}
	if err := s.Run("tb0", "p0", 60); err != nil {
		t.Fatal(err)
	}
	edited := strings.Replace(accDesign, "sum <= sum + d;", "sum <= sum + d + 1;", 1)
	rep, err := s.ApplyChange(srcOf(edited))
	if err != nil {
		t.Fatal(err)
	}
	rep.WaitVerification()
	if err := s.Run("tb0", "p0", 40); err != nil {
		t.Fatal(err)
	}
	p := mustPipe(t, s, "p0")
	if p.Sim.Cycle() != 100 {
		t.Errorf("cycle %d", p.Sim.Cycle())
	}
	sum, _ := p.Sim.Out("sum")
	want := groundTruth(t, edited, 100)
	if sum != want {
		t.Errorf("sum %d want %d", sum, want)
	}
}

func TestCountingTBSnapshotRestore(t *testing.T) {
	f := NewCountingTB(nil)
	tb := f()
	ctb := tb.(*CountingTB)
	ctb.Steps = 42
	snap := tb.Snapshot()
	tb2 := f()
	if err := tb2.Restore(snap); err != nil {
		t.Fatal(err)
	}
	if tb2.(*CountingTB).Steps != 42 {
		t.Errorf("steps %d", tb2.(*CountingTB).Steps)
	}
	if err := tb2.Restore([]byte{1}); err == nil {
		t.Error("want length error")
	}
}

func TestSessionErrors(t *testing.T) {
	s := NewSession("acc_top", Config{})
	if _, err := s.InstPipe("p0"); err == nil {
		t.Error("instPipe before load")
	}
	if _, err := s.LoadDesign(srcOf(accDesign)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.InstPipe("p0"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.InstPipe("p0"); err == nil {
		t.Error("duplicate pipe")
	}
	if err := s.Run("nope", "p0", 1); err == nil {
		t.Error("unknown testbench")
	}
	if err := s.Run("tb0", "nope", 1); err == nil {
		t.Error("unknown pipe")
	}
	if _, err := s.CopyPipe("p0", "p0"); err == nil {
		t.Error("copy onto existing name")
	}
	if _, err := s.CopyPipe("x", "nope"); err == nil {
		t.Error("copy of missing pipe")
	}
	if err := s.SaveCheckpoint("nope", "x"); err == nil {
		t.Error("save of missing pipe")
	}
	if err := s.LoadCheckpoint("nope", "x"); err == nil {
		t.Error("load of missing pipe")
	}
}

func TestVersionGraphOps(t *testing.T) {
	g := NewVersionGraph("v0")
	if err := g.Add("v1", "v0", nil); err != nil {
		t.Fatal(err)
	}
	if err := g.Add("v1", "v0", nil); err == nil {
		t.Error("duplicate version")
	}
	if err := g.Add("vx", "missing", nil); err == nil {
		t.Error("missing parent")
	}
	if err := g.EditOps("v1", "m", nil); err != nil {
		t.Fatal(err)
	}
	if err := g.EditOps("missing", "m", nil); err == nil {
		t.Error("edit missing version")
	}
	if _, err := g.PathOps("m", "v1", "v0"); err == nil {
		t.Error("descendant->ancestor should fail")
	}
	if got := g.Versions(); len(got) != 2 || g.Parent("v1") != "v0" {
		t.Errorf("versions %v", got)
	}
}

// TestVersionPruning: object tables for dead versions are released once
// no checkpoint references them.
func TestVersionPruning(t *testing.T) {
	s := newAccSession(t, accDesign)
	if _, err := s.InstPipe("p0"); err != nil {
		t.Fatal(err)
	}
	if err := s.Run("tb0", "p0", 60); err != nil {
		t.Fatal(err)
	}
	// Apply a chain of edits; each creates a version.
	src := accDesign
	for i := 0; i < 4; i++ {
		src = strings.Replace(src, "sum + d", "sum + d + 1", 1)
		src = strings.Replace(src, "sum + d + 1 + 1", "sum + d", 1) // alternate
		rep, err := s.ApplyChange(srcOf(src))
		if err != nil {
			t.Fatal(err)
		}
		rep.WaitVerification()
		if err := s.Run("tb0", "p0", 40); err != nil {
			t.Fatal(err)
		}
	}
	if s.Version() != "v4" {
		t.Fatalf("version %s", s.Version())
	}
	s.PruneVersions()
	// Old-version checkpoints that survived verification keep their
	// tables; at minimum the retained count must be far below 5 once
	// checkpoint GC and divergence-dropping run their course. Force the
	// stronger condition: drop all old checkpoints and prune again.
	p := mustPipe(t, s, "p0")
	for _, v := range []string{"v0", "v1", "v2", "v3"} {
		p.Checkpoints.DropVersionAfter(v, 0)
	}
	s.PruneVersions()
	if got := s.RetainedVersions(); got != 1 {
		t.Errorf("retained %d version tables, want 1", got)
	}
	// The session still runs and checkpoints on the current version.
	if err := s.Run("tb0", "p0", 40); err != nil {
		t.Fatal(err)
	}
}
