package core

import (
	"strings"
	"testing"
)

// TestApplyChangeAddedRegisterConsistent: an edit that only adds a
// register (a debug counter nothing reads) leaves every old checkpoint
// valid. The created register is unconstrained in the consistency check,
// so verification reports no divergence and refines nothing.
func TestApplyChangeAddedRegisterConsistent(t *testing.T) {
	s := newAccSession(t, accDesign)
	if _, err := s.InstPipe("p0"); err != nil {
		t.Fatal(err)
	}
	if err := s.Run("tb0", "p0", 60); err != nil {
		t.Fatal(err)
	}
	edited := strings.Replace(accDesign, "  always @(posedge clk) begin\n    cyc <= cyc + 1;",
		"  reg [31:0] dbg;\n  always @(posedge clk) begin\n    dbg <= dbg + 1;\n    cyc <= cyc + 1;", 1)
	if edited == accDesign {
		t.Fatal("edit did not apply")
	}
	rep, err := s.ApplyChange(srcOf(edited))
	if err != nil {
		t.Fatal(err)
	}
	rep.WaitVerification()
	if len(rep.Verifications) == 0 {
		t.Fatal("no verification started")
	}
	for i, h := range rep.Verifications {
		if h.Err != nil {
			t.Fatal(h.Err)
		}
		if !h.Result.Consistent() || h.Refined {
			t.Errorf("verification %d: first divergence %d, refined %v", i, h.Result.FirstDivergence, h.Refined)
		}
	}
	if desc := s.TransformOps().Describe(); !strings.Contains(desc, "create dbg") {
		t.Errorf("transform history missing the created register:\n%s", desc)
	}
	p := mustPipe(t, s, "p0")
	p.Sim.Settle()
	sum, _ := p.Sim.Out("sum")
	if want := groundTruth(t, edited, 60); sum != want {
		t.Errorf("sum %d, ground truth %d", sum, want)
	}
}
