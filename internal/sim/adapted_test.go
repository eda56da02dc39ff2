package sim

import (
	"fmt"
	"strings"
	"testing"

	"livesim/internal/codegen"
)

// TestRestoreAdaptedCrossVersion loads a snapshot into a reshaped
// hierarchy through a custom transfer function.
func TestRestoreAdaptedCrossVersion(t *testing.T) {
	v1 := `
module leaf (input clk, input [7:0] d, output reg [7:0] q);
  always @(posedge clk) q <= d;
endmodule
module root (input clk, input [7:0] in, output [7:0] out);
  leaf u0 (.clk(clk), .d(in), .q(out));
endmodule`
	objs, top := buildDesign(t, v1, "root", codegen.StyleGrouped)
	s1, err := New(tableResolver(objs), top)
	if err != nil {
		t.Fatal(err)
	}
	s1.SetIn("in", 0x5A)
	s1.Tick(3)
	snap := s1.Snapshot()

	// Same shape: adapted restore with a transform that doubles q.
	s2, err := New(tableResolver(objs), top)
	if err != nil {
		t.Fatal(err)
	}
	err = s2.RestoreAdapted(snap, func(n *Node, ns *NodeState) error {
		copy(n.Inst.Slots, ns.Slots)
		if n.Name == "u0" {
			r := n.Obj.RegByName("q")
			if r == nil {
				return fmt.Errorf("no reg q")
			}
			n.Inst.Slots[r.Cur] = (ns.Slots[r.Cur] * 2) & r.Mask
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if s2.Cycle() != 3 {
		t.Errorf("cycle %d", s2.Cycle())
	}
	s2.Settle()
	out, _ := s2.Out("out")
	if out != 0xB4 {
		t.Errorf("out %#x want 0xB4", out)
	}
}

// TestRestoreAdaptedMissingNodeZeroed: nodes absent from the snapshot
// power on at zero.
func TestRestoreAdaptedMissingNodeZeroed(t *testing.T) {
	src := `
module leaf (input clk, input [7:0] d, output reg [7:0] q);
  always @(posedge clk) q <= d;
endmodule
module root (input clk, input [7:0] in, output [7:0] out);
  leaf u0 (.clk(clk), .d(in), .q(out));
endmodule`
	objs, top := buildDesign(t, src, "root", codegen.StyleGrouped)
	s, _ := New(tableResolver(objs), top)
	s.SetIn("in", 9)
	s.Tick(2)
	snap := s.Snapshot()
	// Rename the node path in the snapshot so it no longer matches.
	snap.Nodes[1].Path = "top.renamed"
	if err := s.RestoreAdapted(snap, func(n *Node, ns *NodeState) error {
		copy(n.Inst.Slots, ns.Slots)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	s.Settle()
	out, _ := s.Out("out")
	if out != 0 {
		t.Errorf("unmatched node kept state: out=%d", out)
	}
}

// TestCrossModuleCombLoopDetected: a combinational cycle THROUGH module
// boundaries must be caught by the settle cap, not hang.
const combLoopSrc = `
module inv (input [3:0] x, output [3:0] y);
  assign y = x + 1;
endmodule
module root (output [3:0] o);
  wire [3:0] a, b;
  inv u0 (.x(b), .y(a));
  inv u1 (.x(a), .y(b));
  assign o = a;
endmodule`

func TestCrossModuleCombLoopDetected(t *testing.T) {
	objs, top := buildDesign(t, combLoopSrc, "root", codegen.StyleGrouped)
	s, err := New(tableResolver(objs), top)
	if err != nil {
		t.Fatal(err)
	}
	err = s.Settle()
	if err == nil || !strings.Contains(err.Error(), "converge") {
		t.Fatalf("want settle-convergence error, got %v", err)
	}
}

func TestSetCycle(t *testing.T) {
	objs, top := buildDesign(t, pipelineSrc, "pipe", codegen.StyleGrouped)
	s, _ := New(tableResolver(objs), top)
	s.SetCycle(1234)
	if s.Cycle() != 1234 {
		t.Errorf("cycle %d", s.Cycle())
	}
}

// TestReloadUnknownKeySwapsNothing: reloading a key no instance uses is a
// no-op, not an error.
func TestReloadUnknownKeyCount(t *testing.T) {
	objs, top := buildDesign(t, pipelineSrc, "pipe", codegen.StyleGrouped)
	s, _ := New(tableResolver(objs), top)
	// stage_dbl exists in the table; reload with the identical object.
	n, err := s.Reload("stage_dbl#W=8", nil)
	if err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Errorf("identical object swapped %d instances", n)
	}
	if _, err := s.Reload("nope", nil); err == nil {
		t.Error("want resolver error for unknown key")
	}
}

// TestFailedSettleStaysFailed: a settle that did not converge must not
// leave the simulation marked settled, or the next Settle (or Tick) would
// report success on unsettled state.
func TestFailedSettleStaysFailed(t *testing.T) {
	objs, top := buildDesign(t, combLoopSrc, "root", codegen.StyleGrouped)
	s, err := New(tableResolver(objs), top)
	if err != nil {
		t.Fatal(err)
	}
	for call := 1; call <= 2; call++ {
		if err := s.Settle(); err == nil || !strings.Contains(err.Error(), "converge") {
			t.Fatalf("Settle call %d: want settle-convergence error, got %v", call, err)
		}
	}
	if err := s.Tick(1); err == nil {
		t.Error("Tick after a failed settle reported success")
	}
	// The reference kernel rejects the same design.
	r, err := New(tableResolver(objs), top)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.referenceSettle(nil); err == nil || !strings.Contains(err.Error(), "converge") {
		t.Fatalf("reference: want settle-convergence error, got %v", err)
	}
}
