package sim

import (
	"slices"
	"strings"
	"testing"

	"livesim/internal/codegen"
	"livesim/internal/vm"
	"livesim/internal/xform"
)

// TestRestoreAdaptedCrossVersion loads a snapshot into a hierarchy
// compiled from another version, carried by the plan of the ops given.
func TestRestoreAdaptedCrossVersion(t *testing.T) {
	v1 := `
module leaf (input clk, input [7:0] d, output reg [7:0] q);
  always @(posedge clk) q <= d;
endmodule
module root (input clk, input [7:0] in, output [7:0] out);
  leaf u0 (.clk(clk), .d(in), .q(out));
endmodule`
	v2 := `
module leaf (input clk, input [7:0] d, output [7:0] q);
  reg [7:0] held, extra;
  always @(posedge clk) begin held <= d; extra <= extra + 1; end
  assign q = held + extra;
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

	objs2, top2 := buildDesign(t, v2, "root", codegen.StyleGrouped)
	s2, err := New(tableResolver(objs2), top2)
	if err != nil {
		t.Fatal(err)
	}
	ops := []xform.Op{{Kind: xform.Rename, Name: "q", NewName: "held"}, {Kind: xform.Create, Name: "extra", Init: 3}}
	s2.RestoreAdapted(snap, objs, xform.Migrator(ops))
	if s2.Cycle() != 3 {
		t.Errorf("cycle %d", s2.Cycle())
	}
	s2.Settle()
	if out, _ := s2.Out("out"); out != 0x5D {
		t.Errorf("out %#x want 0x5D: q carried into held, extra created at 3", out)
	}
	if in, _ := s2.Peek("top.in"); in != 0x5A {
		t.Errorf("input in %#x, want 0x5A carried", in)
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
	s.RestoreAdapted(snap, objs, nil)
	s.Settle()
	out, _ := s.Out("out")
	if out != 0 {
		t.Errorf("unmatched node kept state: out=%d", out)
	}
}

// TestCarryRegisters: a plan's carried pairs land masked to the new
// width, its created registers take their Init, and a register the plan
// does not name keeps what it held.
func TestCarryRegisters(t *testing.T) {
	oldObj := regObj("old_name", "kept")
	newObj := regObj("new_name", "kept", "fresh")
	old, nu := vm.NewInstance(oldObj), vm.NewInstance(newObj)
	old.Slots[oldObj.Regs[0].Cur], old.Slots[oldObj.Regs[1].Cur] = 0x15A, 0x7
	nu.Slots[newObj.Regs[2].Cur] = 0x99
	plan := xform.NewPlan(oldObj, newObj, []xform.Op{{Kind: xform.Rename, Name: "old_name", NewName: "new_name"}})
	carry(plan, nu, (&NodeState{Slots: old.Slots}).slot, 0, nil)
	for i, want := range []uint64{0x5A, 0x7, 0x99} {
		if got := nu.Slots[newObj.Regs[i].Cur]; got != want {
			t.Errorf("%s = %#x, want %#x", newObj.Regs[i].Name, got, want)
		}
	}
	plan = xform.NewPlan(oldObj, newObj, []xform.Op{{Kind: xform.Create, Name: "fresh", Init: 0x133}})
	carry(plan, nu, (&NodeState{Slots: old.Slots}).slot, 0, nil)
	if got := nu.Slots[newObj.Regs[2].Cur]; got != 0x33 {
		t.Errorf("created fresh = %#x, want its Init masked, 0x33", got)
	}
	// A decoded checkpoint may hold fewer slots than the plan reads.
	carry(plan, nu, (&NodeState{}).slot, 0, nil)
}

// TestCarryMemsAndInputs: memories carry by name up to the smaller depth,
// masked to the new width; input ports carry by name only when an input
// in both versions.
func TestCarryMemsAndInputs(t *testing.T) {
	oldObj := &vm.Object{
		Mems:     []vm.Mem{{Name: "ram", Index: 0, Depth: 4, Mask: vm.Mask(16)}, {Name: "gone", Index: 1, Depth: 2, Mask: vm.Mask(8)}},
		Ports:    []vm.Port{{Name: "d", Dir: vm.In, Slot: 0, Mask: vm.Mask(16)}, {Name: "q", Dir: vm.Out, Slot: 1, Mask: vm.Mask(16)}},
		NumSlots: 2,
	}
	newObj := &vm.Object{
		Mems:     []vm.Mem{{Name: "ram", Index: 0, Depth: 6, Mask: vm.Mask(8)}},
		Ports:    []vm.Port{{Name: "q", Dir: vm.In, Slot: 0, Mask: vm.Mask(8)}, {Name: "d", Dir: vm.In, Slot: 1, Mask: vm.Mask(8)}},
		NumSlots: 2,
	}
	old, nu := vm.NewInstance(oldObj), vm.NewInstance(newObj)
	old.Slots[0], old.Slots[1] = 0x1234, 0x5678
	copy(old.Mems[0], []uint64{0x101, 0x202, 0x303, 0x404})
	carry(xform.Migrator(nil)(oldObj, newObj), nu, (&NodeState{Slots: old.Slots}).slot, len(old.Mems), func(i int, dst []uint64) int {
		return copy(dst, old.Mems[i])
	})
	if nu.Slots[1] != 0x34 || nu.Slots[0] != 0 {
		t.Errorf("ports %#x: want d carried and masked, q (an output before) left alone", nu.Slots)
	}
	if want := []uint64{0x01, 0x02, 0x03, 0x04, 0, 0}; !slices.Equal(nu.Mems[0], want) {
		t.Errorf("ram %#x, want %#x", nu.Mems[0], want)
	}
}

func regObj(names ...string) *vm.Object {
	obj := &vm.Object{Key: "t", ModName: "t"}
	for i, n := range names {
		obj.Regs = append(obj.Regs, vm.Reg{Name: n, Cur: uint32(2 * i), Next: uint32(2*i + 1), Mask: vm.Mask(8)})
	}
	obj.NumSlots = uint32(2 * len(names))
	return obj
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
