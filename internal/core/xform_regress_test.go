package core

import (
	"fmt"
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

// TestCheckpointsNameTheirObjects: after an edit that adds a register,
// re-executed across a journal op boundary (tb0 then tb1) with a
// checkpoint due every cycle, each checkpoint's nodes fit the objects
// its Version names, and no two checkpoints share a cycle: the
// re-execution below the mark takes none, so the store holds the
// captures the runs took and nothing the edit made. The pipe's sum is a
// cold run's of the edited design (the created register starts at zero
// where the re-execution began, so only sum is compared).
func TestCheckpointsNameTheirObjects(t *testing.T) {
	drive := func(v uint64) TestbenchFactory {
		return NewStatelessTB(func(d *Driver, _ uint64) error { return d.SetIn("d", v) })
	}
	run := func(text string) *Session {
		s := NewSession("acc_top", Config{CheckpointEvery: 1, Lookback: 100})
		if _, err := s.LoadDesign(srcOf(text)); err != nil {
			t.Fatal(err)
		}
		s.RegisterTestbench("tb0", drive(3))
		s.RegisterTestbench("tb1", drive(5))
		if _, err := s.InstPipe("p0"); err != nil {
			t.Fatal(err)
		}
		for _, r := range []struct {
			tb     string
			cycles int
		}{{"tb0", 250}, {"tb1", 50}} {
			if err := s.Run(r.tb, "p0", r.cycles); err != nil {
				t.Fatal(err)
			}
		}
		return s
	}
	edited := strings.Replace(accDesign, "  always @(posedge clk) begin\n    cyc <= cyc + 1;",
		"  reg [31:0] dbg;\n  always @(posedge clk) begin\n    dbg <= dbg + 1;\n    cyc <= cyc + 1;", 1)
	s := run(accDesign)
	rep, err := s.ApplyChange(srcOf(edited))
	if err != nil {
		t.Fatal(err)
	}
	rep.WaitVerification()
	for _, h := range rep.Verifications {
		if h.Err != nil {
			t.Fatal(h.Err)
		}
	}

	p := mustPipe(t, s, "p0")
	cycles := map[uint64]string{}
	for _, cp := range p.Checkpoints.All() {
		at := fmt.Sprintf("checkpoint %d@%d/%s", cp.ID, cp.Cycle, cp.Version)
		if other, dup := cycles[cp.Cycle]; dup {
			t.Errorf("%s shares its cycle with %s", at, other)
		}
		cycles[cp.Cycle] = at
		s.mu.Lock()
		objects := s.versionObjects[cp.Version]
		s.mu.Unlock()
		if objects == nil {
			t.Fatalf("%s: version not retained", at)
		}
		for i := range cp.State.Nodes {
			ns := &cp.State.Nodes[i]
			obj := objects[ns.ObjKey]
			if obj == nil {
				t.Fatalf("%s: node %s: no object %s in its version", at, ns.Path, ns.ObjKey)
			}
			if ns.SlotCount() != int(obj.NumSlots) || len(ns.Mems) != len(obj.Mems) {
				t.Fatalf("%s: node %s holds %d slots and %d memories, its version's %s has %d and %d",
					at, ns.Path, ns.SlotCount(), len(ns.Mems), ns.ObjKey, obj.NumSlots, len(obj.Mems))
			}
		}
	}
	if n := len(cycles); n != 301 {
		t.Errorf("%d checkpoints, want one per cycle 0..300", n)
	}

	hot, _ := p.Sim.Out("sum")
	cold, _ := mustPipe(t, run(edited), "p0").Sim.Out("sum")
	if hot != cold {
		t.Errorf("sum %d, a cold run of the edit has %d", hot, cold)
	}
}
