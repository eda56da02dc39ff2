package vm_test

import (
	"fmt"
	"slices"
	"testing"

	"livesim/internal/codegen"
	"livesim/internal/pgas"
	"livesim/internal/vm"
)

// TestEdgeMatchesComb holds every object's edge program and Deps to
// vm.CheckEdge: on the random modules of every randrtl seed the codegen
// tests use, in both codegen styles, and on the PGAS 4x4 objects, from
// several random states each.
func TestEdgeMatchesComb(t *testing.T) {
	var objs []*vm.Object
	for _, style := range []codegen.Style{codegen.StyleGrouped, codegen.StyleMux} {
		for seed := uint64(1); seed <= 40; seed++ {
			objs = append(objs, compileRandom(t, seed, style))
		}
		table, _, err := pgas.Build(16, style)
		if err != nil {
			t.Fatal(err)
		}
		for _, o := range table {
			objs = append(objs, o)
		}
	}
	rng := uint64(1)
	rand := func() uint64 {
		rng = rng*6364136223846793005 + 1442695040888963407
		return rng ^ rng>>29
	}
	sliced := 0
	for _, o := range objs {
		if e := o.Edge(); !e.Whole && len(e.Code) > 0 {
			sliced++
		}
		for i := 0; i < 8; i++ {
			if err := vm.CheckEdge(o, rand); err != nil {
				t.Fatal(err)
			}
		}
	}
	if sliced == 0 {
		t.Error("no object has an edge program short of its whole comb code")
	}
}

// edgeObject is a module with input slot 0, registers in slots 1 and 2
// and the given comb code, whose Out ports are the given slots.
func edgeObject(comb []vm.Instr, outs ...uint32) *vm.Object {
	o := &vm.Object{Key: "e", NumSlots: 16, Comb: comb,
		Ports: []vm.Port{{Name: "in", Dir: vm.In, Slot: 0, Mask: ^uint64(0)}},
		Regs: []vm.Reg{{Name: "r1", Cur: 1, Next: 11, Mask: ^uint64(0)},
			{Name: "r2", Cur: 2, Next: 12, Mask: ^uint64(0)}}}
	for i, s := range outs {
		o.Ports = append(o.Ports, vm.Port{Name: fmt.Sprintf("o%d", i), Dir: vm.Out, Slot: s, Mask: ^uint64(0)})
	}
	return o
}

// TestDepsOfBranches: a slot both arms of a branch write depends on the
// condition and on what the arms read, not on its value before Comb ran;
// a slot one arm writes depends on that too; a slot Comb does not write
// depends on itself; the edge program is the slice that computes the
// outputs on state alone, with its jumps retargeted.
func TestDepsOfBranches(t *testing.T) {
	o := edgeObject([]vm.Instr{
		{Op: vm.OpEq, Dst: 3, A: 1, B: 2},                   // 0: s3 = r1 == r2
		{Op: vm.OpAdd, Dst: 9, A: 0, B: 1, Imm: ^uint64(0)}, // 1: s9 = in + r1, not needed
		{Op: vm.OpJz, A: 3, B: 5},                           // 2
		{Op: vm.OpMove, Dst: 4, A: 1},                       // 3: s4 = r1
		{Op: vm.OpJmp, B: 6},                                // 4
		{Op: vm.OpMove, Dst: 4, A: 2},                       // 5: s4 = r2
		{Op: vm.OpJz, A: 0, B: 8},                           // 6: if in
		{Op: vm.OpMove, Dst: 5, A: 1},                       // 7:   s5 = r1
		{Op: vm.OpMove, Dst: 6, A: 0},                       // 8: s6 = in
	}, 4, 5, 6, 7)
	for slot, want := range map[uint32][]uint32{4: {}, 5: {0, 5}, 6: {0}, 7: {7}} {
		if got := o.Deps(slot); !slices.Equal(got, want) {
			t.Errorf("Deps(%d) = %v, want %v", slot, got, want)
		}
	}
	e := o.Edge()
	if e.Whole || !slices.Equal(e.PC, []uint32{0, 2, 3, 4, 5}) {
		t.Fatalf("edge program at comb pcs %v (whole %v), want [0 2 3 4 5]", e.PC, e.Whole)
	}
	if e.Code[1].B != 4 || e.Code[3].B != 5 {
		t.Errorf("edge jumps to %d and %d, want 4 and 5:\n%v", e.Code[1].B, e.Code[3].B, e.Code)
	}
	if !e.Computes.Has(4) || e.Computes.Has(5) || e.Computes.Has(6) {
		t.Error("Computes must hold slot 4 alone among the outputs")
	}
	for seed := uint64(1); seed < 20; seed++ {
		if err := vm.CheckEdge(o, func() uint64 { seed = seed*0x9E3779B97F4A7C15 + 1; return seed >> (seed % 64) }); err != nil {
			t.Fatal(err)
		}
	}
}

// TestEdgeWhole: a Comb that reads nothing but state is its own edge
// program; one with a backward jump makes each output it writes depend on
// every non-state slot it reads and on the output's own value.
func TestEdgeWhole(t *testing.T) {
	o := edgeObject([]vm.Instr{{Op: vm.OpAdd, Dst: 4, A: 1, B: 2, Imm: ^uint64(0)}}, 4, 1)
	if e := o.Edge(); !e.Whole || len(e.Code) != 1 || !e.Computes.Has(4) || !e.Computes.Has(1) {
		t.Errorf("edge %+v, want the whole comb code computing both outputs", e)
	}
	loop := edgeObject([]vm.Instr{
		{Op: vm.OpMove, Dst: 4, A: 1},
		{Op: vm.OpJz, A: 0, B: 0},
	}, 4)
	if got := loop.Deps(4); !slices.Equal(got, []uint32{0, 4}) || loop.Edge().Whole {
		t.Errorf("with a backward jump, Deps(4) = %v and whole %v, want [0 4] and false", got, loop.Edge().Whole)
	}
}
