package vm_test

import (
	"fmt"
	"slices"
	"sync"
	"testing"

	"livesim/internal/codegen"
	"livesim/internal/pgas"
	"livesim/internal/vm"
)

// TestEdgeMatchesComb holds every object's edge program, Rest and Deps to
// vm.CheckEdge, with no input and with random sets of inputs counted as
// state: on the random modules of every randrtl seed the codegen tests
// use, in both codegen styles, and on the PGAS 4x4 objects, from several
// random states each.
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
	sliced, rest := 0, 0
	for _, o := range objs {
		if e := o.Edge(); !e.Whole && len(e.Code) > 0 {
			sliced++
			if e.RestPC != nil {
				rest++
			}
		}
		for i := 0; i < 8; i++ {
			if err := vm.CheckEdge(o, rand); err != nil {
				t.Fatal(err)
			}
		}
	}
	if sliced == 0 || rest == 0 {
		t.Errorf("%d objects have an edge program short of their whole comb code, %d of them a Rest short of it; want some of each", sliced, rest)
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
		if got := o.Edge().Deps(slot); !slices.Equal(got, want) {
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
	// Rest: pc 1, and the branch at 6 around pc 7, then pc 8; the branches
	// at 2 and 4 skip only edge instructions.
	if !slices.Equal(e.RestPC, []uint32{1, 6, 7, 8}) || e.Rest[1].B != 3 {
		t.Errorf("rest at comb pcs %v, jump to %d; want [1 6 7 8] and 3:\n%v", e.RestPC, e.Rest[1].B, e.Rest)
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
	if got := loop.Edge().Deps(4); !slices.Equal(got, []uint32{0, 4}) || loop.Edge().Whole {
		t.Errorf("with a backward jump, Deps(4) = %v and whole %v, want [0 4] and false", got, loop.Edge().Whole)
	}
}

// TestRestRefused: when skipping the edge program could change what Comb
// leaves, Rest is Comb. In the first object a slot the edge program writes
// is read by the rest before the edge program's last write of it; in the
// second the edge program reads a slot no path has written yet. CheckEdge
// holds both.
func TestRestRefused(t *testing.T) {
	for name, o := range map[string]*vm.Object{
		"read before the last write": edgeObject([]vm.Instr{
			{Op: vm.OpMove, Dst: 4, A: 1},                       // 0: s4 = r1
			{Op: vm.OpMove, Dst: 5, A: 4},                       // 1: s5 = s4, the output
			{Op: vm.OpAdd, Dst: 6, A: 4, B: 0, Imm: ^uint64(0)}, // 2: s6 = s4 + in, reads r1
			{Op: vm.OpMove, Dst: 4, A: 2},                       // 3: s4 = r2
		}, 5),
		"undefined read": edgeObject([]vm.Instr{
			{Op: vm.OpMove, Dst: 4, A: 1},                       // 0: s4 = r1
			{Op: vm.OpMove, Dst: 5, A: 4},                       // 1: s5 = s4, the output
			{Op: vm.OpAdd, Dst: 4, A: 7, B: 2, Imm: ^uint64(0)}, // 2: s4 = s7 + r2, s7 never written
			{Op: vm.OpAdd, Dst: 6, A: 4, B: 0, Imm: ^uint64(0)}, // 3: s6 = s4 + in
		}, 5),
	} {
		e := o.Edge()
		if len(e.Code) == 0 || e.RestPC != nil || len(e.Rest) != len(o.Comb) {
			t.Errorf("%s: edge program %v, Rest at %v; want a slice and Rest = Comb", name, e.PC, e.RestPC)
		}
		for seed := uint64(1); seed < 20; seed++ {
			if err := vm.CheckEdge(o, func() uint64 { seed = seed*0x9E3779B97F4A7C15 + 1; return seed >> (seed % 64) }); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		}
	}
}

// TestEdgeForKnown: an input counted as state joins the edge program, each
// set gets its own analysis, cached, and EdgeFor is safe to call from
// several goroutines at once.
func TestEdgeForKnown(t *testing.T) {
	o := edgeObject([]vm.Instr{{Op: vm.OpAdd, Dst: 4, A: 0, B: 1, Imm: ^uint64(0)}}, 4)
	known := vm.SlotSet{1 << 0}
	if e := o.Edge(); e.Whole || !slices.Equal(e.Deps(4), []uint32{0}) {
		t.Errorf("no input known: whole %v, Deps(4) = %v; want false and [0]", e.Whole, e.Deps(4))
	}
	var wg sync.WaitGroup
	got := make([]*vm.Edge, 8)
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = o.EdgeFor(slices.Clone(known))
		}()
	}
	wg.Wait()
	e := got[0]
	if !e.Whole || len(e.Deps(4)) != 0 || !e.Known.Has(0) {
		t.Errorf("input 0 known: whole %v, Deps(4) = %v, Known %v; want true, [] and {0}", e.Whole, e.Deps(4), e.Known)
	}
	for _, g := range got {
		if g != e {
			t.Fatal("one known set, two analyses")
		}
	}
	if o.EdgeFor(vm.SlotSet{0}) != o.Edge() {
		t.Error("an empty known set is not the analysis with none")
	}
}
