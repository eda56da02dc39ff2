package core_test

import (
	"slices"
	"testing"

	"livesim/internal/codegen"
	"livesim/internal/core"
	"livesim/internal/livecompiler"
	"livesim/internal/pgas"
	"livesim/internal/sim"
	"livesim/internal/vm"
	"livesim/internal/xform"
)

// addedRegister adds a debug counter nothing reads to the writeback
// stage: the edit BestGuess answers with a create.
var addedRegister = pgas.Change{
	Name:       "wb-debug-counter",
	File:       "stage_wb.v",
	Old:        "  always @(posedge clk) begin\n    vr <= mem_valid;",
	New:        "  reg [31:0] dbg;\n  always @(posedge clk) begin\n    dbg <= dbg + 1;\n    vr <= mem_valid;",
	Behavioral: true,
}

// TestHotReloadMatchesAdaptedRestore: hot reload and the cross-version
// checkpoint restore carry state by the same rules. For every catalogued
// PGAS edit and one that adds a register, a 1x1 mesh runs the compute
// program past its halt (about 500 cycles), so the halt drain register
// the rename edit maps holds ones; then arm A hot-reloads each swapped
// object with the best-guess ops, and arm B restores a snapshot of the
// same cycle into a fresh simulation of the edited design. Every register
// slot, memory word and input-port slot must be the same in both.
func TestHotReloadMatchesAdaptedRestore(t *testing.T) {
	const n = 1
	images, err := pgas.ComputeImages(n, 1)
	if err != nil {
		t.Fatal(err)
	}
	base := pgas.Source(n)
	for _, ch := range append(slices.Clone(pgas.Changes), addedRegister) {
		if !ch.Behavioral {
			continue
		}
		t.Run(ch.Name, func(t *testing.T) {
			c := livecompiler.New(pgas.TopName(n), codegen.StyleGrouped, nil)
			res, err := c.Build(base)
			if err != nil {
				t.Fatal(err)
			}
			a, err := sim.New(sim.ResolverFunc(c.Resolver()), res.TopKey)
			if err != nil {
				t.Fatal(err)
			}
			if err := pgas.LoadImage(a, n, 0, images[0]); err != nil {
				t.Fatal(err)
			}
			if err := a.Tick(600); err != nil {
				t.Fatal(err)
			}
			snap := a.Snapshot()

			edited, err := ch.Apply(base)
			if err != nil {
				t.Fatal(err)
			}
			next, err := c.Build(edited)
			if err != nil {
				t.Fatal(err)
			}
			if len(next.Swapped) == 0 {
				t.Fatal("edit swapped nothing")
			}
			ops := make(map[string][]xform.Op)
			for _, key := range next.Swapped {
				var mig sim.MigrateFunc
				if prev := res.Objects[key]; prev != nil {
					ops[key] = xform.BestGuess(prev, next.Objects[key])
					mig = xform.Migrator(ops[key])
				}
				if _, err := a.Reload(key, mig); err != nil {
					t.Fatal(err)
				}
			}

			b, err := sim.New(sim.ResolverFunc(c.Resolver()), next.TopKey)
			if err != nil {
				t.Fatal(err)
			}
			if err := core.RestoreAdapted(b, snap, res.Objects, ops); err != nil {
				t.Fatal(err)
			}
			sameState(t, a, b)
		})
	}
}

// sameState requires a and b to hold the same hierarchy and, node by
// node, the same registers, memory words and input ports.
func sameState(t *testing.T, a, b *sim.Sim) {
	t.Helper()
	bNodes := make(map[string]*sim.Node)
	for _, nd := range b.Nodes() {
		bNodes[nd.Path] = nd
	}
	if len(a.Nodes()) != len(bNodes) {
		t.Fatalf("%d nodes after reload, %d after restore", len(a.Nodes()), len(bNodes))
	}
	for _, na := range a.Nodes() {
		nb := bNodes[na.Path]
		if nb == nil || nb.Obj != na.Obj {
			t.Fatalf("%s: restored under another object", na.Path)
		}
		for _, r := range na.Obj.Regs {
			if x, y := na.Inst.Slots[r.Cur], nb.Inst.Slots[r.Cur]; x != y {
				t.Errorf("%s reg %s: reload %#x, restore %#x", na.Path, r.Name, x, y)
			}
		}
		for _, p := range na.Obj.Ports {
			if x, y := na.Inst.Slots[p.Slot], nb.Inst.Slots[p.Slot]; p.Dir == vm.In && x != y {
				t.Errorf("%s input %s: reload %#x, restore %#x", na.Path, p.Name, x, y)
			}
		}
		for _, m := range na.Obj.Mems {
			if i := slices.Compare(na.Inst.Mems[m.Index], nb.Inst.Mems[m.Index]); i != 0 {
				t.Errorf("%s mem %s differs", na.Path, m.Name)
			}
		}
	}
}
