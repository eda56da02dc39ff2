package sim_test

import (
	"fmt"
	"testing"

	"livesim/internal/codegen"
	"livesim/internal/pgas"
	"livesim/internal/randrtl"
	"livesim/internal/sim"
	"livesim/internal/vm"
)

// A capture holds each instance's state slots and memories, and the
// settle that ends a restore derives every other slot from them. The
// property: restoring such a capture into a simulation whose other slots
// hold anything at all — they are redrawn at random — leaves every slot a
// reader can name as restoring every slot would, and after each clock
// edge every slot but the dead temporaries of branchy comb and seq code
// (branchTemps), which keep whatever an earlier run left in them, and the
// slots nothing ever writes.

// restoreCase is one design, with what it needs before its first cycle.
type restoreCase struct {
	name string
	objs map[string]*vm.Object
	top  string
	load func(s *sim.Sim) error
}

func restoreCases(t *testing.T) []restoreCase {
	var cases []restoreCase
	for _, n := range []int{1, 16} {
		objs, top, err := pgas.Build(n, codegen.StyleGrouped)
		if err != nil {
			t.Fatal(err)
		}
		images, err := pgas.ComputeImages(n, 64)
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, restoreCase{fmt.Sprintf("pgas%d", n), objs, top, func(s *sim.Sim) error {
			for i, img := range images {
				if err := pgas.LoadImage(s, n, i, img); err != nil {
					return err
				}
			}
			return nil
		}})
	}
	for seed := uint64(1); seed <= 40; seed++ {
		for _, style := range []codegen.Style{codegen.StyleGrouped, codegen.StyleMux} {
			objs, top := sim.BuildDesign(t, randrtl.Module(seed, "rnd", 0), "rnd", style)
			cases = append(cases, restoreCase{fmt.Sprintf("randrtl%d/%s", seed, style), objs, top, func(*sim.Sim) error { return nil }})
			objs, top = sim.BuildDesign(t, randomHierarchy(seed, -1), "rndtop", style)
			cases = append(cases, restoreCase{fmt.Sprintf("hierarchy%d/%s", seed, style), objs, top, func(*sim.Sim) error { return nil }})
		}
	}
	return cases
}

// restoreRun drives one simulation with its own random stimulus.
type restoreRun struct {
	t   *testing.T
	s   *sim.Sim
	rng uint64
}

func (r *restoreRun) rand() uint64 {
	r.rng = r.rng*6364136223846793005 + 1442695040888963407
	return r.rng>>32 | r.rng<<32
}

// run drives every root input but the clock and ticks, cycles times.
func (r *restoreRun) run(cycles int) {
	r.t.Helper()
	for range cycles {
		for _, p := range r.s.Root.Obj.Ports {
			if p.Dir == vm.In && p.Name != "clk" {
				if err := r.s.SetIn(p.Name, r.rand()); err != nil {
					r.t.Fatal(err)
				}
			}
		}
		if err := r.s.Tick(1); err != nil {
			r.t.Fatal(err)
		}
	}
}

func TestStateOnlyRestoreMatchesFullRestore(t *testing.T) {
	for ci, c := range restoreCases(t) {
		t.Run(c.name, func(t *testing.T) {
			start := func(seed uint64) *restoreRun {
				s, err := sim.New(sim.TableResolver(c.objs), c.top)
				if err != nil {
					t.Fatal(err)
				}
				if err := c.load(s); err != nil {
					t.Fatal(err)
				}
				return &restoreRun{t: t, s: s, rng: seed}
			}
			src := start(uint64(ci))
			src.run(40 + int(src.rand()%40))
			st, full := src.s.Snapshot(), sim.FullState(src.s)

			// part ran elsewhere and has every slot the capture does not
			// hold redrawn; whole restores every slot.
			part, whole := start(uint64(ci)+1000), start(0)
			part.run(int(part.rand() % 50))
			sim.Scramble(part.s, part.rand)
			if err := part.s.Restore(st); err != nil {
				t.Fatal(err)
			}
			if err := whole.s.Restore(full); err != nil {
				t.Fatal(err)
			}
			if d := sim.SlotDiff(part.s, whole.s, unnamed); d != "" {
				t.Fatalf("after the restore: %s (state-only vs every slot)", d)
			}
			dead := map[*vm.Object][]bool{}
			skip := func(n *sim.Node, x uint32) bool {
				d, ok := dead[n.Obj]
				if !ok {
					d = deadCombTemps(n.Obj)
					for x, seq := range branchTemps(n.Obj, n.Obj.Seq) {
						d[x] = d[x] || seq
					}
					dead[n.Obj] = d
				}
				return d[x] || unnamed(n, x) && !n.Obj.UsedSlots().Has(x)
			}
			part.rng, whole.rng = 7, 7
			for cycle := range 24 {
				part.run(1)
				whole.run(1)
				if d := sim.SlotDiff(part.s, whole.s, skip); d != "" {
					t.Fatalf("cycle %d after the restore: %s (state-only vs every slot)", cycle+1, d)
				}
			}
		})
	}
}

// unnamed reports whether slot x of n has no name a reader outside the
// instance's code can use: no Debug name, port or child bind.
func unnamed(n *sim.Node, x uint32) bool {
	o := n.Obj
	for _, d := range o.Debug {
		if d.Slot == x {
			return false
		}
	}
	for _, p := range o.Ports {
		if p.Slot == x {
			return false
		}
	}
	for _, c := range o.Children {
		for _, b := range c.Binds {
			if b.ParentSlot == x {
				return false
			}
		}
	}
	return true
}
