package sim_test

import (
	"fmt"
	"strings"
	"testing"

	"livesim/internal/codegen"
	"livesim/internal/livecompiler"
	"livesim/internal/pgas"
	"livesim/internal/randrtl"
	"livesim/internal/sim"
	"livesim/internal/vm"
)

// The differential oracle: the compiled settle schedule and the reference
// fixed-point loop (reference_test.go) run the same design in lock step,
// under the same stimulus, pokes, snapshot/restore and hot reload, and
// must agree on every memory word and every slot of every instance after
// every cycle — except the dead temporaries of branchy comb code, see
// deadCombTemps.

// objTable is a Resolver whose objects the test replaces before a Reload.
type objTable struct{ objs map[string]*vm.Object }

func (o *objTable) Object(key string) (*vm.Object, error) {
	if obj, ok := o.objs[key]; ok {
		return obj, nil
	}
	return nil, fmt.Errorf("no object %q", key)
}

// lockstep is one design on both kernels.
type lockstep struct {
	t       *testing.T
	table   *objTable
	nu, ref *sim.Sim
	// vp, when set, routes both kernels through their profiled paths.
	vp   vm.Profiler
	rng  uint64
	dead map[*vm.Object][]bool // deadCombTemps per object
}

func newLockstep(t *testing.T, objs map[string]*vm.Object, top string, seed uint64) *lockstep {
	t.Helper()
	l := &lockstep{t: t, table: &objTable{objs}, rng: seed*0x9E3779B97F4A7C15 + 1, dead: map[*vm.Object][]bool{}}
	var err error
	if l.nu, err = sim.New(l.table, top); err != nil {
		t.Fatal(err)
	}
	if l.ref, err = sim.New(l.table, top); err != nil {
		t.Fatal(err)
	}
	return l
}

func (l *lockstep) rand(mod int) int {
	l.rng = l.rng*6364136223846793005 + 1442695040888963407
	return int((l.rng >> 33) % uint64(mod))
}

// both applies one operation to the two simulations.
func (l *lockstep) both(what string, f func(s *sim.Sim) error) {
	l.t.Helper()
	for _, s := range []*sim.Sim{l.nu, l.ref} {
		if err := f(s); err != nil {
			l.t.Fatalf("%s at cycle %d: %v", what, s.Cycle(), err)
		}
	}
}

// tick advances both kernels n cycles one at a time, comparing after each.
func (l *lockstep) tick(n int) {
	l.t.Helper()
	for i := 0; i < n; i++ {
		var err error
		if l.vp == nil {
			err = l.nu.Tick(1)
		} else {
			err = l.nu.TickProfiled(1, l.vp)
		}
		if err != nil {
			l.t.Fatalf("schedule: %v", err)
		}
		if err := sim.ReferenceTick(l.ref, 1, l.vp); err != nil {
			l.t.Fatalf("reference: %v", err)
		}
		l.compare()
	}
}

// settle settles both kernels without a clock edge and compares.
func (l *lockstep) settle() {
	l.t.Helper()
	if err := l.nu.Settle(); err != nil {
		l.t.Fatalf("schedule: %v", err)
	}
	if err := sim.ReferenceSettle(l.ref); err != nil {
		l.t.Fatalf("reference: %v", err)
	}
	l.compare()
}

func (l *lockstep) compare() {
	l.t.Helper()
	if l.nu.Cycle() != l.ref.Cycle() || l.nu.Finished() != l.ref.Finished() {
		l.t.Fatalf("schedule at cycle %d finished=%v, reference at cycle %d finished=%v",
			l.nu.Cycle(), l.nu.Finished(), l.ref.Cycle(), l.ref.Finished())
	}
	rn := l.ref.Nodes()
	for i, n := range l.nu.Nodes() {
		r := rn[i]
		dead, ok := l.dead[n.Obj]
		if !ok {
			dead = deadCombTemps(n.Obj)
			l.dead[n.Obj] = dead
		}
		for slot, v := range n.Inst.Slots {
			if rv := r.Inst.Slots[slot]; rv != v && !dead[slot] {
				l.t.Fatalf("cycle %d: %s (%s) slot %d %s: schedule %#x, reference %#x",
					l.nu.Cycle(), n.Path, n.Obj.Key, slot, slotName(n.Obj, uint32(slot)), v, rv)
			}
		}
		for mi, m := range n.Inst.Mems {
			for a, v := range m {
				if rv := r.Inst.Mems[mi][a]; rv != v {
					l.t.Fatalf("cycle %d: %s.%s[%d]: schedule %#x, reference %#x",
						l.nu.Cycle(), n.Path, n.Obj.Mems[mi].Name, a, v, rv)
				}
			}
		}
	}
}

// deadCombTemps marks the slots the comparison leaves out: unnamed
// temporaries that comb code writes inside a branch region (the grouped
// codegen style lowers ?: and if/else to jumps). When the final evaluation
// of a settle does not take the branch, such a slot keeps whatever an
// earlier evaluation, on inputs still in flight, left in it — a value that
// depends on the kernel's evaluation order and that nothing reads: comb
// code writes a temporary before every read, and ports, registers, named
// signals and anything the mux style produces are all compared.
func deadCombTemps(o *vm.Object) []bool {
	named := make([]bool, o.NumSlots)
	for _, p := range o.Ports {
		named[p.Slot] = true
	}
	for _, r := range o.Regs {
		named[r.Cur], named[r.Next] = true, true
	}
	for _, d := range o.Debug {
		named[d.Slot] = true
	}
	dead := make([]bool, o.NumSlots)
	end := 0 // comb instructions before end sit inside a branch region
	for pc, in := range o.Comb {
		switch in.Op {
		case vm.OpJmp, vm.OpJz, vm.OpJnz:
			if int(in.B) > end {
				end = int(in.B)
			}
		case vm.OpNop, vm.OpMemWr, vm.OpDisplay, vm.OpFinish:
		default:
			if pc < end && !named[in.Dst] {
				dead[in.Dst] = true
			}
		}
	}
	return dead
}

func slotName(o *vm.Object, slot uint32) string {
	for _, d := range o.Debug {
		if d.Slot == slot {
			return "(" + d.Name + ")"
		}
	}
	return "(unnamed)"
}

// pokeRandom pokes a random named signal of a random instance — ports and
// wires a neighbour or the instance's own comb code drives included.
func (l *lockstep) pokeRandom() {
	l.t.Helper()
	nodes := l.nu.Nodes()
	for try := 0; try < 16; try++ {
		n := nodes[l.rand(len(nodes))]
		if len(n.Obj.Debug) == 0 {
			continue
		}
		path := n.Path + "." + n.Obj.Debug[l.rand(len(n.Obj.Debug))].Name
		v := uint64(l.rand(1<<31)) * 0x100000001
		l.both("poke "+path, func(s *sim.Sim) error { return s.Poke(path, v) })
		return
	}
}

// pokeMemRandom writes a random word of a random memory, if there is one.
func (l *lockstep) pokeMemRandom() {
	l.t.Helper()
	var withMem []*sim.Node
	for _, n := range l.nu.Nodes() {
		if len(n.Obj.Mems) > 0 {
			withMem = append(withMem, n)
		}
	}
	if len(withMem) == 0 {
		return
	}
	n := withMem[l.rand(len(withMem))]
	m := n.Obj.Mems[l.rand(len(n.Obj.Mems))]
	path, addr, v := n.Path+"."+m.Name, uint64(l.rand(int(m.Depth))), uint64(l.rand(1<<31))
	l.both("pokemem "+path, func(s *sim.Sim) error { return s.PokeMem(path, addr, v) })
}

// driveInputs sets every root input except the clock to a random value.
func (l *lockstep) driveInputs() {
	l.t.Helper()
	for _, p := range l.nu.Root.Obj.Ports {
		if p.Dir != vm.In || p.Name == "clk" {
			continue
		}
		name, v := p.Name, uint64(l.rand(1<<31))*0x100000001
		l.both("setin "+name, func(s *sim.Sim) error { return s.SetIn(name, v) })
	}
}

// reload swaps in recompiled objects: every key of newObjs whose object is
// not the one currently in the table is hot-reloaded on both kernels.
func (l *lockstep) reload(newObjs map[string]*vm.Object) {
	l.t.Helper()
	var keys []string
	for key, obj := range newObjs {
		if old, ok := l.table.objs[key]; ok && old != obj {
			keys = append(keys, key)
		}
		l.table.objs[key] = obj
	}
	if len(keys) == 0 {
		l.t.Fatal("reload: nothing was recompiled")
	}
	for _, key := range keys {
		key := key
		l.both("reload "+key, func(s *sim.Sim) error {
			n, err := s.Reload(key, nil)
			if err == nil && n == 0 {
				err = fmt.Errorf("no instance swapped")
			}
			return err
		})
	}
}

// exercise is the common script: cycles of random stimulus with, spread
// over the run, a SetIn + Settle outside any tick, a Poke, a PokeMem, a
// Snapshot restored some cycles later, and a Reload of recompiled objects.
func (l *lockstep) exercise(cycles int, recompiled map[string]*vm.Object) {
	l.t.Helper()
	l.settle()
	phase := cycles / 8
	var snapNu, snapRef *sim.State
	for c := 0; c < cycles; c++ {
		if l.rand(4) == 0 {
			l.driveInputs()
		}
		switch c {
		case phase:
			l.driveInputs()
			l.settle()
		case 2 * phase:
			l.pokeRandom()
			l.settle()
		case 3 * phase:
			l.pokeMemRandom()
		case 4 * phase:
			snapNu, snapRef = l.nu.Snapshot(), l.ref.Snapshot()
		case 5 * phase:
			if err := l.nu.Restore(snapNu); err != nil {
				l.t.Fatal(err)
			}
			if err := l.ref.Restore(snapRef); err != nil {
				l.t.Fatal(err)
			}
			l.settle()
		case 6 * phase:
			l.reload(recompiled)
			l.settle()
		case 7 * phase:
			l.pokeRandom()
			l.pokeMemRandom()
		}
		l.tick(1)
	}
}

func TestDifferentialPGAS(t *testing.T) {
	programs := []struct {
		name   string
		images func(n int) ([][]uint64, error)
	}{
		{"compute", func(n int) ([][]uint64, error) { return pgas.ComputeImages(n, 64) }},
		{"tokenring", pgas.TokenRingImages},
		{"reduce", pgas.ReduceImages},
	}
	// The mid-run reload: decode stalls behind any pending MEM write, which
	// moves pipeline timing in every core.
	var hazard pgas.Change
	for _, c := range pgas.Changes {
		if c.Name == "id-hazard-tighten" {
			hazard = c
		}
	}
	for _, n := range []int{1, 4, 16} {
		objs, top, err := pgas.Build(n, codegen.StyleGrouped)
		if err != nil {
			t.Fatal(err)
		}
		edited, err := hazard.Apply(pgas.Source(n))
		if err != nil {
			t.Fatal(err)
		}
		res, err := livecompiler.New(pgas.TopName(n), codegen.StyleGrouped, nil).Build(edited)
		if err != nil {
			t.Fatal(err)
		}
		recompiled := map[string]*vm.Object{}
		for key, obj := range res.Objects {
			if obj.Hash() != objs[key].Hash() {
				recompiled[key] = obj
			}
		}
		for pi, p := range programs {
			n, p, seed := n, p, uint64(n*10+pi)
			t.Run(fmt.Sprintf("%dnodes/%s", n, p.name), func(t *testing.T) {
				images, err := p.images(n)
				if err != nil {
					t.Fatal(err)
				}
				table := make(map[string]*vm.Object, len(objs))
				for k, v := range objs {
					table[k] = v
				}
				l := newLockstep(t, table, top, seed)
				for i, img := range images {
					i, img := i, img
					l.both("load image", func(s *sim.Sim) error { return pgas.LoadImage(s, n, i, img) })
				}
				l.exercise(2048, recompiled)
			})
		}
	}
}

func TestDifferentialSmallDesigns(t *testing.T) {
	for _, d := range sim.TestDesigns {
		for _, style := range []codegen.Style{codegen.StyleGrouped, codegen.StyleMux} {
			d, style := d, style
			t.Run(d.Name+"/"+style.String(), func(t *testing.T) {
				objs, top := sim.BuildDesign(t, d.Src, d.Top, style)
				again, _ := sim.BuildDesign(t, d.Src, d.Top, style)
				delete(again, top) // the recompiled leaves are reloaded, the root stays
				newLockstep(t, objs, top, 7).exercise(256, again)
			})
		}
	}
}

// randomHierarchy generates a three-level design from random leaf modules:
// instances are chained through combinational ports inside each mid-level
// module and across them, and each mid-level module feeds one of its
// leaves' outputs back to its first leaf through a register, so the
// instance graph is cyclic while the combinational logic is not.
//
// alt >= 0 generates leaf module number alt from a different seed and
// leaves everything else as it is: the recompiled module of a hot reload.
func randomHierarchy(seed uint64, alt int) string {
	rng := seed*0xD1342543DE82EF95 + 7
	next := func(mod int) int {
		rng = rng*6364136223846793005 + 1442695040888963407
		return int((rng >> 33) % uint64(mod))
	}
	w := 4 + next(61)
	var sb strings.Builder
	var leaves []string
	for i, nLeaf := 0, 2+next(3); i < nLeaf; i++ {
		name, modSeed := fmt.Sprintf("leaf%d", i), seed*16+uint64(i)
		if i == alt {
			modSeed += 8
		}
		sb.WriteString(randrtl.Module(modSeed, name, w))
		leaves = append(leaves, name)
	}
	// chain instantiates the given modules one after another, each reading
	// the module's inputs, the feedback register or outputs of earlier
	// instances, and drives o0..o3 from outputs picked over all of them.
	chain := func(name string, mods []string) {
		fmt.Fprintf(&sb, "module %s (input clk, input [%d:0] a, b, c, output [%d:0] o0, o1, o2, o3);\n", name, w-1, w-1)
		fmt.Fprintf(&sb, "  reg [%d:0] fb;\n", w-1)
		avail := []string{"a", "b", "c", "fb"}
		pick := func() string {
			if next(4) == 0 {
				return fmt.Sprintf("(%s ^ %s)", avail[next(len(avail))], avail[next(len(avail))])
			}
			return avail[next(len(avail))]
		}
		var outs []string
		for i, m := range mods {
			fmt.Fprintf(&sb, "  wire [%d:0] u%d_o0, u%d_o1, u%d_o2, u%d_o3;\n", w-1, i, i, i, i)
			fmt.Fprintf(&sb, "  %s u%d (.clk(clk), .a(%s), .b(%s), .c(%s), .o0(u%d_o0), .o1(u%d_o1), .o2(u%d_o2), .o3(u%d_o3));\n",
				m, i, pick(), pick(), pick(), i, i, i, i)
			for o := 0; o < 4; o++ {
				outs = append(outs, fmt.Sprintf("u%d_o%d", i, o))
			}
			avail = append(avail, outs[len(outs)-4:]...)
		}
		fmt.Fprintf(&sb, "  always @(posedge clk) fb <= %s;\n", outs[next(len(outs))])
		for o := 0; o < 4; o++ {
			fmt.Fprintf(&sb, "  assign o%d = %s;\n", o, outs[next(len(outs))])
		}
		sb.WriteString("endmodule\n")
	}
	var mids []string
	for i, nMid := 0, 1+next(2); i < nMid; i++ {
		var mods []string
		for j, k := 0, 2+next(3); j < k; j++ {
			mods = append(mods, leaves[next(len(leaves))])
		}
		name := fmt.Sprintf("mid%d", i)
		chain(name, mods)
		mids = append(mids, name)
	}
	var mods []string
	for j, k := 0, 2+next(2); j < k; j++ {
		mods = append(mods, mids[next(len(mids))])
	}
	chain("rndtop", append(mods, leaves[next(len(leaves))]))
	return sb.String()
}

func TestDifferentialRandomHierarchies(t *testing.T) {
	seeds := 24
	if testing.Short() {
		seeds = 4
	}
	for seed := uint64(1); seed <= uint64(seeds); seed++ {
		seed := seed
		style := codegen.StyleGrouped
		if seed%3 == 0 {
			style = codegen.StyleMux
		}
		t.Run(fmt.Sprintf("seed%d/%s", seed, style), func(t *testing.T) {
			objs, top := sim.BuildDesign(t, randomHierarchy(seed, -1), "rndtop", style)
			// The reload replaces the top's last instance, always a leaf,
			// with a different random module of the same interface.
			last := objs[top].Children[len(objs[top].Children)-1].ObjectKey
			var alt int
			if _, err := fmt.Sscanf(last, "leaf%d", &alt); err != nil {
				t.Fatalf("top's last child is %q: %v", last, err)
			}
			newObjs, _ := sim.BuildDesign(t, randomHierarchy(seed, alt), "rndtop", style)
			recompiled := map[string]*vm.Object{last: newObjs[last]}
			newLockstep(t, objs, top, seed).exercise(192, recompiled)
		})
	}
}

// TestDifferentialProfiled runs both kernels through their profiled paths.
func TestDifferentialProfiled(t *testing.T) {
	objs, top, err := pgas.Build(4, codegen.StyleGrouped)
	if err != nil {
		t.Fatal(err)
	}
	images, err := pgas.ReduceImages(4)
	if err != nil {
		t.Fatal(err)
	}
	l := newLockstep(t, objs, top, 3)
	vp := &countingProfiler{}
	l.vp = vp
	for i, img := range images {
		i, img := i, img
		l.both("load image", func(s *sim.Sim) error { return pgas.LoadImage(s, 4, i, img) })
	}
	l.tick(512)
	if vp.instrs == 0 {
		t.Error("the profiler saw no instructions")
	}
}

type countingProfiler struct{ instrs int }

func (c *countingProfiler) Instr(uint64, bool, bool) { c.instrs++ }
func (c *countingProfiler) Data(uint64, bool)        {}
