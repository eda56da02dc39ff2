package pgas

import (
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"

	"livesim/internal/codegen"
	"livesim/internal/prof"
	"livesim/internal/sim"
	"livesim/internal/vm"
)

// opMix is a vm.Profiler that turns the executed code addresses back into
// instructions: how often each opcode runs, how often an instruction reads
// the destination of the one executed just before it at pc-1 — the pairs a
// lowering or a peephole could turn into one op — and what kind of slot
// each move copies into what kind of slot, the census of moves left.
type opMix struct {
	objs  []*vm.Object // sorted by BaseAddr
	ops   [256]uint64
	pair  map[[2]vm.OpCode]uint64
	kinds map[*vm.Object][]string // slot -> kind, see slotKinds
	moves map[[2]string]uint64    // source kind, destination kind

	prevObj *vm.Object
	prevPC  int
	prev    *vm.Instr
}

func newOpMix(s *sim.Sim) *opMix {
	m := &opMix{pair: map[[2]vm.OpCode]uint64{}, kinds: map[*vm.Object][]string{}, moves: map[[2]string]uint64{}}
	for _, n := range s.Nodes() {
		if _, seen := m.kinds[n.Obj]; !seen {
			m.kinds[n.Obj] = slotKinds(n)
			m.objs = append(m.objs, n.Obj)
		}
	}
	sort.Slice(m.objs, func(i, j int) bool { return m.objs[i].BaseAddr < m.objs[j].BaseAddr })
	return m
}

func (m *opMix) Instr(addr uint64, _, _ bool) {
	i := sort.Search(len(m.objs), func(i int) bool { return m.objs[i].BaseAddr > addr }) - 1
	o := m.objs[i]
	pc := int(addr-o.BaseAddr) / vm.InstrBytes
	code, at := o.Comb, pc
	if pc >= len(o.Comb) {
		code, at = o.Seq, pc-len(o.Comb)
	}
	ins := &code[at]
	m.ops[ins.Op]++
	if ins.Op == vm.OpMove {
		k := m.kinds[o]
		m.moves[[2]string{k[ins.A], k[ins.Dst]}]++
	}
	if m.prev != nil && m.prevObj == o && m.prevPC+1 == pc && m.prev.Op.Pure() {
		dep := false
		ins.Reads(o, func(slot uint32) { dep = dep || slot == m.prev.Dst })
		if dep {
			m.pair[[2]vm.OpCode{m.prev.Op, ins.Op}]++
		}
	}
	m.prevObj, m.prevPC, m.prev = o, pc, ins
}

func (m *opMix) Data(uint64, bool) {}

// slotKinds names what each slot of n's object is, for the move census: a
// register's current or next value, a constant, an input port, a slot a
// child's output drives, an output port, another named wire, or a
// temporary with one writer or more. A slot with several roles, which
// tidy's aliasing makes, takes the first of that list.
func slotKinds(n *sim.Node) []string {
	o := n.Obj
	kinds := make([]string, o.NumSlots)
	writers := make([]int, o.NumSlots)
	for _, code := range [][]vm.Instr{o.Comb, o.Seq} {
		for _, in := range code {
			if in.Op.Pure() {
				writers[in.Dst]++
			}
		}
	}
	for s, w := range writers {
		kinds[s] = "temp"
		if w > 1 {
			kinds[s] = "multi-writer temp"
		}
	}
	set := func(slot uint32, kind string) {
		if !strings.HasSuffix(kinds[slot], "temp") {
			return // a kind set earlier comes first
		}
		kinds[slot] = kind
	}
	for _, r := range o.Regs {
		set(r.Cur, "reg")
		set(r.Next, "reg next")
	}
	for _, c := range o.Consts {
		set(c.Slot, "const")
	}
	for _, p := range o.Ports {
		if p.Dir == vm.In {
			set(p.Slot, "in port")
		}
	}
	for ci, spec := range o.Children {
		for _, b := range spec.Binds {
			if n.Children[ci].Obj.Ports[b.ChildPort].Dir == vm.Out {
				set(b.ParentSlot, "child out")
			}
		}
	}
	for _, p := range o.Ports {
		set(p.Slot, "out port")
	}
	for _, d := range o.Debug {
		set(d.Slot, "wire")
	}
	return kinds
}

// movesPerCycle is the number of moves the census counted, per cycle.
func (m *opMix) movesPerCycle(cycles int) float64 {
	var n uint64
	for _, c := range m.moves {
		n += c
	}
	return float64(n) / float64(cycles)
}

// report renders ops/cycle per opcode and the top dependent pairs.
func (m *opMix) report(cycles int) string {
	type row struct {
		name string
		n    uint64
	}
	var ops, pairs []row
	var total uint64
	for op, n := range m.ops {
		if n > 0 {
			ops = append(ops, row{vm.OpCode(op).String(), n})
			total += n
		}
	}
	for p, n := range m.pair {
		pairs = append(pairs, row{p[0].String() + "→" + p[1].String(), n})
	}
	var moves []row
	for k, n := range m.moves {
		moves = append(moves, row{k[0] + " → " + k[1], n})
	}
	byCount := func(r []row) {
		sort.Slice(r, func(i, j int) bool {
			if r[i].n != r[j].n {
				return r[i].n > r[j].n
			}
			return r[i].name < r[j].name
		})
	}
	byCount(ops)
	byCount(pairs)
	byCount(moves)
	if len(pairs) > 10 {
		pairs = pairs[:10]
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "%.1f ops/cycle over %d cycles\n", float64(total)/float64(cycles), cycles)
	for _, part := range []struct {
		title string
		rows  []row
	}{{"opcode", ops}, {"dependent pair (pc, pc+1)", pairs}, {"move, source → destination", moves}} {
		fmt.Fprintf(&sb, "  %-36s %10s %6s\n", part.title, "per cycle", "share")
		for _, r := range part.rows {
			fmt.Fprintf(&sb, "  %-36s %10.1f %5.1f%%\n", r.name,
				float64(r.n)/float64(cycles), 100*float64(r.n)/float64(total))
		}
	}
	return sb.String()
}

// computeSim is a side x side mesh running the compute kernel, ticked
// warm cycles.
func computeSim(t *testing.T, side, warm int) *sim.Sim {
	t.Helper()
	n := side * side
	s, err := NewSim(n, codegen.StyleGrouped)
	if err != nil {
		t.Fatal(err)
	}
	images, err := ComputeImages(n, 1<<30)
	if err != nil {
		t.Fatal(err)
	}
	for i, img := range images {
		if err := LoadImage(s, n, i, img); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Tick(warm); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestOpMix runs the compute kernel on the 1x1 and 4x4 meshes and holds
// executed VM ops per cycle, and moves among them, under a ceiling, so
// that a lowering regression in internal/codegen fails `go test ./...` and
// not only the benchmark. With -v it prints the dynamic op histogram and
// the move census the ceilings came from (`make opmix`).
func TestOpMix(t *testing.T) {
	const warm, cycles = 1024, 256
	for _, c := range []struct {
		side           int
		ceiling, moves float64
	}{{1, 215, 40}, {4, 3700, 800}} {
		c := c
		t.Run(fmt.Sprintf("%dx%d", c.side, c.side), func(t *testing.T) {
			s := computeSim(t, c.side, warm)
			ops0 := s.Stats.Ops
			m := newOpMix(s)
			if err := s.TickProfiled(cycles, m); err != nil {
				t.Fatal(err)
			}
			t.Logf("PGAS %dx%d, compute kernel: %s", c.side, c.side, m.report(cycles))
			if got := float64(s.Stats.Ops-ops0) / cycles; got > c.ceiling {
				t.Errorf("%.0f VM ops/cycle, ceiling %.0f: a lowering in internal/codegen got more expensive (run with -v for the op mix)", got, c.ceiling)
			}
			if got := m.movesPerCycle(cycles); got > c.moves {
				t.Errorf("%.0f moves/cycle, ceiling %.0f: a move tidy used to remove is back (run with -v for the census)", got, c.moves)
			}
		})
	}
}

// TestOpMixKernel runs the compute kernel on the 1x1 and 4x4 meshes and
// holds the kernel's own work per cycle under a ceiling: bind copies
// (binds pushed, producer slot to consumer slot, transit slots skipped),
// comb evaluations (in the settle, whole or the rest after the edge
// program, or at the clock edge when an edge program is the whole comb
// code) and clock edges run (instances whose Seq could not change
// anything are skipped), the latter two counted by the activity profiler.
// A copy through every wiring level and a clock edge on every instance
// read 110 copies and 9 seq evals per cycle at 1x1, 2 120 and 130 at 4x4;
// ranking the settle cheapest comb program first and computing no output
// at the edge read 127–130 comb evaluations per cycle at 4x4; an input
// tied to a constant counted as an input, not state, and a settle that
// pushed every bind after every evaluation read 1 139 copies and 97 comb
// evaluations.
// Transit slots are filled only when slots are read (sim.Sim.Sync), never
// by Tick itself; with -v it prints how many one Sync fills, and per
// object the comb evaluations and edge-program runs per cycle.
func TestOpMixKernel(t *testing.T) {
	const warm, cycles = 1024, 256
	for _, c := range []struct {
		side                        int
		copies, combEvals, seqEvals float64
	}{{1, 45, 9, 7}, {4, 800, 95, 110}} {
		c := c
		t.Run(fmt.Sprintf("%dx%d", c.side, c.side), func(t *testing.T) {
			s := computeSim(t, c.side, warm)
			k0 := s.Counts()
			p := prof.New()
			s.SetProfiler(p)
			for i := 0; i < cycles; i++ {
				if err := s.Tick(1); err != nil {
					t.Fatal(err)
				}
			}
			s.SetProfiler(nil)
			k := s.Counts()
			s.Sync()
			fills := s.Counts().Fills - k.Fills
			copies := float64(k.Copies-k0.Copies) / cycles
			tot := p.Totals()
			combEvals, seqEvals := float64(tot.CombEvals)/cycles, float64(tot.SeqEvals)/cycles
			t.Logf("PGAS %dx%d, compute kernel: %.1f bind copies/cycle, %.1f comb evals/cycle, %.1f edge-program runs/cycle, %.1f seq evals/cycle of %d instances, %d transit slots filled per Sync\n%s",
				c.side, c.side, copies, combEvals, float64(tot.EdgeEvals)/cycles, seqEvals, s.NumInstances(), fills, evalsByObject(p.Snapshot(), cycles))
			if copies > c.copies {
				t.Errorf("%.0f bind copies/cycle, ceiling %.0f", copies, c.copies)
			}
			if combEvals > c.combEvals {
				t.Errorf("%.0f comb evals/cycle, ceiling %.0f", combEvals, c.combEvals)
			}
			if seqEvals > c.seqEvals {
				t.Errorf("%.0f seq evals/cycle, ceiling %.0f", seqEvals, c.seqEvals)
			}
			if k.Fills != k0.Fills {
				t.Errorf("%d transit slots filled by %d Ticks with no read in between, want 0", k.Fills-k0.Fills, cycles)
			}
		})
	}
}

// evalsByObject renders, per object, its instances and their comb
// evaluations and edge-program runs per cycle.
func evalsByObject(snap *prof.Snapshot, cycles int) string {
	type row struct {
		insts             int
		comb, edge, whole uint64
	}
	rows := map[string]*row{}
	var keys []string
	for _, in := range snap.Insts {
		r := rows[in.Key]
		if r == nil {
			r = &row{}
			rows[in.Key] = r
			keys = append(keys, in.Key)
		}
		r.insts++
		r.comb += in.CombEvals
		r.edge += in.EdgeEvals
	}
	sort.Strings(keys)
	var sb strings.Builder
	fmt.Fprintf(&sb, "  %-12s %5s %14s %14s\n", "object", "insts", "comb evals", "edge runs")
	for _, key := range keys {
		r := rows[key]
		fmt.Fprintf(&sb, "  %-12s %5d %14.1f %14.1f\n", key, r.insts,
			float64(r.comb)/float64(cycles), float64(r.edge)/float64(cycles))
	}
	return sb.String()
}

type noProfiler struct{}

func (noProfiler) Instr(uint64, bool, bool) {}
func (noProfiler) Data(uint64, bool)        {}

// TestTickProfiledMatchesTick: the VM's plain and profiled loops are two
// loops; 256 cycles of the compute kernel on the 4x4 mesh through each
// leave the same VM counters and the same slots and memories everywhere.
func TestTickProfiledMatchesTick(t *testing.T) {
	const cycles = 256
	plain, profiled := computeSim(t, 4, 0), computeSim(t, 4, 0)
	if err := plain.Tick(cycles); err != nil {
		t.Fatal(err)
	}
	if err := profiled.TickProfiled(cycles, noProfiler{}); err != nil {
		t.Fatal(err)
	}
	if plain.Stats != profiled.Stats || plain.Cycle() != profiled.Cycle() {
		t.Errorf("cycle %d / %d, stats %+v / %+v", plain.Cycle(), profiled.Cycle(), plain.Stats, profiled.Stats)
	}
	pn, qn := plain.Nodes(), profiled.Nodes()
	for i, n := range pn {
		if !reflect.DeepEqual(n.Inst.Slots, qn[i].Inst.Slots) || !reflect.DeepEqual(n.Inst.Mems, qn[i].Inst.Mems) {
			t.Errorf("%s: state differs after %d cycles", n.Path, cycles)
		}
	}
}
