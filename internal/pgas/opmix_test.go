package pgas

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"livesim/internal/codegen"
	"livesim/internal/sim"
	"livesim/internal/vm"
)

// opMix is a vm.Profiler that turns the executed code addresses back into
// instructions: how often each opcode runs, and how often an instruction
// reads the destination of the one executed just before it at pc-1 — the
// pairs a lowering or a peephole could turn into one op.
type opMix struct {
	objs []*vm.Object // sorted by BaseAddr
	ops  [256]uint64
	pair map[[2]vm.OpCode]uint64

	prevObj *vm.Object
	prevPC  int
	prev    *vm.Instr
}

func newOpMix(s *sim.Sim) *opMix {
	m := &opMix{pair: map[[2]vm.OpCode]uint64{}}
	seen := map[*vm.Object]bool{}
	for _, n := range s.Nodes() {
		if !seen[n.Obj] {
			seen[n.Obj] = true
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
	if len(pairs) > 10 {
		pairs = pairs[:10]
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "%.1f ops/cycle over %d cycles\n", float64(total)/float64(cycles), cycles)
	for _, part := range []struct {
		title string
		rows  []row
	}{{"opcode", ops}, {"dependent pair (pc, pc+1)", pairs}} {
		fmt.Fprintf(&sb, "  %-26s %10s %6s\n", part.title, "per cycle", "share")
		for _, r := range part.rows {
			fmt.Fprintf(&sb, "  %-26s %10.1f %5.1f%%\n", r.name,
				float64(r.n)/float64(cycles), 100*float64(r.n)/float64(total))
		}
	}
	return sb.String()
}

// TestOpMix runs the compute kernel on the 1x1 and 4x4 meshes and holds
// executed VM ops per cycle under a ceiling, so that a lowering regression
// in internal/codegen fails `go test ./...` and not only the benchmark.
// With -v it prints the dynamic op histogram the ceilings came from
// (`make opmix`).
func TestOpMix(t *testing.T) {
	const warm, cycles = 1024, 256
	for _, c := range []struct {
		side    int
		ceiling float64
	}{{1, 400}, {4, 7200}} {
		c := c
		t.Run(fmt.Sprintf("%dx%d", c.side, c.side), func(t *testing.T) {
			n := c.side * c.side
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
			ops0 := s.Stats.Ops
			m := newOpMix(s)
			if err := s.TickProfiled(cycles, m); err != nil {
				t.Fatal(err)
			}
			t.Logf("PGAS %dx%d, compute kernel: %s", c.side, c.side, m.report(cycles))
			if got := float64(s.Stats.Ops-ops0) / cycles; got > c.ceiling {
				t.Errorf("%.0f VM ops/cycle, ceiling %.0f: a lowering in internal/codegen got more expensive (run with -v for the op mix)", got, c.ceiling)
			}
		})
	}
}
