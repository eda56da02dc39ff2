package vm_test

import (
	"slices"
	"testing"

	"livesim/internal/codegen"
	"livesim/internal/hdl/ast"
	"livesim/internal/hdl/elab"
	"livesim/internal/hdl/parser"
	"livesim/internal/randrtl"
	"livesim/internal/vm"
)

// TestReadSets holds CombReads and SeqReads against a direct walk of each
// program's Instr.Reads — plus, for Seq, every register's Cur, which RunSeq
// copies into Next — and UsedSlots against both walks, every pure
// instruction's Dst, every register's Cur and Next and every constant, on
// the random modules of every randrtl seed the codegen tests use, in both
// codegen styles.
func TestReadSets(t *testing.T) {
	for _, style := range []codegen.Style{codegen.StyleGrouped, codegen.StyleMux} {
		for seed := uint64(1); seed <= 40; seed++ {
			obj := compileRandom(t, seed, style)
			walk := func(code []vm.Instr, regs []vm.Reg) []bool {
				want := make([]bool, obj.NumSlots)
				for _, r := range regs {
					want[r.Cur] = true
				}
				for _, in := range code {
					in.Reads(obj, func(slot uint32) { want[slot] = true })
				}
				return want
			}
			used := walk(obj.Comb, obj.Regs)
			for slot, r := range walk(obj.Seq, nil) {
				used[slot] = used[slot] || r
			}
			for _, r := range obj.Regs {
				used[r.Next] = true
			}
			for _, c := range obj.Consts {
				used[c.Slot] = true
			}
			for _, code := range [][]vm.Instr{obj.Comb, obj.Seq} {
				for _, in := range code {
					if in.Op.Pure() {
						used[in.Dst] = true
					}
				}
			}
			for _, c := range []struct {
				name string
				got  vm.SlotSet
				want []bool
			}{
				{"CombReads", obj.CombReads(), walk(obj.Comb, nil)},
				{"SeqReads", obj.SeqReads(), walk(obj.Seq, obj.Regs)},
				{"UsedSlots", obj.UsedSlots(), used},
			} {
				if len(c.got) != int(obj.NumSlots+63)/64 {
					t.Fatalf("seed %d %s: %s has %d words for %d slots", seed, style, c.name, len(c.got), obj.NumSlots)
				}
				for slot, want := range c.want {
					if c.got.Has(uint32(slot)) != want {
						t.Errorf("seed %d %s: %s has slot %d: %v, want %v", seed, style, c.name, slot, !want, want)
					}
				}
			}
			if len(obj.Regs) == 0 || !obj.SeqReads().Has(obj.Regs[0].Cur) || obj.CombReads().Has(obj.Regs[0].Next) {
				t.Errorf("seed %d %s: a register's Cur must be a Seq read and its Next no Comb read", seed, style)
			}
		}
	}
}

func compileRandom(t *testing.T, seed uint64, style codegen.Style) *vm.Object {
	t.Helper()
	sf, err := parser.ParseFile("r.v", randrtl.Module(seed, "rnd", 0))
	if err != nil {
		t.Fatal(err)
	}
	d, err := elab.Elaborate(map[string]*ast.Module{"rnd": sf.Modules[0]}, "rnd", nil)
	if err != nil {
		t.Fatal(err)
	}
	obj, err := codegen.Compile(d.Modules[d.TopKey], codegen.Options{Style: style})
	if err != nil {
		t.Fatal(err)
	}
	return obj
}

// TestStateSlots holds StateSlots to its rules on a hand-built object
// with one slot of each kind, and with a backward jump appended to Comb,
// which keeps every slot Comb reads.
func TestStateSlots(t *testing.T) {
	const mask = 0xff
	comb := []vm.Instr{
		{Op: vm.OpJz, A: 0, B: 3},                     // if a != 0:
		{Op: vm.OpMove, Dst: 8, A: 0},                 //   a branch temporary
		{Op: vm.OpMove, Dst: 6, A: 8},                 //   latch, written on this path alone
		{Op: vm.OpAdd, Dst: 1, A: 7, B: 2, Imm: mask}, // o = undriven + r
	}
	seq := []vm.Instr{
		{Op: vm.OpAdd, Dst: 5, A: 2, B: 4, Imm: mask}, // a temporary, written before any read
		{Op: vm.OpAdd, Dst: 3, A: 5, B: 9, Imm: mask}, // r's next value reads slot 9 ...
		{Op: vm.OpMove, Dst: 9, A: 5},                 // ... before Seq writes it
	}
	build := func(comb []vm.Instr) *vm.Object {
		return &vm.Object{
			Key: "kinds", NumSlots: 11,
			Ports:  []vm.Port{{Name: "a", Dir: vm.In, Slot: 0, Mask: mask}, {Name: "o", Dir: vm.Out, Slot: 1, Mask: mask}},
			Regs:   []vm.Reg{{Name: "r", Cur: 2, Next: 3, Mask: mask}},
			Consts: []vm.ConstInit{{Slot: 4, Value: 1}},
			Debug: []vm.SlotDebug{{Name: "a", Slot: 0, Bits: 8}, {Name: "o", Slot: 1, Bits: 8}, {Name: "r", Slot: 2, Bits: 8},
				{Name: "latch", Slot: 6, Bits: 8}, {Name: "undriven", Slot: 7, Bits: 8}},
			Comb: comb, Seq: seq,
		}
	}
	for _, c := range []struct {
		name string
		obj  *vm.Object
		want []uint32
	}{
		// Left out: o (Comb writes it on every path first), r's next value,
		// the constant, the two temporaries and slot 10, which nothing uses.
		{"forward", build(comb), []uint32{0, 2, 6, 7, 9}},
		// A loop keeps the branch temporary, which Comb reads, and o, which
		// the analysis no longer sees written on every path.
		{"backward", build(append(comb[:len(comb):len(comb)], vm.Instr{Op: vm.OpJz, A: 4, B: 0})), []uint32{0, 1, 2, 6, 7, 8, 9}},
	} {
		if err := c.obj.Validate(); err != nil {
			t.Fatal(err)
		}
		var got []uint32
		for x := range c.obj.NumSlots {
			if c.obj.StateSlots().Has(x) {
				got = append(got, x)
			}
		}
		if !slices.Equal(got, c.want) {
			t.Errorf("%s: state slots %v, want %v", c.name, got, c.want)
		}
	}
}
