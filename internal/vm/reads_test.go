package vm_test

import (
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
