package codegen_test

import (
	"fmt"
	"testing"

	"livesim/internal/codegen"
	"livesim/internal/hdl/ast"
	"livesim/internal/hdl/elab"
	"livesim/internal/hdl/parser"
	"livesim/internal/pgas"
	"livesim/internal/randrtl"
	"livesim/internal/vm"
)

// tidy's input is its reference: every module here is lowered once, run
// as lowered and run tidied, side by side as bare instances under the same
// seeded stimulus, and everything the object tables name — ports,
// registers and their next values, Debug slots, memories — must agree
// after every RunComb and after every clock edge.

func elaborate(t *testing.T, files map[string]string, top string) *elab.Design {
	t.Helper()
	srcs := map[string]*ast.Module{}
	for name, text := range files {
		sf, err := parser.ParseFile(name, text)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range sf.Modules {
			srcs[m.Name] = m
		}
	}
	d, err := elab.Elaborate(srcs, top, nil)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// checkTidy runs every module of d in lock step, lowered against tidied.
func checkTidy(t *testing.T, d *elab.Design, style codegen.Style, seed uint64, cycles int) {
	t.Helper()
	tidied := map[string]*vm.Object{}
	for _, key := range d.Order { // children first
		ref, err := codegen.Lower(d.Modules[key], codegen.Options{Style: style})
		if err != nil {
			t.Fatalf("%s: %v", key, err)
		}
		if err := ref.Validate(); err != nil {
			t.Fatal(err)
		}
		obj, err := codegen.Compile(d.Modules[key], codegen.Options{Style: style})
		if err != nil {
			t.Fatalf("%s: %v", key, err)
		}
		tidied[key] = obj
		if len(obj.Comb) > len(ref.Comb) || len(obj.Seq) > len(ref.Seq) {
			t.Errorf("%s: tidy grew the code: comb %d -> %d, seq %d -> %d", key, len(ref.Comb), len(obj.Comb), len(ref.Seq), len(obj.Seq))
		}

		// What the kernel would write into an instance: input ports, and
		// the slots bound to a child's output ports.
		type driven struct {
			slot uint32
			mask uint64
		}
		var inputs []driven
		for _, p := range obj.Ports {
			if p.Dir == vm.In {
				inputs = append(inputs, driven{p.Slot, p.Mask})
			}
		}
		for _, c := range obj.Children {
			for _, b := range c.Binds {
				if cp := tidied[c.ObjectKey].Ports[b.ChildPort]; cp.Dir == vm.Out {
					inputs = append(inputs, driven{b.ParentSlot, cp.Mask})
				}
			}
		}

		a, b := vm.NewInstance(ref), vm.NewInstance(obj)
		compare := func(cycle int, when string) {
			t.Helper()
			slot := func(what string, s uint32) {
				t.Helper()
				if a.Slots[s] != b.Slots[s] {
					t.Fatalf("%s (%s, seed %d) cycle %d after %s: %s: lowered %#x, tidied %#x",
						key, style, seed, cycle, when, what, a.Slots[s], b.Slots[s])
				}
			}
			for _, p := range ref.Ports {
				slot("port "+p.Name, p.Slot)
			}
			for _, r := range ref.Regs {
				slot("reg "+r.Name, r.Cur)
				slot("next of reg "+r.Name, r.Next)
			}
			for _, dbg := range ref.Debug {
				slot("signal "+dbg.Name, dbg.Slot)
			}
			for m := range a.Mems {
				for i := range a.Mems[m] {
					if a.Mems[m][i] != b.Mems[m][i] {
						t.Fatalf("%s (%s, seed %d) cycle %d after %s: %s[%d]: lowered %#x, tidied %#x",
							key, style, seed, cycle, when, ref.Mems[m].Name, i, a.Mems[m][i], b.Mems[m][i])
					}
				}
			}
		}
		rng := seed
		for cycle := 0; cycle < cycles; cycle++ {
			for _, in := range inputs {
				rng = rng*6364136223846793005 + 1442695040888963407
				v := rng >> 11
				if cycle%7 == 3 {
					v = 0 // idle inputs let state settle into its rarer branches
				}
				a.Slots[in.slot], b.Slots[in.slot] = v&in.mask, v&in.mask
			}
			a.RunComb(nil)
			b.RunComb(nil)
			compare(cycle, "comb")
			a.RunSeq(nil)
			b.RunSeq(nil)
			ca, cb := a.Commit(), b.Commit()
			if ca != cb {
				t.Fatalf("%s cycle %d: Commit reports %v lowered, %v tidied", key, cycle, ca, cb)
			}
			compare(cycle, "clock edge")
		}
	}
}

func bothStyles(t *testing.T, f func(t *testing.T, style codegen.Style)) {
	for _, style := range []codegen.Style{codegen.StyleGrouped, codegen.StyleMux} {
		style := style
		t.Run(style.String(), func(t *testing.T) { f(t, style) })
	}
}

func TestTidyKeepsRandomModules(t *testing.T) {
	seeds := 40
	if testing.Short() {
		seeds = 6
	}
	bothStyles(t, func(t *testing.T, style codegen.Style) {
		for seed := uint64(1); seed <= uint64(seeds); seed++ {
			d := elaborate(t, map[string]string{"r.v": randrtl.Module(seed, "rnd", 0)}, "rnd")
			checkTidy(t, d, style, seed, 200)
		}
	})
}

func TestTidyKeepsPGASObjects(t *testing.T) {
	bothStyles(t, func(t *testing.T, style codegen.Style) {
		for _, n := range []int{1, 4} {
			t.Run(fmt.Sprintf("%dnodes", n), func(t *testing.T) {
				checkTidy(t, elaborate(t, pgas.DesignSource(n), pgas.TopName(n)), style, uint64(n), 400)
			})
		}
	})
}

// TestTidyLeavesObservedTemporaries: a temporary that Seq reads, or that
// two instructions read, is not forwarded away.
func TestTidyLeavesObservedTemporaries(t *testing.T) {
	d := elaborate(t, map[string]string{"t.v": `
module m (input clk, input [7:0] a, b, output [7:0] p, q, output reg [7:0] r);
  assign p = a + b;
  assign q = (a + b) ^ 8'h0f;
  always @(posedge clk) r <= (a + b) & 8'h3c;
endmodule`}, "m")
	obj, err := codegen.Compile(d.Top(), codegen.Options{})
	if err != nil {
		t.Fatal(err)
	}
	adds := 0
	for _, code := range [][]vm.Instr{obj.Comb, obj.Seq} {
		for _, in := range code {
			if in.Op == vm.OpAdd {
				adds++
			}
		}
	}
	if adds != 1 {
		t.Errorf("a+b computed %d times, want once and shared", adds)
	}
	checkTidy(t, d, codegen.StyleGrouped, 5, 64)
}
