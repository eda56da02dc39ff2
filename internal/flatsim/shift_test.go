package flatsim

import (
	"fmt"
	"testing"

	"livesim/internal/codegen"
	"livesim/internal/vm"
)

// TestNarrowSignedTernaryInWiderContext: a logical right shift's result is
// unsigned, so a ternary of two of them zero-extends into a wider context —
// as an operand of a wider add and assigned straight to a wider net —
// under the grouped style, the mux style and the flattened design alike:
// 4'sb1000 >> 0 is 8 in eight bits, not 248. The grouped style sizes the
// ternary before lowering its arms, by a dry scan of the width rule.
func TestNarrowSignedTernaryInWiderContext(t *testing.T) {
	const src = `
module top (input c, input [1:0] s, input signed [3:0] x, input signed [7:0] y,
            output [7:0] out, output [7:0] direct);
  assign out = (c ? (x >> s) : (x >> s)) + y;
  assign direct = c ? (x >> s) : (x >> s);
endmodule`
	d := elaborate(t, map[string]string{"t.v": src}, "top")
	flat, err := Compile(elaborate(t, map[string]string{"t.v": src}, "top"), codegen.StyleMux)
	if err != nil {
		t.Fatal(err)
	}
	fs := NewSim(flat)
	insts := map[string]*vm.Instance{}
	for _, style := range []codegen.Style{codegen.StyleGrouped, codegen.StyleMux} {
		obj, err := codegen.Compile(d.Modules[d.TopKey], codegen.Options{Style: style})
		if err != nil {
			t.Fatal(err)
		}
		insts[fmt.Sprint(style)] = vm.NewInstance(obj)
	}
	for c := uint64(0); c <= 1; c++ {
		for s := uint64(0); s <= 3; s++ {
			in := map[string]uint64{"c": c, "s": s, "x": 0b1000, "y": 0}
			for name, v := range in {
				if err := fs.SetIn(name, v); err != nil {
					t.Fatal(err)
				}
			}
			fs.Settle()
			for _, port := range []string{"out", "direct"} {
				want := uint64(0b1000) >> s
				got := map[string]uint64{}
				if got["flat"], err = fs.Out(port); err != nil {
					t.Fatal(err)
				}
				for style, inst := range insts {
					for name, v := range in {
						inst.Slots[inst.Obj.Ports[inst.Obj.PortIndex(name)].Slot] = v
					}
					inst.RunComb(nil)
					got[style] = inst.Slots[inst.Obj.Ports[inst.Obj.PortIndex(port)].Slot]
				}
				for who, v := range got {
					if v != want {
						t.Errorf("c=%d s=%d %s: %s gives %d, want %d (all: %v)", c, s, port, who, v, want, got)
					}
				}
			}
		}
	}
}
