package flatsim

import (
	"fmt"
	"testing"

	"livesim/internal/codegen"
	"livesim/internal/pgas"
	"livesim/internal/randrtl"
	"livesim/internal/sim"
	"livesim/internal/vm"
)

// randomPair wraps two chained instances of one randrtl module in a top
// with the port names the hand-written designs below use.
func randomPair(seed uint64) string {
	const w = 24
	return randrtl.Module(seed, "rnd", w) + fmt.Sprintf(`
module top (input clk, input [%[1]d:0] x, output [%[1]d:0] y0, y1);
  wire [%[1]d:0] p0, p1, p2, p3, q0, q1, q2, q3;
  rnd u0 (.clk(clk), .a(x), .b(~x), .c(x + 1), .o0(p0), .o1(p1), .o2(p2), .o3(p3));
  rnd u1 (.clk(clk), .a(p0 ^ x), .b(p1), .c(p2), .o0(q0), .o1(q1), .o2(q2), .o3(q3));
  assign y0 = p3 ^ q0;
  assign y1 = (q1 + q2) ^ q3;
endmodule`, w-1)
}

// TestRandomFlattenEquivalence compares the flattened single-object
// simulation against the hierarchical kernel cycle by cycle on random
// stimulus: two hand-written designs with two instances each, then pairs
// of randrtl modules.
func TestRandomFlattenEquivalence(t *testing.T) {
	designs := []string{
		`
module w (input clk, input [15:0] d, output reg [15:0] q, output [15:0] m);
  reg [15:0] acc;
  assign m = (acc ^ d) + {d[7:0], d[15:8]};
  always @(posedge clk) begin
    acc <= acc + d;
    if (d[0]) q <= m; else q <= q + 1;
  end
endmodule
module top (input clk, input [15:0] x, output [15:0] y0, y1);
  wire [15:0] m0, m1;
  w u0 (.clk(clk), .d(x), .q(y0), .m(m0));
  w u1 (.clk(clk), .d(x ^ m0), .q(y1), .m(m1));
endmodule`,
		`
module s (input clk, input [7:0] d, output [7:0] o);
  reg [7:0] h [0:7];
  wire [2:0] idx = d[2:0];
  assign o = h[idx];
  always @(posedge clk) h[d[5:3]] <= d + 1;
endmodule
module top (input clk, input [7:0] x, output [7:0] y0, y1);
  s u0 (.clk(clk), .d(x), .o(y0));
  s u1 (.clk(clk), .d(x + 8'd3), .o(y1));
endmodule`,
	}
	for seed := uint64(1); seed <= 12; seed++ {
		designs = append(designs, randomPair(seed))
	}
	for di, src := range designs {
		src := src
		t.Run(fmt.Sprintf("design%d", di), func(t *testing.T) {
			// Hierarchical.
			d := elaborate(t, map[string]string{"t.v": src}, "top")
			objs := map[string]*vm.Object{}
			for _, key := range d.Order {
				obj, err := codegen.Compile(d.Modules[key], codegen.Options{Style: codegen.StyleGrouped})
				if err != nil {
					t.Fatal(err)
				}
				objs[key] = obj
			}
			hs, err := sim.New(sim.ResolverFunc(func(k string) (*vm.Object, error) {
				if o, ok := objs[k]; ok {
					return o, nil
				}
				return nil, fmt.Errorf("no %q", k)
			}), d.TopKey)
			if err != nil {
				t.Fatal(err)
			}

			// Flat.
			d2 := elaborate(t, map[string]string{"t.v": src}, "top")
			flatObj, err := Compile(d2, codegen.StyleMux)
			if err != nil {
				t.Fatal(err)
			}
			fs := NewSim(flatObj)

			rng := uint64(di)*7919 + 13
			next := func() uint64 {
				rng = rng*6364136223846793005 + 1442695040888963407
				return rng >> 23
			}
			for cycle := 0; cycle < 200; cycle++ {
				x := next()
				if err := hs.SetIn("x", x); err != nil {
					t.Fatal(err)
				}
				if err := fs.SetIn("x", x); err != nil {
					t.Fatal(err)
				}
				if err := hs.Tick(1); err != nil {
					t.Fatal(err)
				}
				fs.Tick(1)
				for _, out := range []string{"y0", "y1"} {
					hv, err := hs.Out(out)
					if err != nil {
						t.Fatal(err)
					}
					fv, err := fs.Out(out)
					if err != nil {
						t.Fatal(err)
					}
					if hv != fv {
						t.Fatalf("cycle %d %s: hierarchical %#x flat %#x", cycle, out, hv, fv)
					}
				}
			}
		})
	}
}

// TestFlatPGASRandomPrograms co-simulates the flattened PGAS core against
// the hierarchical one on random RISC-V programs (sampled from the same
// generator the cosim suite uses, imported indirectly via assembled
// compute kernels at varying iteration counts).
func TestFlatPGASVariedKernels(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	for _, iters := range []int{1, 3, 7} {
		iters := iters
		t.Run(fmt.Sprintf("iters%d", iters), func(t *testing.T) {
			imgs, err := pgas.ComputeImages(1, iters)
			if err != nil {
				t.Fatal(err)
			}
			// Hierarchical run.
			hs, err := pgas.NewSim(1, codegen.StyleGrouped)
			if err != nil {
				t.Fatal(err)
			}
			if err := pgas.LoadImage(hs, 1, 0, imgs[0]); err != nil {
				t.Fatal(err)
			}
			if _, err := pgas.RunToHalt(hs, 200000); err != nil {
				t.Fatal(err)
			}
			// Flat run.
			d := elaborate(t, pgas.DesignSource(1), pgas.TopName(1))
			obj, err := Compile(d, codegen.StyleMux)
			if err != nil {
				t.Fatal(err)
			}
			fs := NewSim(obj)
			for w, v := range imgs[0] {
				if err := fs.PokeMem("n0.u_mem.mem", uint64(w), v); err != nil {
					t.Fatal(err)
				}
			}
			for fs.Cycle() < 200000 {
				fs.Tick(256)
				if v, _ := fs.Out("halted_all"); v == 1 {
					break
				}
			}
			ha, err := hs.PeekMem("top.n0.u_mem.mem", 0x1000/8)
			if err != nil {
				t.Fatal(err)
			}
			fa, err := fs.PeekMem("n0.u_mem.mem", 0x1000/8)
			if err != nil {
				t.Fatal(err)
			}
			if ha != fa || ha == 0 {
				t.Errorf("checksums differ: hier %#x flat %#x", ha, fa)
			}
		})
	}
}
