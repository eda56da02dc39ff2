package sim_test

import (
	"slices"
	"testing"

	"livesim/internal/codegen"
	"livesim/internal/sim"
	"livesim/internal/vm"
)

// restSrc has an input tied to a constant in every instance (id), an
// output computed from state alone (q: the edge program, once id counts
// as state), one that needs an input (r: what the settle's Rest computes),
// a memory the edge program reads, and an output the edited version
// removes (cyc).
const restSrc = `
module leaf (input clk, input [7:0] id, input [7:0] d, output [7:0] q, output [7:0] r, output reg [7:0] cyc);
  reg [7:0] acc;
  reg [7:0] mem [0:3];
  wire [7:0] t = id + acc;
  assign q = t ^ mem[0];
  assign r = q + d;
  always @(posedge clk) begin
    acc <= acc + d + id;
    cyc <= cyc + 1;
    mem[cyc[1:0]] <= r;
  end
endmodule
module top (input clk, input [7:0] d, output [7:0] o, output [7:0] p);
  wire [7:0] q0, r0, q1, r1, c0, c1;
  leaf u0 (.clk(clk), .id(8'd3), .d(d), .q(q0), .r(r0), .cyc(c0));
  leaf u1 (.clk(clk), .id(8'd5), .d(q0), .q(q1), .r(r1), .cyc(c1));
  assign o = r1 ^ c0;
  assign p = q1 + r0 + c1;
endmodule
`

// restEdited drops leaf's cyc output, and top's binds of it, and ties u0's
// id to another constant.
const restEdited = `
module leaf (input clk, input [7:0] id, input [7:0] d, output [7:0] q, output [7:0] r);
  reg [7:0] acc;
  reg [7:0] cyc;
  reg [7:0] mem [0:3];
  wire [7:0] t = id + acc;
  assign q = t ^ mem[0];
  assign r = q + d;
  always @(posedge clk) begin
    acc <= acc + d + id;
    cyc <= cyc + 1;
    mem[cyc[1:0]] <= r;
  end
endmodule
module top (input clk, input [7:0] d, output [7:0] o, output [7:0] p);
  wire [7:0] q0, r0, q1, r1;
  leaf u0 (.clk(clk), .id(8'd7), .d(d), .q(q0), .r(r0));
  leaf u1 (.clk(clk), .id(8'd5), .d(q0), .q(q1), .r(r1));
  assign o = r1;
  assign p = q1 + r0;
endmodule
`

// TestEveryWriterResyncs is the net under the kernel's two shortcuts: a
// bind writes its destination only when the value moved from the one it
// last wrote, and the settle runs only the rest of an instance's comb code
// after its edge program. Each row writes state some other way — SetIn,
// Poke of a bound input, PokeMem of a memory the edge program reads,
// Restore, Reload with a child port removed and a tied input retied,
// RestoreAdapted across that reload — and is followed by ticks in lock
// step with the reference kernel, each one checking every bind's
// remembered value against its destination. The kernel runs its worklist
// in rank order and reversed: a tied input's driver may evaluate before
// or after the node it drives.
func TestEveryWriterResyncs(t *testing.T) {
	for _, c := range []struct {
		style    codegen.Style
		reversed bool
	}{{codegen.StyleGrouped, false}, {codegen.StyleGrouped, true}, {codegen.StyleMux, false}, {codegen.StyleMux, true}} {
		name := c.style.String()
		if c.reversed {
			name += "/reversed"
		}
		t.Run(name, func(t *testing.T) {
			objs, top := sim.BuildDesign(t, restSrc, "top", c.style)
			edited, _ := sim.BuildDesign(t, restEdited, "top", c.style)
			recorded := map[string]*vm.Object{"leaf": objs["leaf"], "top": objs["top"]}
			l := newLockstep(t, objs, top, 1)
			if c.reversed {
				defer sim.SetOrder(l.nu, slices.Reverse[[]*sim.Node])()
			}
			l.settle()
			for _, n := range l.nu.Nodes() {
				if e := sim.EdgeOf(n); n.Obj.Key == "leaf" && (e.Known == nil || e.RestPC == nil) {
					t.Fatalf("%s: tied inputs %v, Rest at %v: the design no longer has a tied input and a partial Rest", n.Path, e.Known, e.RestPC)
				}
			}
			var snap, snapRef *sim.State
			rows := []struct {
				name string
				op   func()
			}{
				{"SetIn", func() {
					l.both("setin", func(s *sim.Sim) error { return s.SetIn("d", 0x21) })
				}},
				{"Poke", func() {
					l.both("poke", func(s *sim.Sim) error { return s.Poke("top.u1.d", 0x55) })
					l.settle()
				}},
				{"PokeMem", func() {
					l.both("pokemem", func(s *sim.Sim) error { return s.PokeMem("top.u0.mem", 0, 0xa5) })
				}},
				{"Snapshot", func() {
					snap, snapRef = l.nu.Snapshot(), l.ref.Snapshot()
				}},
				{"Restore", func() {
					if err := l.nu.Restore(snap); err != nil {
						t.Fatal(err)
					}
					if err := l.ref.Restore(snapRef); err != nil {
						t.Fatal(err)
					}
					l.restored()
				}},
				{"Reload", func() {
					l.table.objs["leaf"], l.table.objs["top"] = edited["leaf"], edited["top"]
					l.both("reload", func(s *sim.Sim) error {
						_, err := s.ReloadAll(sim.Swap{Key: "leaf"}, sim.Swap{Key: "top"})
						return err
					})
				}},
				{"RestoreAdapted", func() {
					l.nu.RestoreAdapted(snap, recorded, nil)
					l.ref.RestoreAdapted(snapRef, recorded, nil)
					l.restored()
				}},
			}
			for _, row := range rows {
				t.Logf("%s, then 6 ticks", row.name) // shown when a tick fails
				row.op()
				l.tick(6)
			}
		})
	}
}
