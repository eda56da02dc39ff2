package sim

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"livesim/internal/codegen"
	"livesim/internal/hdl/ast"
	"livesim/internal/hdl/elab"
	"livesim/internal/hdl/parser"
	"livesim/internal/vm"
)

// buildDesign compiles every specialization of a source text and returns
// an object table plus the top key.
func buildDesign(t *testing.T, src, top string, style codegen.Style) (map[string]*vm.Object, string) {
	t.Helper()
	sf, err := parser.ParseFile("t.v", src)
	if err != nil {
		t.Fatal(err)
	}
	srcs := map[string]*ast.Module{}
	for _, m := range sf.Modules {
		srcs[m.Name] = m
	}
	d, err := elab.Elaborate(srcs, top, nil)
	if err != nil {
		t.Fatal(err)
	}
	objs := map[string]*vm.Object{}
	for _, key := range d.Order {
		obj, err := codegen.Compile(d.Modules[key], codegen.Options{Style: style})
		if err != nil {
			t.Fatal(err)
		}
		objs[key] = obj
	}
	return objs, d.TopKey
}

func tableResolver(objs map[string]*vm.Object) Resolver {
	return ResolverFunc(func(key string) (*vm.Object, error) {
		if o, ok := objs[key]; ok {
			return o, nil
		}
		return nil, fmt.Errorf("no object %q", key)
	})
}

const pipelineSrc = `
module stage_inc #(parameter W = 8) (input clk, input [W-1:0] d, output reg [W-1:0] q);
  always @(posedge clk) q <= d + 1;
endmodule
module stage_dbl #(parameter W = 8) (input clk, input [W-1:0] d, output reg [W-1:0] q);
  always @(posedge clk) q <= d * 2;
endmodule
module pipe (input clk, input [7:0] in, output [7:0] out);
  wire [7:0] s1;
  stage_inc #(.W(8)) u_inc (.clk(clk), .d(in), .q(s1));
  stage_dbl #(.W(8)) u_dbl (.clk(clk), .d(s1), .q(out));
endmodule
`

func TestHierarchicalPipeline(t *testing.T) {
	objs, top := buildDesign(t, pipelineSrc, "pipe", codegen.StyleGrouped)
	s, err := New(tableResolver(objs), top)
	if err != nil {
		t.Fatal(err)
	}
	if s.NumInstances() != 3 {
		t.Fatalf("instances %d", s.NumInstances())
	}
	if err := s.SetIn("in", 5); err != nil {
		t.Fatal(err)
	}
	if err := s.Tick(2); err != nil {
		t.Fatal(err)
	}
	out, err := s.Out("out")
	if err != nil {
		t.Fatal(err)
	}
	if out != 12 { // (5+1)*2
		t.Errorf("out %d want 12", out)
	}
	if s.Cycle() != 2 {
		t.Errorf("cycle %d", s.Cycle())
	}
}

const combChainSrc = `
module inc4 (input [7:0] x, output [7:0] y);
  assign y = x + 4;
endmodule
module wrap (input [7:0] a, output [7:0] b);
  wire [7:0] m;
  inc4 u0 (.x(a), .y(m));
  inc4 u1 (.x(m), .y(b));
endmodule
`

func TestCrossModuleCombSettle(t *testing.T) {
	objs, top := buildDesign(t, combChainSrc, "wrap", codegen.StyleGrouped)
	s, err := New(tableResolver(objs), top)
	if err != nil {
		t.Fatal(err)
	}
	s.SetIn("a", 10)
	if err := s.Settle(); err != nil {
		t.Fatal(err)
	}
	b, _ := s.Out("b")
	if b != 18 {
		t.Errorf("b=%d want 18", b)
	}
	// Changing the input and settling again must propagate through both
	// module boundaries.
	s.SetIn("a", 100)
	if err := s.Settle(); err != nil {
		t.Fatal(err)
	}
	b, _ = s.Out("b")
	if b != 108 {
		t.Errorf("b=%d want 108", b)
	}
}

func TestObjectSharingAcrossInstances(t *testing.T) {
	objs, top := buildDesign(t, combChainSrc, "wrap", codegen.StyleGrouped)
	s, err := New(tableResolver(objs), top)
	if err != nil {
		t.Fatal(err)
	}
	u0, err := s.FindNode("top.u0")
	if err != nil {
		t.Fatal(err)
	}
	u1, err := s.FindNode("top.u1")
	if err != nil {
		t.Fatal(err)
	}
	if u0.Obj != u1.Obj {
		t.Error("instances of the same module must share one object (no code replication)")
	}
	if u0.Inst == u1.Inst {
		t.Error("instances must have private state")
	}
}

func TestSnapshotRestore(t *testing.T) {
	objs, top := buildDesign(t, pipelineSrc, "pipe", codegen.StyleGrouped)
	s, err := New(tableResolver(objs), top)
	if err != nil {
		t.Fatal(err)
	}
	s.SetIn("in", 7)
	s.Tick(5)
	snap := s.Snapshot()
	outAt5, _ := s.Out("out")

	s.Tick(3)
	if s.Cycle() != 8 {
		t.Fatalf("cycle %d", s.Cycle())
	}
	if err := s.Restore(snap); err != nil {
		t.Fatal(err)
	}
	if s.Cycle() != 5 {
		t.Errorf("cycle after restore %d", s.Cycle())
	}
	s.Settle()
	out, _ := s.Out("out")
	if out != outAt5 {
		t.Errorf("out after restore %d want %d", out, outAt5)
	}
	// Determinism: re-running from the snapshot must match the original.
	s.Tick(3)
	out2, _ := s.Out("out")
	s2, _ := New(tableResolver(objs), top)
	s2.SetIn("in", 7)
	s2.Tick(8)
	ref, _ := s2.Out("out")
	if out2 != ref {
		t.Errorf("replay diverged: %d vs %d", out2, ref)
	}
}

// TestRestoreRefusesAnotherSlotLayout: a state captured under a code
// generator that laid the slots out differently — every change to a
// lowering moves the temporaries — is refused, not copied in.
func TestRestoreRefusesAnotherSlotLayout(t *testing.T) {
	objs, top := buildDesign(t, pipelineSrc, "pipe", codegen.StyleGrouped)
	s, err := New(tableResolver(objs), top)
	if err != nil {
		t.Fatal(err)
	}
	s.SetIn("in", 7)
	s.Tick(5)
	snap := s.Snapshot()
	last := &snap.Nodes[len(snap.Nodes)-1]
	last.Slots = append(last.Slots, 0, 0) // two temporaries this compiler no longer emits
	err = s.Restore(snap)
	if err == nil || !strings.Contains(err.Error(), "shape mismatch") {
		t.Fatalf("Restore of a state with two more slots in %s: %v, want a shape mismatch", last.Path, err)
	}
}

func TestSnapshotBytes(t *testing.T) {
	objs, top := buildDesign(t, pipelineSrc, "pipe", codegen.StyleGrouped)
	s, _ := New(tableResolver(objs), top)
	if b := s.Snapshot().Bytes(); b <= 0 {
		t.Errorf("bytes %d", b)
	}
}

// TestHotReloadBugFix replays the paper's primary use case: a buggy stage
// is fixed, recompiled, and swapped under the running simulation; state
// carried over.
func TestHotReloadBugFix(t *testing.T) {
	buggy := `
module accum (input clk, input en, input [15:0] d, output reg [15:0] sum);
  always @(posedge clk) begin
    if (en) sum <= sum - d; // BUG: should add
  end
endmodule
module top_acc (input clk, input en, input [15:0] d, output [15:0] sum);
  accum u0 (.clk(clk), .en(en), .d(d), .sum(sum));
endmodule
`
	objs, top := buildDesign(t, buggy, "top_acc", codegen.StyleGrouped)
	s, err := New(tableResolver(objs), top)
	if err != nil {
		t.Fatal(err)
	}
	s.SetIn("en", 1)
	s.SetIn("d", 3)
	s.Tick(4)
	sum, _ := s.Out("sum")
	if sum != (0x10000-12)&0xFFFF {
		t.Fatalf("buggy sum %d", sum)
	}

	// Fix the bug, recompile only the stage module, and hot reload.
	fixed := strings.Replace(buggy, "sum - d; // BUG: should add", "sum + d;", 1)
	fixedObjs, _ := buildDesign(t, fixed, "top_acc", codegen.StyleGrouped)
	objs["accum"] = fixedObjs["accum"]

	n, err := s.Reload("accum", nil)
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("swapped %d instances", n)
	}
	// State survived: sum still -12; now it accumulates upward.
	s.Tick(1)
	sum, _ = s.Out("sum")
	if sum != (0x10000-12+3)&0xFFFF {
		t.Errorf("sum after reload %d", sum)
	}
}

func TestReloadSwapsAllInstances(t *testing.T) {
	src := `
module leaf (input clk, input [7:0] d, output reg [7:0] q);
  always @(posedge clk) q <= d + 1;
endmodule
module quad (input clk, input [7:0] d, output [7:0] q0, q1, q2, q3);
  leaf l0 (.clk(clk), .d(d), .q(q0));
  leaf l1 (.clk(clk), .d(d), .q(q1));
  leaf l2 (.clk(clk), .d(d), .q(q2));
  leaf l3 (.clk(clk), .d(d), .q(q3));
endmodule
`
	objs, top := buildDesign(t, src, "quad", codegen.StyleGrouped)
	s, _ := New(tableResolver(objs), top)
	s.SetIn("d", 10)
	s.Tick(1)

	fixed := strings.Replace(src, "d + 1", "d + 2", 1)
	fixedObjs, _ := buildDesign(t, fixed, "quad", codegen.StyleGrouped)
	objs["leaf"] = fixedObjs["leaf"]
	n, err := s.Reload("leaf", nil)
	if err != nil {
		t.Fatal(err)
	}
	if n != 4 {
		t.Fatalf("swapped %d instances, want 4", n)
	}
	s.Tick(1)
	for _, port := range []string{"q0", "q1", "q2", "q3"} {
		v, _ := s.Out(port)
		if v != 12 {
			t.Errorf("%s = %d want 12", port, v)
		}
	}
}

func TestReloadRegisterRenameRules(t *testing.T) {
	// Register deleted + register created: new register initializes to 0,
	// old value dropped (Table V).
	v1 := `
module r (input clk, input [7:0] d, output [7:0] q);
  reg [7:0] old_r;
  always @(posedge clk) old_r <= d;
  assign q = old_r;
endmodule
`
	v2 := `
module r (input clk, input [7:0] d, output [7:0] q);
  reg [7:0] new_r;
  always @(posedge clk) new_r <= d;
  assign q = new_r;
endmodule
`
	objs, top := buildDesign(t, v1, "r", codegen.StyleGrouped)
	s, _ := New(tableResolver(objs), top)
	s.SetIn("d", 99)
	s.Tick(1)
	newObjs, _ := buildDesign(t, v2, "r", codegen.StyleGrouped)
	objs["r"] = newObjs["r"]
	if _, err := s.Reload("r", nil); err != nil {
		t.Fatal(err)
	}
	s.Settle()
	q, _ := s.Out("q")
	if q != 0 {
		t.Errorf("created register should initialize to 0, got %d", q)
	}
}

func TestPeekPokeAndMem(t *testing.T) {
	src := `
module m (input clk, input [7:0] d, output reg [7:0] q);
  reg [7:0] scratch [0:15];
  always @(posedge clk) q <= d;
endmodule
`
	objs, top := buildDesign(t, src, "m", codegen.StyleGrouped)
	s, _ := New(tableResolver(objs), top)
	if err := s.Poke("top.q", 0x42); err != nil {
		t.Fatal(err)
	}
	v, err := s.Peek("top.q")
	if err != nil || v != 0x42 {
		t.Fatalf("peek %v %v", v, err)
	}
	if err := s.PokeMem("top.scratch", 3, 0x77); err != nil {
		t.Fatal(err)
	}
	mv, err := s.PeekMem("top.scratch", 3)
	if err != nil || mv != 0x77 {
		t.Fatalf("peekmem %v %v", mv, err)
	}
	if _, err := s.Peek("top.nosuch"); err == nil {
		t.Error("want error for unknown signal")
	}
	if err := s.PokeMem("top.scratch", 99, 0); err == nil {
		t.Error("want out-of-range error")
	}
	if _, err := s.FindNode("top.missing"); err == nil {
		t.Error("want error for missing instance")
	}
}

func TestDisplayRouting(t *testing.T) {
	src := `
module d (input clk, input [7:0] v);
  always @(posedge clk) begin
    if (v == 8'd7) $display("got %d", v);
  end
endmodule
`
	objs, top := buildDesign(t, src, "d", codegen.StyleGrouped)
	var buf bytes.Buffer
	s, _ := New(tableResolver(objs), top, WithOutput(&buf))
	s.SetIn("v", 7)
	s.Tick(1)
	if got := buf.String(); got != "got 7\n" {
		t.Errorf("display %q", got)
	}
}

func TestFinishStopsSimulation(t *testing.T) {
	src := `
module f (input clk);
  reg [7:0] c;
  always @(posedge clk) begin
    c <= c + 1;
    if (c == 8'd4) $finish;
  end
endmodule
`
	objs, top := buildDesign(t, src, "f", codegen.StyleGrouped)
	s, _ := New(tableResolver(objs), top)
	if err := s.Tick(100); err != nil {
		t.Fatal(err)
	}
	if !s.Finished() {
		t.Fatal("not finished")
	}
	if s.Cycle() != 5 {
		t.Errorf("stopped at cycle %d want 5", s.Cycle())
	}
}

func TestStylesAgreeHierarchical(t *testing.T) {
	outs := map[codegen.Style]uint64{}
	for _, style := range []codegen.Style{codegen.StyleGrouped, codegen.StyleMux} {
		objs, top := buildDesign(t, pipelineSrc, "pipe", style)
		s, err := New(tableResolver(objs), top)
		if err != nil {
			t.Fatal(err)
		}
		s.SetIn("in", 9)
		s.Tick(10)
		v, _ := s.Out("out")
		outs[style] = v
	}
	if outs[codegen.StyleGrouped] != outs[codegen.StyleMux] {
		t.Errorf("styles diverge: %v", outs)
	}
}

func TestStatsAccumulate(t *testing.T) {
	objs, top := buildDesign(t, pipelineSrc, "pipe", codegen.StyleGrouped)
	s, _ := New(tableResolver(objs), top)
	s.Tick(10)
	if s.Stats.Ops == 0 {
		t.Error("no ops counted")
	}
}

// TestMemPages: a captured memory is its words in pages of PageWords, the
// last one short, and the helpers read it as the flat memory it was.
func TestMemPages(t *testing.T) {
	words := make([]uint64, 2*PageWords+3)
	for i := range words {
		words[i] = uint64(i) | 1<<40
	}
	m := PagedMem(words)
	if len(m) != 3 || len(m[0]) != PageWords || len(m[2]) != 3 || m.Len() != len(words) {
		t.Fatalf("%d pages, depth %d", len(m), m.Len())
	}
	for _, i := range []int{0, PageWords - 1, PageWords, len(words) - 1} {
		if m.At(i) != words[i] {
			t.Errorf("At(%d) = %#x, want %#x", i, m.At(i), words[i])
		}
	}
	short := make([]uint64, PageWords+1)
	m.CopyTo(short)
	if short[PageWords] != words[PageWords] {
		t.Error("CopyTo into a shorter memory")
	}
	if PagedMem(nil) != nil || Mem(nil).Len() != 0 {
		t.Error("a memory of no words has no pages")
	}

	// FirstDiff compares words under the mask, except in pages the two
	// share: there bit 40, outside the mask, is not seen.
	other := append(Mem(nil), m...)
	other[1] = append([]uint64(nil), m[1]...)
	if got := FirstDiff(m, other, 0xFFFF); got != PageWords {
		t.Errorf("FirstDiff under a mask = %d, want %d: the first word of the one unshared page", got, PageWords)
	}
	if got := FirstDiff(m, other, ^uint64(0)); got != -1 {
		t.Errorf("FirstDiff of equal memories = %d", got)
	}
	other[1][7]++
	if got := FirstDiff(m, other, ^uint64(0)); got != PageWords+7 {
		t.Errorf("FirstDiff = %d, want %d", got, PageWords+7)
	}
}
