package codegen

import (
	"strings"
	"testing"
	"testing/quick"

	"livesim/internal/hdl/ast"
	"livesim/internal/hdl/elab"
	"livesim/internal/hdl/parser"
	"livesim/internal/vm"
)

// elabSrc parses src and elaborates the module named top.
func elabSrc(src, top string) (*elab.Module, error) {
	sf, err := parser.ParseFile("t.v", src)
	if err != nil {
		return nil, err
	}
	srcs := make(map[string]*ast.Module)
	for _, m := range sf.Modules {
		srcs[m.Name] = m
	}
	d, err := elab.Elaborate(srcs, top, nil)
	if err != nil {
		return nil, err
	}
	return d.Top(), nil
}

// tryCompileSrc parses, elaborates and compiles the module named top.
func tryCompileSrc(src, top string, style Style) (*vm.Object, error) {
	m, err := elabSrc(src, top)
	if err != nil {
		return nil, err
	}
	return Compile(m, Options{Style: style})
}

func compileSrc(t *testing.T, src, top string, style Style) *vm.Object {
	t.Helper()
	obj, err := tryCompileSrc(src, top, style)
	if err != nil {
		t.Fatal(err)
	}
	return obj
}

// harness ticks a childless compiled object the way the kernel would.
type harness struct {
	obj  *vm.Object
	inst *vm.Instance
}

func newHarness(t *testing.T, src, top string, style Style) *harness {
	t.Helper()
	obj := compileSrc(t, src, top, style)
	return &harness{obj: obj, inst: vm.NewInstance(obj)}
}

func (h *harness) in(name string, v uint64) {
	i := h.obj.PortIndex(name)
	if i < 0 {
		panic("no port " + name)
	}
	h.inst.Slots[h.obj.Ports[i].Slot] = v & h.obj.Ports[i].Mask
}

func (h *harness) out(name string) uint64 {
	i := h.obj.PortIndex(name)
	if i < 0 {
		panic("no port " + name)
	}
	return h.inst.Slots[h.obj.Ports[i].Slot]
}

func (h *harness) comb() { h.inst.RunComb(nil) }

func (h *harness) tick() {
	h.inst.RunComb(nil)
	h.inst.RunSeq(nil)
	h.inst.Commit()
}

func bothStyles(t *testing.T, f func(t *testing.T, style Style)) {
	t.Run("grouped", func(t *testing.T) { f(t, StyleGrouped) })
	t.Run("mux", func(t *testing.T) { f(t, StyleMux) })
}

func TestCombAdder(t *testing.T) {
	bothStyles(t, func(t *testing.T, style Style) {
		h := newHarness(t, `
module adder #(parameter W = 8) (input [W-1:0] a, b, output [W-1:0] sum, output cout);
  wire [W-1:0] s;
  assign s = a + b;
  assign sum = s;
  assign cout = (a + b) < a;
endmodule`, "adder", style)
		h.in("a", 200)
		h.in("b", 100)
		h.comb()
		if h.out("sum") != 44 {
			t.Errorf("sum %d", h.out("sum"))
		}
		if h.out("cout") != 1 {
			t.Errorf("cout %d", h.out("cout"))
		}
	})
}

func TestRegisterCounter(t *testing.T) {
	bothStyles(t, func(t *testing.T, style Style) {
		h := newHarness(t, `
module counter (input clk, input en, input rst, output reg [7:0] cnt);
  always @(posedge clk) begin
    if (rst) cnt <= 8'd0;
    else if (en) cnt <= cnt + 8'd1;
  end
endmodule`, "counter", style)
		h.in("rst", 1)
		h.tick()
		h.in("rst", 0)
		h.in("en", 1)
		for i := 0; i < 260; i++ {
			h.tick()
		}
		if h.out("cnt") != 260&0xff {
			t.Errorf("cnt %d", h.out("cnt"))
		}
		h.in("en", 0)
		h.tick()
		if h.out("cnt") != 260&0xff {
			t.Errorf("cnt moved while disabled")
		}
	})
}

func TestCombAlwaysCase(t *testing.T) {
	bothStyles(t, func(t *testing.T, style Style) {
		h := newHarness(t, `
module mux4 (input [1:0] sel, input [7:0] a, b, c, d, output reg [7:0] y);
  always @(*) begin
    case (sel)
      2'd0: y = a;
      2'd1: y = b;
      2'd2: y = c;
      default: y = d;
    endcase
  end
endmodule`, "mux4", style)
		vals := []uint64{11, 22, 33, 44}
		h.in("a", vals[0])
		h.in("b", vals[1])
		h.in("c", vals[2])
		h.in("d", vals[3])
		for sel := uint64(0); sel < 4; sel++ {
			h.in("sel", sel)
			h.comb()
			if h.out("y") != vals[sel] {
				t.Errorf("sel=%d: y=%d want %d", sel, h.out("y"), vals[sel])
			}
		}
	})
}

func TestBlockingChain(t *testing.T) {
	bothStyles(t, func(t *testing.T, style Style) {
		h := newHarness(t, `
module chain (input [7:0] a, output reg [7:0] y);
  reg [7:0] t;
  always @(*) begin
    t = a + 8'd1;
    t = t * 8'd2;
    y = t + 8'd3;
  end
endmodule`, "chain", style)
		h.in("a", 5)
		h.comb()
		if h.out("y") != (5+1)*2+3 {
			t.Errorf("y=%d", h.out("y"))
		}
	})
}

func TestLatchDetected(t *testing.T) {
	src := `
module l (input s, input [3:0] a, output reg [3:0] y);
  always @(*) begin
    if (s) y = a;
  end
endmodule`
	if _, err := tryCompileSrc(src, "l", StyleGrouped); err == nil || !strings.Contains(err.Error(), "every path") {
		t.Fatalf("want latch error, got %v", err)
	}
}

func TestCombLoopDetected(t *testing.T) {
	src := `
module loop (output [3:0] x);
  wire [3:0] a, b;
  assign a = b + 1;
  assign b = a + 1;
  assign x = a;
endmodule`
	if _, err := tryCompileSrc(src, "loop", StyleGrouped); err == nil || !strings.Contains(err.Error(), "loop") {
		t.Fatalf("want loop error, got %v", err)
	}
	selfSrc := `
module s (output [3:0] x);
  wire [3:0] a;
  assign a = a + 1;
  assign x = a;
endmodule`
	if _, err := tryCompileSrc(selfSrc, "s", StyleGrouped); err == nil || !strings.Contains(err.Error(), "loop") {
		t.Fatalf("want self-loop error, got %v", err)
	}
}

func TestMultipleDriversRejected(t *testing.T) {
	src := `
module d (input a, output x);
  assign x = a;
  assign x = ~a;
endmodule`
	if _, err := tryCompileSrc(src, "d", StyleGrouped); err == nil || !strings.Contains(err.Error(), "multiple drivers") {
		t.Fatalf("want driver error, got %v", err)
	}
}

func TestMemorySyncRAM(t *testing.T) {
	bothStyles(t, func(t *testing.T, style Style) {
		h := newHarness(t, `
module ram (input clk, input we, input [3:0] waddr, raddr, input [15:0] wdata, output [15:0] rdata);
  reg [15:0] mem [0:15];
  assign rdata = mem[raddr];
  always @(posedge clk) begin
    if (we) mem[waddr] <= wdata;
  end
endmodule`, "ram", style)
		h.in("we", 1)
		h.in("waddr", 7)
		h.in("wdata", 0xBEEF)
		h.tick()
		h.in("we", 0)
		h.in("raddr", 7)
		h.comb()
		if h.out("rdata") != 0xBEEF {
			t.Errorf("rdata %x", h.out("rdata"))
		}
		h.in("raddr", 3)
		h.comb()
		if h.out("rdata") != 0 {
			t.Errorf("unwritten slot %x", h.out("rdata"))
		}
	})
}

func TestSignedArithmetic(t *testing.T) {
	bothStyles(t, func(t *testing.T, style Style) {
		h := newHarness(t, `
module s (input [7:0] a, b, output lt, output [7:0] sra);
  assign lt = $signed(a) < $signed(b);
  assign sra = $signed(a) >>> 2;
endmodule`, "s", style)
		h.in("a", 0x80) // -128
		h.in("b", 1)
		h.comb()
		if h.out("lt") != 1 {
			t.Errorf("signed lt failed")
		}
		if h.out("sra") != 0xE0 {
			t.Errorf("sra %x", h.out("sra"))
		}
		h.in("a", 5)
		h.comb()
		if h.out("lt") != 0 {
			t.Errorf("5 < 1 signed?")
		}
	})
}

func TestConcatReplPartSelect(t *testing.T) {
	bothStyles(t, func(t *testing.T, style Style) {
		h := newHarness(t, `
module c (input [3:0] hi, lo, output [7:0] cat, output [3:0] mid, output [7:0] rep, output bit0);
  wire [7:0] w;
  assign w = {hi, lo};
  assign cat = w;
  assign mid = w[5:2];
  assign rep = {2{hi}};
  assign bit0 = w[0];
endmodule`, "c", style)
		h.in("hi", 0xA)
		h.in("lo", 0x5)
		h.comb()
		if h.out("cat") != 0xA5 {
			t.Errorf("cat %x", h.out("cat"))
		}
		if h.out("mid") != 0x9 { // bits 5:2 of 1010_0101 = 1001
			t.Errorf("mid %x", h.out("mid"))
		}
		if h.out("rep") != 0xAA {
			t.Errorf("rep %x", h.out("rep"))
		}
		if h.out("bit0") != 1 {
			t.Errorf("bit0 %d", h.out("bit0"))
		}
	})
}

func TestConcatLHS(t *testing.T) {
	bothStyles(t, func(t *testing.T, style Style) {
		h := newHarness(t, `
module split (input [7:0] w, output [3:0] hi, lo);
  assign {hi, lo} = w;
endmodule`, "split", style)
		h.in("w", 0xC3)
		h.comb()
		if h.out("hi") != 0xC || h.out("lo") != 0x3 {
			t.Errorf("hi %x lo %x", h.out("hi"), h.out("lo"))
		}
	})
}

func TestSeqConcatAndPartialLHS(t *testing.T) {
	bothStyles(t, func(t *testing.T, style Style) {
		h := newHarness(t, `
module p (input clk, input [7:0] d, output reg [3:0] hi, lo, output reg [7:0] r);
  always @(posedge clk) begin
    {hi, lo} <= d;
    r[3:0] <= d[7:4];
    r[7] <= d[0];
  end
endmodule`, "p", style)
		h.in("d", 0xC3)
		h.tick()
		if h.out("hi") != 0xC || h.out("lo") != 0x3 {
			t.Errorf("hi %x lo %x", h.out("hi"), h.out("lo"))
		}
		// r[3:0] = 0xC, r[7] = 1, rest hold 0: 1000_1100
		if h.out("r") != 0x8C {
			t.Errorf("r %x", h.out("r"))
		}
	})
}

func TestVariableBitSelect(t *testing.T) {
	bothStyles(t, func(t *testing.T, style Style) {
		h := newHarness(t, `
module vb (input [7:0] w, input [2:0] i, output b);
  assign b = w[i];
endmodule`, "vb", style)
		h.in("w", 0b0100_0000)
		h.in("i", 6)
		h.comb()
		if h.out("b") != 1 {
			t.Errorf("b=%d", h.out("b"))
		}
		h.in("i", 5)
		h.comb()
		if h.out("b") != 0 {
			t.Errorf("b=%d", h.out("b"))
		}
	})
}

func TestCasezWildcard(t *testing.T) {
	bothStyles(t, func(t *testing.T, style Style) {
		h := newHarness(t, `
module cz (input [3:0] op, output reg [1:0] cls);
  always @(*) begin
    casez (op)
      4'b1???: cls = 2'd3;
      4'b01??: cls = 2'd2;
      4'b001?: cls = 2'd1;
      default: cls = 2'd0;
    endcase
  end
endmodule`, "cz", style)
		cases := map[uint64]uint64{0b1010: 3, 0b0110: 2, 0b0010: 1, 0b0001: 0, 0b1111: 3}
		for op, want := range cases {
			h.in("op", op)
			h.comb()
			if h.out("cls") != want {
				t.Errorf("op=%04b cls=%d want %d", op, h.out("cls"), want)
			}
		}
	})
}

func TestStylesAgreeOnALU(t *testing.T) {
	src := `
module alu (input [2:0] op, input [15:0] a, b, output reg [15:0] y);
  always @(*) begin
    case (op)
      3'd0: y = a + b;
      3'd1: y = a - b;
      3'd2: y = a & b;
      3'd3: y = a | b;
      3'd4: y = a ^ b;
      3'd5: y = a < b ? 16'd1 : 16'd0;
      3'd6: y = a << b[3:0];
      default: y = a >> b[3:0];
    endcase
  end
endmodule`
	og := compileSrc(t, src, "alu", StyleGrouped)
	om := compileSrc(t, src, "alu", StyleMux)
	ig, im := vm.NewInstance(og), vm.NewInstance(om)
	set := func(o *vm.Object, i *vm.Instance, name string, v uint64) {
		p := o.Ports[o.PortIndex(name)]
		i.Slots[p.Slot] = v & p.Mask
	}
	get := func(o *vm.Object, i *vm.Instance, name string) uint64 {
		return i.Slots[o.Ports[o.PortIndex(name)].Slot]
	}
	f := func(op uint8, a, b uint16) bool {
		for _, x := range []struct {
			o *vm.Object
			i *vm.Instance
		}{{og, ig}, {om, im}} {
			set(x.o, x.i, "op", uint64(op%8))
			set(x.o, x.i, "a", uint64(a))
			set(x.o, x.i, "b", uint64(b))
			x.i.RunComb(nil)
		}
		return get(og, ig, "y") == get(om, im, "y")
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestGroupedHasBranchesMuxDoesNot(t *testing.T) {
	src := `
module m (input s, input [31:0] a, b, output reg [31:0] y, z);
  always @(*) begin
    if (s) begin y = a + b; z = a - b; end
    else begin y = a & b; z = a | b; end
  end
endmodule`
	og := compileSrc(t, src, "m", StyleGrouped)
	om := compileSrc(t, src, "m", StyleMux)
	count := func(code []vm.Instr) int {
		n := 0
		for _, in := range code {
			if in.Op.IsBranch() {
				n++
			}
		}
		return n
	}
	if count(og.Comb) == 0 {
		t.Error("grouped style should emit branches")
	}
	if count(om.Comb) != 0 {
		t.Error("mux style should be branch-free in comb")
	}
}

func TestDisplayAndFinish(t *testing.T) {
	bothStyles(t, func(t *testing.T, style Style) {
		h := newHarness(t, `
module tb (input clk, input [7:0] v);
  reg [7:0] seen;
  always @(posedge clk) begin
    seen <= v;
    if (v == 8'd42) begin
      $display("the answer is %d", v);
      $finish;
    end
  end
endmodule`, "tb", style)
		var sb strings.Builder
		h.inst.Output = &sb
		h.in("v", 1)
		h.tick()
		if h.inst.FinishReq {
			t.Fatal("finish too early")
		}
		h.in("v", 42)
		h.tick()
		if !h.inst.FinishReq {
			t.Fatal("finish not requested")
		}
		if got := sb.String(); got != "the answer is 42\n" {
			t.Errorf("display %q", got)
		}
	})
}

func TestChildObjectKeysAndBinds(t *testing.T) {
	src := `
module leaf #(parameter W = 4) (input [W-1:0] x, output [W-1:0] y);
  assign y = x + 1;
endmodule
module top (input [7:0] i, output [7:0] o);
  wire [7:0] t;
  leaf #(.W(8)) l0 (.x(i), .y(t));
  leaf #(.W(8)) l1 (.x(t + 8'd1), .y(o));
endmodule`
	sf, err := parser.ParseFile("t.v", src)
	if err != nil {
		t.Fatal(err)
	}
	srcs := map[string]*ast.Module{}
	for _, m := range sf.Modules {
		srcs[m.Name] = m
	}
	d, err := elab.Elaborate(srcs, "top", nil)
	if err != nil {
		t.Fatal(err)
	}
	obj, err := Compile(d.Top(), Options{Style: StyleGrouped})
	if err != nil {
		t.Fatal(err)
	}
	if len(obj.Children) != 2 {
		t.Fatalf("children %d", len(obj.Children))
	}
	if obj.Children[0].ObjectKey != "leaf#W=8" {
		t.Errorf("key %q", obj.Children[0].ObjectKey)
	}
	if len(obj.Children[0].Binds) != 2 || len(obj.Children[1].Binds) != 2 {
		t.Errorf("binds %+v", obj.Children)
	}
	// l1's input is an expression: a glue node must exist in comb code.
	if len(obj.Comb) == 0 {
		t.Error("expected glue/assign code in parent comb")
	}
}

func TestSeqBlockingRejected(t *testing.T) {
	src := `
module b (input clk, output reg r);
  always @(posedge clk) r = 1;
endmodule`
	for _, style := range []Style{StyleGrouped, StyleMux} {
		if _, err := tryCompileSrc(src, "b", style); err == nil || !strings.Contains(err.Error(), "blocking") {
			t.Fatalf("style %v: want blocking error, got %v", style, err)
		}
	}
}

func TestCombNonBlockingRejected(t *testing.T) {
	src := `
module b (input a, output reg r);
  always @(*) r <= a;
endmodule`
	if _, err := tryCompileSrc(src, "b", StyleGrouped); err == nil || !strings.Contains(err.Error(), "non-blocking") {
		t.Fatalf("want non-blocking error, got %v", err)
	}
}

func TestReductionOps(t *testing.T) {
	bothStyles(t, func(t *testing.T, style Style) {
		h := newHarness(t, `
module r (input [3:0] v, output rand_, ror_, rxor_, nand_, nor_, xnor_);
  assign rand_ = &v;
  assign ror_  = |v;
  assign rxor_ = ^v;
  assign nand_ = ~&v;
  assign nor_  = ~|v;
  assign xnor_ = ~^v;
endmodule`, "r", style)
		h.in("v", 0xF)
		h.comb()
		if h.out("rand_") != 1 || h.out("ror_") != 1 || h.out("rxor_") != 0 ||
			h.out("nand_") != 0 || h.out("nor_") != 0 || h.out("xnor_") != 1 {
			t.Error("reduction wrong for 0xF")
		}
		h.in("v", 0x6)
		h.comb()
		if h.out("rand_") != 0 || h.out("ror_") != 1 || h.out("rxor_") != 0 {
			t.Error("reduction wrong for 0x6")
		}
	})
}

func TestTernaryNesting(t *testing.T) {
	bothStyles(t, func(t *testing.T, style Style) {
		h := newHarness(t, `
module t (input [1:0] s, input [7:0] a, b, c, output [7:0] y);
  assign y = s == 2'd0 ? a : s == 2'd1 ? b : c;
endmodule`, "t", style)
		h.in("a", 10)
		h.in("b", 20)
		h.in("c", 30)
		for s, want := range map[uint64]uint64{0: 10, 1: 20, 2: 30, 3: 30} {
			h.in("s", s)
			h.comb()
			if h.out("y") != want {
				t.Errorf("s=%d y=%d want %d", s, h.out("y"), want)
			}
		}
	})
}

func TestLocalparamInBehavior(t *testing.T) {
	bothStyles(t, func(t *testing.T, style Style) {
		h := newHarness(t, `
module lp (input [7:0] a, output [7:0] y, output hit);
  localparam MAGIC = 8'h5A;
  assign y = a ^ MAGIC;
  assign hit = a == MAGIC;
endmodule`, "lp", style)
		h.in("a", 0x5A)
		h.comb()
		if h.out("y") != 0 || h.out("hit") != 1 {
			t.Errorf("y %x hit %d", h.out("y"), h.out("hit"))
		}
	})
}

func TestObjectHashDiffersByStyle(t *testing.T) {
	src := "module m (input s, input [7:0] a, b, output [7:0] y); assign y = s ? a : b; endmodule"
	og := compileSrc(t, src, "m", StyleGrouped)
	om := compileSrc(t, src, "m", StyleMux)
	if og.Hash() == om.Hash() {
		t.Error("styles should produce different code")
	}
	og2 := compileSrc(t, src, "m", StyleGrouped)
	if og.Hash() != og2.Hash() {
		t.Error("compilation must be deterministic")
	}
}
