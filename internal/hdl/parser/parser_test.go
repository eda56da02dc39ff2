package parser

import (
	"testing"

	"livesim/internal/hdl/ast"
	"livesim/internal/hdl/lexer"
)

const adderSrc = `
module adder #(parameter W = 8) (
  input clk,
  input [W-1:0] a,
  input [W-1:0] b,
  output reg [W-1:0] sum
);
  wire [W-1:0] t;
  assign t = a + b;
  always @(posedge clk) begin
    sum <= t;
  end
endmodule
`

func TestParseAdder(t *testing.T) {
	m, err := ParseModule("adder.v", adderSrc)
	if err != nil {
		t.Fatal(err)
	}
	if m.Name != "adder" {
		t.Errorf("name %q", m.Name)
	}
	if len(m.Params) != 1 || m.Params[0].Name != "W" {
		t.Errorf("params %+v", m.Params)
	}
	if len(m.Ports) != 4 {
		t.Fatalf("ports %d", len(m.Ports))
	}
	if m.Ports[3].Dir != ast.Output || !m.Ports[3].IsReg {
		t.Errorf("sum port %+v", m.Ports[3])
	}
	if len(m.Items) != 3 {
		t.Fatalf("items %d", len(m.Items))
	}
	if _, ok := m.Items[0].(*ast.NetDecl); !ok {
		t.Errorf("item 0 %T", m.Items[0])
	}
	if _, ok := m.Items[1].(*ast.ContAssign); !ok {
		t.Errorf("item 1 %T", m.Items[1])
	}
	ab, ok := m.Items[2].(*ast.AlwaysBlock)
	if !ok || ab.Edge != ast.Posedge || ab.Clock != "clk" {
		t.Errorf("item 2 %+v", m.Items[2])
	}
}

func TestPortDirectionInheritance(t *testing.T) {
	src := "module m (input [3:0] a, b, output c, d); endmodule"
	m, err := ParseModule("m.v", src)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Ports) != 4 {
		t.Fatalf("ports %d", len(m.Ports))
	}
	if m.Ports[1].Dir != ast.Input || m.Ports[1].Range == nil {
		t.Errorf("b should inherit input [3:0]: %+v", m.Ports[1])
	}
	if m.Ports[3].Dir != ast.Output || m.Ports[3].Range != nil {
		t.Errorf("d should inherit output scalar: %+v", m.Ports[3])
	}
}

func TestParseInstance(t *testing.T) {
	src := `module top (input clk);
  wire [7:0] x, y, z;
  adder #(.W(8)) a0 (.clk(clk), .a(x), .b(y), .sum(z));
  sub s0 (x, y);
endmodule`
	m, err := ParseModule("top.v", src)
	if err != nil {
		t.Fatal(err)
	}
	// 3 net decls (flattened) + 2 instances
	if len(m.Items) != 5 {
		t.Fatalf("items %d: %#v", len(m.Items), m.Items)
	}
	inst := m.Items[3].(*ast.Instance)
	if inst.ModName != "adder" || inst.Name != "a0" {
		t.Errorf("instance %+v", inst)
	}
	if len(inst.Params) != 1 || inst.Params[0].Name != "W" {
		t.Errorf("params %+v", inst.Params)
	}
	if len(inst.Conns) != 4 || inst.Conns[0].Name != "clk" {
		t.Errorf("conns %+v", inst.Conns)
	}
	pos := m.Items[4].(*ast.Instance)
	if pos.Conns[0].Name != "" || pos.Conns[1].Name != "" {
		t.Errorf("positional conns %+v", pos.Conns)
	}
}

func TestParseMemoryDecl(t *testing.T) {
	src := "module m (); reg [31:0] mem [0:1023]; endmodule"
	m, err := ParseModule("m.v", src)
	if err != nil {
		t.Fatal(err)
	}
	d := m.Items[0].(*ast.NetDecl)
	if d.Array == nil || d.Range == nil || d.Kind != ast.Reg {
		t.Errorf("decl %+v", d)
	}
}

func TestParseCase(t *testing.T) {
	src := `module m (input [1:0] s, input a, b, c, output reg o);
  always @(*) begin
    case (s)
      2'b00: o = a;
      2'b01, 2'b10: o = b;
      default: o = c;
    endcase
  end
endmodule`
	m, err := ParseModule("m.v", src)
	if err != nil {
		t.Fatal(err)
	}
	ab := m.Items[0].(*ast.AlwaysBlock)
	cs := ab.Body.(*ast.Block).Stmts[0].(*ast.Case)
	if len(cs.Items) != 3 {
		t.Fatalf("case items %d", len(cs.Items))
	}
	if len(cs.Items[1].Exprs) != 2 {
		t.Errorf("multi-label arm %+v", cs.Items[1])
	}
	if cs.Items[2].Exprs != nil {
		t.Errorf("default arm should have nil exprs")
	}
}

func TestExprPrecedence(t *testing.T) {
	e, err := ParseExpr("a + b * c")
	if err != nil {
		t.Fatal(err)
	}
	add := e.(*ast.Binary)
	if add.Op != ast.Add {
		t.Fatalf("top op %v", add.Op)
	}
	mul := add.Y.(*ast.Binary)
	if mul.Op != ast.Mul {
		t.Fatalf("inner op %v", mul.Op)
	}

	e2, _ := ParseExpr("a == b && c | d")
	and := e2.(*ast.Binary)
	if and.Op != ast.LogAnd {
		t.Fatalf("top %v", and.Op)
	}
	if and.X.(*ast.Binary).Op != ast.Eq || and.Y.(*ast.Binary).Op != ast.Or {
		t.Fatal("precedence wrong")
	}
}

func TestLessEqualInExpr(t *testing.T) {
	e, err := ParseExpr("a <= b")
	if err != nil {
		t.Fatal(err)
	}
	if e.(*ast.Binary).Op != ast.Le {
		t.Fatalf("op %v", e.(*ast.Binary).Op)
	}
}

func TestTernaryRightAssoc(t *testing.T) {
	e, err := ParseExpr("a ? b : c ? d : e")
	if err != nil {
		t.Fatal(err)
	}
	outer := e.(*ast.Ternary)
	if _, ok := outer.Else.(*ast.Ternary); !ok {
		t.Fatal("ternary should nest in else")
	}
}

func TestConcatAndRepl(t *testing.T) {
	e, err := ParseExpr("{a, 2'b01, {4{b}}}")
	if err != nil {
		t.Fatal(err)
	}
	cat := e.(*ast.Concat)
	if len(cat.Parts) != 3 {
		t.Fatalf("parts %d", len(cat.Parts))
	}
	repl := cat.Parts[2].(*ast.Repl)
	if repl.Count.(*ast.Number).Value != 4 {
		t.Errorf("repl count %+v", repl.Count)
	}
}

func TestSelects(t *testing.T) {
	e, err := ParseExpr("x[3]")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := e.(*ast.Index); !ok {
		t.Fatalf("%T", e)
	}
	e2, err := ParseExpr("x[7:4]")
	if err != nil {
		t.Fatal(err)
	}
	ps := e2.(*ast.PartSelect)
	if ps.MSB.(*ast.Number).Value != 7 || ps.LSB.(*ast.Number).Value != 4 {
		t.Errorf("part select %+v", ps)
	}
}

func TestNumberLiterals(t *testing.T) {
	cases := []struct {
		src   string
		value uint64
		width int
	}{
		{"42", 42, 0},
		{"8'hFF", 0xFF, 8},
		{"4'b1010", 10, 4},
		{"12'o777", 0o777, 12},
		{"'d9", 9, 32},
		{"64'hdead_beef_cafe_f00d", 0xdeadbeefcafef00d, 64},
		{"3'b111", 7, 3},
		{"8'hff", 0xff, 8},
	}
	for _, c := range cases {
		e, err := ParseExpr(c.src)
		if err != nil {
			t.Errorf("%s: %v", c.src, err)
			continue
		}
		n := e.(*ast.Number)
		if n.Value != c.value || n.Width != c.width {
			t.Errorf("%s: got value %d width %d, want %d %d", c.src, n.Value, n.Width, c.value, c.width)
		}
	}
}

func TestCasezXMask(t *testing.T) {
	e, err := ParseExpr("4'b1??0")
	if err != nil {
		t.Fatal(err)
	}
	n := e.(*ast.Number)
	if n.Value != 0b1000 || n.XMask != 0b0110 {
		t.Errorf("value %b xmask %b", n.Value, n.XMask)
	}
}

func TestReductionOps(t *testing.T) {
	for src, op := range map[string]ast.UnaryOp{
		"&x": ast.RedAnd, "|x": ast.RedOr, "^x": ast.RedXor,
		"~&x": ast.RedNand, "~|x": ast.RedNor, "~^x": ast.RedXnor,
		"!x": ast.LogNot, "~x": ast.BitNot, "-x": ast.Neg,
	} {
		e, err := ParseExpr(src)
		if err != nil {
			t.Errorf("%s: %v", src, err)
			continue
		}
		if u := e.(*ast.Unary); u.Op != op {
			t.Errorf("%s: op %v want %v", src, u.Op, op)
		}
	}
}

func TestSysFunc(t *testing.T) {
	e, err := ParseExpr("$signed(a) >>> 2")
	if err != nil {
		t.Fatal(err)
	}
	b := e.(*ast.Binary)
	if b.Op != ast.Sshr {
		t.Fatalf("op %v", b.Op)
	}
	sf := b.X.(*ast.SysFunc)
	if sf.Name != "$signed" || len(sf.Args) != 1 {
		t.Errorf("sysfunc %+v", sf)
	}
}

func TestMultipleModules(t *testing.T) {
	src := "module a (); endmodule\nmodule b (); endmodule"
	sf, err := ParseFile("f.v", src)
	if err != nil {
		t.Fatal(err)
	}
	if len(sf.Modules) != 2 || sf.Modules[0].Name != "a" || sf.Modules[1].Name != "b" {
		t.Fatalf("modules %+v", sf.Modules)
	}
	if sf.Modules[0].Pos.Line != 1 || sf.Modules[1].Pos.Line != 2 {
		t.Errorf("positions %v %v", sf.Modules[0].Pos, sf.Modules[1].Pos)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"module",
		"module m (input; endmodule",
		"module m (); assign ; endmodule",
		"module m (); always @(posedge) x <= 1; endmodule",
		"module m (); wire w = ; endmodule",
		"module m (); if (a) x = 1; endmodule",
		"module m (); case endmodule",
		"module m ()",
	}
	for _, src := range cases {
		if _, err := ParseFile("bad.v", src); err == nil {
			t.Errorf("%q: want parse error", src)
		}
	}
}

func TestSysCallStmt(t *testing.T) {
	src := `module m (input clk);
  always @(posedge clk) begin
    $display("cycle %d", 1);
    $finish;
  end
endmodule`
	m, err := ParseModule("m.v", src)
	if err != nil {
		t.Fatal(err)
	}
	blk := m.Items[0].(*ast.AlwaysBlock).Body.(*ast.Block)
	if len(blk.Stmts) != 2 {
		t.Fatalf("stmts %d", len(blk.Stmts))
	}
	if sc := blk.Stmts[0].(*ast.SysCall); sc.Name != "$display" || len(sc.Args) != 2 {
		t.Errorf("syscall %+v", sc)
	}
}

func TestWireInitSugar(t *testing.T) {
	src := "module m (input a); wire w = a & 1'b1; endmodule"
	m, err := ParseModule("m.v", src)
	if err != nil {
		t.Fatal(err)
	}
	d := m.Items[0].(*ast.NetDecl)
	if d.Init == nil {
		t.Fatal("init missing")
	}
}

// TestModuleTokens: the per-module token slices are exactly what lexing the
// module's own text gives — `module` through `endmodule`, nothing of the
// neighbours or of the comments between them.
func TestModuleTokens(t *testing.T) {
	src := "// head\nmodule a (input x); /* c */ wire y = x; endmodule\n// between\nmodule b (); endmodule // tail\n"
	sf, toks, err := ParseFileTokens("f.v", src)
	if err != nil {
		t.Fatal(err)
	}
	if len(toks) != len(sf.Modules) {
		t.Fatalf("%d token slices for %d modules", len(toks), len(sf.Modules))
	}
	for i, m := range sf.Modules {
		own := lexer.Tokenize("f.v", src[m.Pos.Offset:m.End.Offset])
		own = own[:len(own)-1] // EOF
		if len(toks[i]) != len(own) {
			t.Fatalf("module %s: %d tokens, its text lexes to %d", m.Name, len(toks[i]), len(own))
		}
		for j, tok := range toks[i] {
			if tok.Kind != own[j].Kind || tok.Text != own[j].Text {
				t.Errorf("module %s token %d: %v, want %v", m.Name, j, tok, own[j])
			}
		}
	}
}

func TestModuleEndPos(t *testing.T) {
	src := "module m ();\nendmodule"
	m, err := ParseModule("m.v", src)
	if err != nil {
		t.Fatal(err)
	}
	if m.End.Offset != len(src) {
		t.Errorf("end offset %d want %d", m.End.Offset, len(src))
	}
}

func TestParseErrorPaths(t *testing.T) {
	bad := []string{
		"module m #(parameter W = ) (); endmodule",                   // bad default
		"module m #(parameter) (); endmodule",                        // missing name
		"module m (input [7:0 a); endmodule",                         // missing :
		"module m (input [7:0] a; endmodule",                         // missing )
		"module m (); u #(.W()) x; endmodule",                        // empty param conn then bad
		"module m (); foo u0 (.p(a) .q(b)); endmodule",               // missing comma
		"module m (); always @(posedge clk) begin x <= 1; endmodule", // missing end
		"module m (); always @(posedge clk) case (x) 1: ; endmodule", // missing endcase
		"module m (); assign x = {a; endmodule",                      // bad concat
		"module m (); assign x = {2{a}; endmodule",                   // bad repl
		"module m (); assign x = a[3; endmodule",                     // bad select
		"module m (); assign x = $f(a; endmodule",                    // bad sysfunc
		"module m (); wire [99999999999999999999:0] x; endmodule",    // overflow literal
		"module m (); assign x = 9'; endmodule",                      // broken literal
		"module m (); assign x = 65'h0; endmodule",                   // width > 64
		"module m (); assign x = 8'q0; endmodule",                    // bad base
		"module m (); assign x = 8'hXG; endmodule",                   // bad digit
		"module m (); assign x = 'd1x; endmodule",                    // x in decimal
		"module m (); always @(posedge clk) x += 1; endmodule",       // bad assign op
	}
	for _, src := range bad {
		if _, err := ParseFile("bad.v", src); err == nil {
			t.Errorf("%q: want parse error", src)
		}
	}
}

func TestParseAlwaysAtStarVariants(t *testing.T) {
	for _, src := range []string{
		"module m (input a, output reg y); always @* y = a; endmodule",
		"module m (input a, output reg y); always @(*) y = a; endmodule",
		"module m (input a, output reg y); always @(a) y = a; endmodule",
	} {
		mod, err := ParseModule("m.v", src)
		if err != nil {
			t.Errorf("%q: %v", src, err)
			continue
		}
		if mod.Items[0].(*ast.AlwaysBlock).Edge != ast.Comb {
			t.Errorf("%q: not comb", src)
		}
	}
}

func TestEmptyPortList(t *testing.T) {
	m, err := ParseModule("m.v", "module m (); endmodule")
	if err != nil || len(m.Ports) != 0 {
		t.Fatalf("%v %v", m, err)
	}
	m2, err := ParseModule("m.v", "module m; endmodule")
	if err == nil {
		_ = m2 // non-ANSI headers without port list: the grammar requires ();
		t.Log("headerless module accepted")
	}
}
