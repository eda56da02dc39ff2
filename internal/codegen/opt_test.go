package codegen

import (
	"strings"
	"testing"

	"livesim/internal/vm"
)

// countOps tallies opcode kinds in a code stream.
func countOps(code []vm.Instr) map[vm.OpCode]int {
	out := map[vm.OpCode]int{}
	for _, in := range code {
		out[in.Op]++
	}
	return out
}

func TestConstantFoldingCollapsesLiteralExprs(t *testing.T) {
	// Everything on the RHS is compile-time constant: the comb program
	// should be a single move from a pooled constant, not an add chain.
	h := newHarness(t, `
module k (output [15:0] y);
  localparam A = 40;
  assign y = (A + 2) * 10 - (1 << 4);
endmodule`, "k", StyleGrouped)
	h.comb()
	if got := h.out("y"); got != (40+2)*10-16 {
		t.Errorf("y = %d", got)
	}
	ops := countOps(h.obj.Comb)
	if ops[vm.OpAdd]+ops[vm.OpMul]+ops[vm.OpSub]+ops[vm.OpShl] != 0 {
		t.Errorf("constant expression not folded: %v\n%s", ops, disasm(h.obj.Comb))
	}
}

func TestConstantFoldingPartial(t *testing.T) {
	// x + (3*4) should fold the literal product but keep one add.
	h := newHarness(t, `
module k (input [15:0] x, output [15:0] y);
  assign y = x + (3 * 4);
endmodule`, "k", StyleGrouped)
	ops := countOps(h.obj.Comb)
	if ops[vm.OpMul] != 0 {
		t.Errorf("literal product survived: %s", disasm(h.obj.Comb))
	}
	if ops[vm.OpAdd] != 1 {
		t.Errorf("expected exactly one add: %s", disasm(h.obj.Comb))
	}
	h.in("x", 5)
	h.comb()
	if h.out("y") != 17 {
		t.Errorf("y=%d", h.out("y"))
	}
}

func TestCSECollapsesRepeatedSubexpressions(t *testing.T) {
	h := newHarness(t, `
module k (input [15:0] a, b, output [15:0] p, q);
  assign p = (a + b) ^ 16'h00FF;
  assign q = (a + b) ^ 16'hFF00;
endmodule`, "k", StyleGrouped)
	ops := countOps(h.obj.Comb)
	if ops[vm.OpAdd] != 1 {
		t.Errorf("a+b computed %d times, want 1:\n%s", ops[vm.OpAdd], disasm(h.obj.Comb))
	}
	h.in("a", 3)
	h.in("b", 9)
	h.comb()
	if h.out("p") != 12^0xFF || h.out("q") != 12^0xFF00 {
		t.Errorf("p=%x q=%x", h.out("p"), h.out("q"))
	}
}

// TestScopedCSEDoesNotLeakFromBranches: a value computed inside a branch
// arm must not satisfy a later unconditional use.
func TestScopedCSEDoesNotLeakFromBranches(t *testing.T) {
	h := newHarness(t, `
module k (input s, input [15:0] a, b, output reg [15:0] y, output [15:0] z);
  always @(*) begin
    if (s) y = a + b;
    else y = a - b;
  end
  assign z = (a + b) + 1;
endmodule`, "k", StyleGrouped)
	// With s=0 the a+b arm never runs; z must still be correct.
	h.in("s", 0)
	h.in("a", 10)
	h.in("b", 4)
	h.comb()
	if h.out("y") != 6 {
		t.Errorf("y=%d", h.out("y"))
	}
	if h.out("z") != 15 {
		t.Errorf("z=%d (stale branch-scoped CSE?)", h.out("z"))
	}
}

// TestAndWithFullMaskEmitsNothing: the full-width mask of a 64-bit result
// latch costs no op, and the output then names the register's slot.
func TestAndWithFullMaskEmitsNothing(t *testing.T) {
	obj := compileSrc(t, `
module k (input clk, input [63:0] a, input [31:0] b, output [63:0] y, output [31:0] z);
  reg [63:0] res_r;
  always @(posedge clk) res_r <= a;
  assign y = res_r & 64'hFFFF_FFFF_FFFF_FFFF;
  assign z = 32'hFFFF_FFFF & b;
endmodule`, "k", StyleGrouped)
	for _, code := range [][]vm.Instr{obj.Comb, obj.Seq} {
		if ops := countOps(code); ops[vm.OpAnd]+ops[vm.OpAndImm] != 0 {
			t.Errorf("an and with the full mask was emitted:\n%s", disasm(code))
		}
	}
	if y := obj.Ports[obj.PortIndex("y")]; y.Slot != obj.RegByName("res_r").Cur {
		t.Errorf("y reads slot %d, want res_r's current value (slot %d)", y.Slot, obj.RegByName("res_r").Cur)
	}
}

// TestTernaryWritesItsDestination: in the grouped style a ternary whose
// value its destination only copies has its arms write the destination —
// a continuous assign, an always @(*) target, a connection's glue wire and
// a clocked <= — nested ternaries included, so the lowering writes no
// temporary and no move follows a join.
func TestTernaryWritesItsDestination(t *testing.T) {
	const leaf = "module leaf (input [7:0] i, output [7:0] o);\n  assign o = i;\nendmodule\n"
	for _, c := range []struct {
		name, body string
		moves      int // one per arm; the clocked form adds y = r
	}{
		{"assign", "assign y = c1 ? a : c2 ? b : d;", 3},
		{"always", "always @(*) begin if (c1) y = a; else if (c2) y = b; else y = d; end", 3},
		{"glue", "leaf u (.i(c1 ? a : c2 ? b : d), .o(y));", 3},
		{"clocked", "reg [7:0] r;\nalways @(posedge clk) r <= c1 ? a : c2 ? b : d;\nassign y = r;", 4},
	} {
		t.Run(c.name, func(t *testing.T) {
			m, err := elabSrc(leaf+"module m (input clk, input c1, c2, input [7:0] a, b, d, output reg [7:0] y);\n"+c.body+"\nendmodule\n", "m")
			if err != nil {
				t.Fatal(err)
			}
			obj, _, err := lower(m, Options{Style: StyleGrouped})
			if err != nil {
				t.Fatal(err)
			}
			named := map[uint32]bool{}
			for _, p := range obj.Ports {
				named[p.Slot] = true
			}
			for _, r := range obj.Regs {
				named[r.Next] = true
			}
			for _, ch := range obj.Children {
				for _, b := range ch.Binds {
					named[b.ParentSlot] = true
				}
			}
			code := append(append([]vm.Instr(nil), obj.Comb...), obj.Seq...)
			for _, in := range code {
				if in.Op.Pure() && !named[in.Dst] {
					t.Errorf("%s writes a temporary:\n%s", in, disasm(code))
				}
			}
			if got := countOps(code)[vm.OpMove]; got != c.moves {
				t.Errorf("%d moves, want %d:\n%s", got, c.moves, disasm(code))
			}
		})
	}
}

func disasm(code []vm.Instr) string {
	var sb strings.Builder
	for i, in := range code {
		sb.WriteString(in.String())
		if i < len(code)-1 {
			sb.WriteByte('\n')
		}
	}
	return sb.String()
}

// tidyByHand runs a hand-built object as written and tidied, for both values
// of its 1-bit input c (slot 0) and a (slot 1) = 0x0f, and requires equal
// outputs w (slot 2 as written; tidy may point the port elsewhere). It
// returns the tidied code.
func tidyByHand(t *testing.T, numSlots uint32, consts []vm.ConstInit, comb []vm.Instr) []vm.Instr {
	t.Helper()
	const c, a, w = 0, 1, 2
	build := func() *vm.Object {
		return &vm.Object{
			Key: "t", ModName: "t", NumSlots: numSlots,
			Ports: []vm.Port{
				{Name: "c", Slot: c, Mask: 1}, {Name: "a", Slot: a, Mask: 0xff},
				{Name: "w", Dir: vm.Out, Slot: w, Mask: 0xff},
			},
			Consts: consts,
			Comb:   append([]vm.Instr(nil), comb...),
		}
	}
	ref, obj := build(), build()
	tidy(obj, nil)
	if err := obj.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, cv := range []uint64{0, 1} {
		ri, oi := vm.NewInstance(ref), vm.NewInstance(obj)
		for _, in := range []*vm.Instance{ri, oi} {
			in.Slots[c], in.Slots[a] = cv, 0x0f
			in.RunComb(nil)
		}
		if got := oi.Slots[obj.Ports[w].Slot]; ri.Slots[w] != got {
			t.Errorf("c=%d: w = %#x as lowered, %#x tidied\n%s", cv, ri.Slots[w], got, disasm(obj.Comb))
		}
	}
	return obj.Comb
}

// TestTidyKeepsMoveThatIsAJumpTarget: a move some jump lands on can run
// without the instruction before it, so that one may not write the move's
// destination in its place.
func TestTidyKeepsMoveThatIsAJumpTarget(t *testing.T) {
	const c, a, w, k, tmp = 0, 1, 2, 3, 4
	tidyByHand(t, 5, []vm.ConstInit{{Slot: k, Value: 5}}, []vm.Instr{
		{Op: vm.OpMove, Dst: tmp, A: k},
		{Op: vm.OpJnz, A: c, B: 3},
		{Op: vm.OpNot, Dst: tmp, A: a, Imm: 0xff},
		{Op: vm.OpMove, Dst: w, A: tmp},
	})
}

// TestTidyForwardsTheWriterNextToTheMove: tidy does not count a temporary's
// writers. Of two, the one next to the move always runs last, so it takes
// the move's destination; the other, in a branch that may be skipped, is
// left writing a slot nothing reads and goes as dead code.
func TestTidyForwardsTheWriterNextToTheMove(t *testing.T) {
	const c, a, w, tmp = 0, 1, 2, 3
	got := tidyByHand(t, 4, nil, []vm.Instr{
		{Op: vm.OpJz, A: c, B: 2},
		{Op: vm.OpNot, Dst: tmp, A: a, Imm: 0xff},
		{Op: vm.OpNeg, Dst: tmp, A: a, Imm: 0xff},
		{Op: vm.OpMove, Dst: w, A: tmp},
	})
	if len(got) != 2 || got[1].Op != vm.OpNeg || got[1].Dst != w || got[0].B != 1 {
		t.Errorf("want the jump and neg into w:\n%s", disasm(got))
	}
}

// TestTidyAliasConditions: a Comb move w ← s that tidy may turn into w
// naming s, and one row for each condition under which it may not, each of
// which keeps its move. Every row runs as written and tidied for a few
// clock cycles, each object read through its own tables.
func TestTidyAliasConditions(t *testing.T) {
	// c and a are inputs, w and v outputs, r a register with next value
	// rn, k the constant 5 and tmp a temporary.
	const c, a, w, v, r, rn, k, tmp = 0, 1, 2, 3, 4, 5, 6, 7
	move := func(d, s uint32) vm.Instr { return vm.Instr{Op: vm.OpMove, Dst: d, A: s} }
	not := func(d, s uint32) vm.Instr { return vm.Instr{Op: vm.OpNot, Dst: d, A: s, Imm: 0xff} }
	for _, tc := range []struct {
		name      string
		comb, seq []vm.Instr
		childOut  []uint32
		d         uint32 // the move's destination
		aliased   bool
	}{
		{name: "aliased", comb: []vm.Instr{move(w, a)}, d: w, aliased: true},
		{name: "a branch jumps over it", comb: []vm.Instr{{Op: vm.OpJz, A: c, B: 2}, move(w, a)}, d: w},
		{name: "not its only writer", comb: []vm.Instr{{Op: vm.OpJz, A: c, B: 2}, not(w, a), move(w, k)}, d: w},
		{name: "read before it", comb: []vm.Instr{not(v, w), move(w, a)}, d: w},
		{name: "source written after it", comb: []vm.Instr{move(w, tmp), not(tmp, a)}, d: w},
		{name: "source written by seq", comb: []vm.Instr{move(w, tmp)}, seq: []vm.Instr{not(tmp, a)}, d: w},
		{name: "register value", comb: []vm.Instr{move(r, a)}, d: r},
		{name: "register next value", comb: []vm.Instr{move(rn, a)}, d: rn},
		{name: "constant", comb: []vm.Instr{move(k, a)}, d: k},
		{name: "input port", comb: []vm.Instr{move(c, a)}, d: c},
		{name: "driven by a child", comb: []vm.Instr{move(w, a)}, childOut: []uint32{w}, d: w},
	} {
		t.Run(tc.name, func(t *testing.T) {
			build := func() *vm.Object {
				return &vm.Object{
					Key: "t", ModName: "t", NumSlots: 8,
					Ports: []vm.Port{
						{Name: "c", Slot: c, Mask: 1}, {Name: "a", Slot: a, Mask: 0xff},
						{Name: "w", Dir: vm.Out, Slot: w, Mask: 0xff}, {Name: "v", Dir: vm.Out, Slot: v, Mask: 0xff},
					},
					Regs:   []vm.Reg{{Name: "r", Cur: r, Next: rn, Mask: 0xff}},
					Consts: []vm.ConstInit{{Slot: k, Value: 5}},
					Comb:   append([]vm.Instr(nil), tc.comb...),
					Seq:    append([]vm.Instr(nil), tc.seq...),
					Debug:  []vm.SlotDebug{{Name: "w", Slot: w, Bits: 8}, {Name: "r", Slot: r, Bits: 8}},
				}
			}
			ref, obj := build(), build()
			tidy(obj, tc.childOut)
			if err := obj.Validate(); err != nil {
				t.Fatal(err)
			}
			kept := false
			for _, in := range obj.Comb {
				kept = kept || in.Op == vm.OpMove && in.Dst == tc.d
			}
			if kept == tc.aliased {
				t.Errorf("move into s%d kept: %v, want %v\n%s", tc.d, kept, !tc.aliased, disasm(obj.Comb))
			}
			if tc.aliased && (obj.Ports[2].Slot != a || obj.Debug[0].Slot != a) {
				t.Errorf("port w names s%d and its Debug entry s%d, want both s%d", obj.Ports[2].Slot, obj.Debug[0].Slot, a)
			}
			ri, oi := vm.NewInstance(ref), vm.NewInstance(obj)
			for cycle := uint64(0); cycle < 4; cycle++ {
				for _, in := range []*vm.Instance{ri, oi} {
					in.Slots[in.Obj.Ports[0].Slot], in.Slots[in.Obj.Ports[1].Slot] = cycle&1, 0x30+cycle
					in.RunComb(nil)
				}
				for i, p := range ref.Ports {
					if got, want := oi.Slots[obj.Ports[i].Slot], ri.Slots[p.Slot]; got != want {
						t.Fatalf("cycle %d: %s = %#x tidied, %#x as written\n%s", cycle, p.Name, got, want, disasm(obj.Comb))
					}
				}
				for _, in := range []*vm.Instance{ri, oi} {
					in.RunSeq(nil)
					in.Commit()
				}
				if oi.Slots[r] != ri.Slots[r] {
					t.Fatalf("cycle %d: r = %#x tidied, %#x as written", cycle, oi.Slots[r], ri.Slots[r])
				}
			}
		})
	}
}

// TestTidyFusesMeasuredPairs: each of the four pairs becomes its fused
// op when the first op's temporary has no other reader, in either operand
// position of the second op.
func TestTidyFusesMeasuredPairs(t *testing.T) {
	const c, a, w, k, tmp = 0, 1, 2, 3, 4
	consts := []vm.ConstInit{{Slot: k, Value: 1}}
	for _, tc := range []struct {
		code []vm.Instr
		want vm.Instr
	}{
		{[]vm.Instr{
			{Op: vm.OpShlImm, Dst: tmp, A: c, B: 4, Imm: 0xff},
			{Op: vm.OpOr, Dst: w, A: a, B: tmp},
		}, vm.Instr{Op: vm.OpShlOr, Dst: w, A: c, B: a, W: 4, Imm: 0xff}},
		{[]vm.Instr{
			{Op: vm.OpEqImm, Dst: tmp, A: c, Imm: 1},
			{Op: vm.OpAnd, Dst: w, A: tmp, B: a},
		}, vm.Instr{Op: vm.OpAndEqI, Dst: w, A: c, B: a, Imm: 1}},
		{[]vm.Instr{
			{Op: vm.OpEq, Dst: tmp, A: c, B: k},
			{Op: vm.OpAnd, Dst: w, A: a, B: tmp},
		}, vm.Instr{Op: vm.OpAndEq, Dst: w, A: c, B: k, C: a}},
		{[]vm.Instr{
			{Op: vm.OpEq, Dst: tmp, A: c, B: k},
			{Op: vm.OpJz, A: tmp, B: 3},
			{Op: vm.OpMove, Dst: w, A: a},
		}, vm.Instr{Op: vm.OpJne, A: c, C: k, B: 2}},
	} {
		got := tidyByHand(t, 5, consts, tc.code)
		if len(got) != len(tc.code)-1 || got[0] != tc.want {
			t.Errorf("%s\ntidied to\n%s\nwant first %v", disasm(tc.code), disasm(got), tc.want)
		}
	}
}

// TestTidyLeavesPairsItCannotFuse: a pair whose second op is a jump
// target, whose temporary has a second reader or is pinned, stays two
// ops.
func TestTidyLeavesPairsItCannotFuse(t *testing.T) {
	const c, a, w, k, tmp = 0, 1, 2, 3, 4
	consts := []vm.ConstInit{{Slot: k, Value: 1}}
	for _, code := range [][]vm.Instr{
		{ // the and is a jump target
			{Op: vm.OpJz, A: c, B: 2},
			{Op: vm.OpEq, Dst: tmp, A: c, B: k},
			{Op: vm.OpAnd, Dst: w, A: tmp, B: a},
		},
		{ // the temporary has a second reader
			{Op: vm.OpEqImm, Dst: tmp, A: c, Imm: 1},
			{Op: vm.OpAnd, Dst: w, A: tmp, B: a},
			{Op: vm.OpOr, Dst: w, A: w, B: tmp},
		},
		{ // the temporary is a constant's slot
			{Op: vm.OpEq, Dst: k, A: c, B: a},
			{Op: vm.OpAnd, Dst: w, A: k, B: a},
		},
	} {
		got := tidyByHand(t, 5, consts, code)
		for _, in := range got {
			if in.Op >= vm.OpShlOr {
				t.Errorf("%s\nfused:\n%s", disasm(code), disasm(got))
			}
		}
	}
}
