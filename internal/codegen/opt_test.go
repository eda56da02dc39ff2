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

func TestFoldConstMirrorsVM(t *testing.T) {
	// For every foldable opcode, compare the folded result with actual VM
	// execution over the same constant operands.
	cases := []vm.Instr{
		{Op: vm.OpAdd, Imm: vm.Mask(16)},
		{Op: vm.OpSub, Imm: vm.Mask(16)},
		{Op: vm.OpMul, Imm: vm.Mask(16)},
		{Op: vm.OpDiv, Imm: vm.Mask(16)},
		{Op: vm.OpMod, Imm: vm.Mask(16)},
		{Op: vm.OpAnd}, {Op: vm.OpOr}, {Op: vm.OpXor},
		{Op: vm.OpShl, Imm: vm.Mask(16)}, {Op: vm.OpShr},
		{Op: vm.OpSshr, W: 16, Imm: vm.Mask(16)},
		{Op: vm.OpEq}, {Op: vm.OpNe}, {Op: vm.OpLtU}, {Op: vm.OpLeU},
		{Op: vm.OpLtS}, {Op: vm.OpLeS},
		{Op: vm.OpNot, Imm: vm.Mask(16)}, {Op: vm.OpNeg, Imm: vm.Mask(16)},
		{Op: vm.OpSext, W: 8, Imm: vm.Mask(16)},
		{Op: vm.OpRedOr}, {Op: vm.OpRedAnd, Imm: vm.Mask(16)}, {Op: vm.OpRedXor},
		{Op: vm.OpAndImm, Imm: 0xF0}, {Op: vm.OpOrImm, Imm: 0x0F},
		{Op: vm.OpShlImm, B: 3, Imm: vm.Mask(16)}, {Op: vm.OpShrImm, B: 2},
		{Op: vm.OpEqImm, Imm: 0x8123},
	}
	operands := [][2]uint64{{0x8123, 0x0042}, {0, 0}, {0xFFFF, 1}, {7, 0}}
	for _, tmpl := range cases {
		for _, opnds := range operands {
			c := &compiler{
				consts: map[uint64]uint32{},
				obj:    &vm.Object{},
			}
			e := &emitter{c: c}
			e.pushScope()
			aSlot := c.constSlot(opnds[0])
			var bSlot uint32
			switch tmpl.Op {
			case vm.OpShlImm, vm.OpShrImm, vm.OpAndImm, vm.OpOrImm, vm.OpEqImm,
				vm.OpNot, vm.OpNeg, vm.OpSext, vm.OpRedOr, vm.OpRedAnd, vm.OpRedXor:
				bSlot = tmpl.B // literal or unused
			default:
				bSlot = c.constSlot(opnds[1])
			}
			in := tmpl
			in.A, in.B = aSlot, bSlot
			folded, ok := e.foldConst(in)
			if !ok {
				t.Fatalf("%v not folded", tmpl.Op)
			}

			// Execute the same instruction in the VM.
			obj := &vm.Object{
				Key: "t", ModName: "t", NumSlots: c.nslots + 1,
				Consts: c.obj.Consts,
				Comb:   []vm.Instr{func() vm.Instr { x := in; x.Dst = c.nslots; return x }()},
			}
			inst := vm.NewInstance(obj)
			inst.RunComb(nil)
			if got := inst.Slots[c.nslots]; got != folded {
				t.Errorf("%v(%#x,%#x): folded %#x, VM %#x", tmpl.Op, opnds[0], opnds[1], folded, got)
			}
		}
	}
}

// tidyByHand runs a hand-built object as written and tidied, for both values
// of its 1-bit input c (slot 0) and a (slot 1) = 0x0f, and requires equal
// outputs w (slot 2). It returns the tidied code.
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
	tidy(obj)
	if err := obj.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, cv := range []uint64{0, 1} {
		ri, oi := vm.NewInstance(ref), vm.NewInstance(obj)
		for _, in := range []*vm.Instance{ri, oi} {
			in.Slots[c], in.Slots[a] = cv, 0x0f
			in.RunComb(nil)
		}
		if ri.Slots[w] != oi.Slots[w] {
			t.Errorf("c=%d: w = %#x as lowered, %#x tidied\n%s", cv, ri.Slots[w], oi.Slots[w], disasm(obj.Comb))
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
