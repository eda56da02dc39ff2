package vm

import (
	"strings"
	"testing"
)

func TestOpCodeStrings(t *testing.T) {
	for op := OpNop; op < opCount; op++ {
		s := op.String()
		if s == "" || strings.HasPrefix(s, "op(") {
			t.Errorf("opcode %d has no mnemonic", op)
		}
	}
	if OpCode(200).String() != "op(200)" {
		t.Errorf("unknown opcode string %q", OpCode(200).String())
	}
}

func TestInstrDisassembly(t *testing.T) {
	cases := []struct {
		in   Instr
		want string
	}{
		{Instr{Op: OpConst, Dst: 3, Imm: 0xFF}, "const"},
		{Instr{Op: OpJmp, B: 7}, "-> 7"},
		{Instr{Op: OpJz, A: 2, B: 9}, "s2 -> 9"},
		{Instr{Op: OpMux, Dst: 1, A: 2, B: 3, C: 4}, "s1 = s2 ? s3 : s4"},
		{Instr{Op: OpMemRd, Dst: 1, A: 2, B: 0}, "m0[s2]"},
		{Instr{Op: OpMemWr, A: 2, B: 1, C: 3}, "m1[s2] = s3"},
		{Instr{Op: OpSext, Dst: 1, A: 2, W: 8}, "w=8"},
		{Instr{Op: OpAdd, Dst: 1, A: 2, B: 3, Imm: 0xF}, "add"},
		{Instr{Op: OpShlOr, Dst: 1, A: 2, B: 3, W: 4, Imm: 0xF0}, "s1 = (s2 << 4) & 0xf0 | s3"},
		{Instr{Op: OpAndEqI, Dst: 1, A: 2, B: 3, Imm: 0x7}, "s1 = (s2 == 0x7) & s3"},
		{Instr{Op: OpAndEq, Dst: 1, A: 2, B: 3, C: 4}, "s1 = (s2 == s3) & s4"},
		{Instr{Op: OpJne, A: 2, B: 9, C: 3}, "s2 != s3 -> 9"},
	}
	for _, c := range cases {
		if got := c.in.String(); !strings.Contains(got, c.want) {
			t.Errorf("%v: %q missing %q", c.in.Op, got, c.want)
		}
	}
}

func TestIsBranch(t *testing.T) {
	for op, want := range map[OpCode]bool{
		OpJmp: true, OpJz: true, OpJnz: true, OpJne: true,
		OpAdd: false, OpMemRd: false, OpFinish: false,
	} {
		if op.IsBranch() != want {
			t.Errorf("%v IsBranch = %v", op, op.IsBranch())
		}
	}
}

func TestSortedDebug(t *testing.T) {
	obj := &Object{
		Debug: []SlotDebug{{Name: "z", Slot: 0}, {Name: "a", Slot: 1}, {Name: "m", Slot: 2}},
	}
	sd := obj.SortedDebug()
	if sd[0].Name != "a" || sd[1].Name != "m" || sd[2].Name != "z" {
		t.Errorf("sorted %v", sd)
	}
	// Original order untouched.
	if obj.Debug[0].Name != "z" {
		t.Error("SortedDebug mutated the object")
	}
}

func TestDisplayFormatEdgeCases(t *testing.T) {
	obj := &Object{
		Key: "d", ModName: "d", NumSlots: 2,
		Displays: []Display{
			{Format: "trailing %", Args: nil},
			{Format: "%q unknown", Args: nil},
			{Format: "missing arg %d and %d", Args: []uint32{0}},
			{Format: "%0d zero-pad form", Args: []uint32{0}},
		},
		Seq: []Instr{
			{Op: OpDisplay, Imm: 0},
			{Op: OpDisplay, Imm: 1},
			{Op: OpDisplay, Imm: 2},
			{Op: OpDisplay, Imm: 3},
		},
	}
	inst := NewInstance(obj)
	var sb strings.Builder
	inst.Output = &sb
	inst.Slots[0] = 5
	inst.RunSeq(nil)
	out := sb.String()
	for _, want := range []string{"trailing %", "%q unknown", "missing arg 5 and 0", "5 zero-pad form"} {
		if !strings.Contains(out, want) {
			t.Errorf("output %q missing %q", out, want)
		}
	}
	// Nil output discards without panicking.
	inst2 := NewInstance(obj)
	inst2.RunSeq(nil)
}
