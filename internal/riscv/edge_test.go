package riscv

import "testing"

func TestISSIllegalInstruction(t *testing.T) {
	mem := make(SliceMemory, 64)
	mem.Store(0, 4, 0x0000007F)
	c := NewCPU(mem)
	if err := c.Step(); err == nil {
		t.Fatal("want illegal-instruction error")
	}
	// Bad sub-encodings.
	for _, w := range []uint32{
		encB(0, 1, 2, 2, 0x63),
		encI(0, 1, 7, 2, 0x03),
		encR(0x7F, 1, 2, 0, 3, 0x33),
		encR(0x7F, 1, 2, 0, 3, 0x3B),
		encI(0, 1, 2, 3, 0x1B),
	} {
		mem.Store(0, 4, uint64(w))
		c := NewCPU(mem)
		if err := c.Step(); err == nil {
			t.Errorf("%#08x: want decode error", w)
		}
	}
	// Bad store funct3 (111).
	mem.Store(0, 4, uint64(encS(0, 1, 2, 7, 0x23)))
	c2 := NewCPU(mem)
	if err := c2.Step(); err == nil {
		t.Error("bad store funct3 accepted")
	}
}

func TestISSMemoryFaults(t *testing.T) {
	mem := make(SliceMemory, 64)
	// ld from far out of range.
	p, _ := Assemble("li a0, 0x7000\nld a1, 0(a0)")
	copy(mem, p.Bytes())
	c := NewCPU(mem)
	if err := c.Run(10); err == nil {
		t.Fatal("want load fault")
	}
	// Fetch out of range.
	c2 := NewCPU(make(SliceMemory, 4))
	c2.PC = 100
	if err := c2.Step(); err == nil {
		t.Fatal("want fetch fault")
	}
	// Step after halt is a no-op.
	c3 := NewCPU(mem)
	c3.Halted = true
	if err := c3.Step(); err != nil || c3.PC != 0 {
		t.Errorf("halted step: %v pc=%d", err, c3.PC)
	}
}

func TestISSInstret(t *testing.T) {
	mem := make(SliceMemory, 64)
	p, _ := Assemble("nop\nnop\nnop\necall")
	copy(mem, p.Bytes())
	c := NewCPU(mem)
	if err := c.Run(100); err != nil {
		t.Fatal(err)
	}
	if c.Instret != 4 {
		t.Errorf("instret %d", c.Instret)
	}
}

func TestAssembleLabelInDirectives(t *testing.T) {
	p, err := Assemble("start:\n  j start\ntable:\n  .word start, table")
	if err != nil {
		t.Fatal(err)
	}
	if p.Words[1] != 0 || p.Words[2] != 4 {
		t.Errorf("label values in .word: %#x %#x", p.Words[1], p.Words[2])
	}
	if p.Labels["start"] != 0 || p.Labels["table"] != 4 {
		t.Errorf("labels %v", p.Labels)
	}
}

func TestAssembleMultipleLabelsOneLine(t *testing.T) {
	p, err := Assemble("a: b: nop")
	if err != nil {
		t.Fatal(err)
	}
	if p.Labels["a"] != 0 || p.Labels["b"] != 0 {
		t.Errorf("labels %v", p.Labels)
	}
}

func TestPseudoCoverage(t *testing.T) {
	c := runProg(t, `
  li a0, 5
  neg a1, a0        # -5
  not a2, a0        # ~5
  seqz a3, a0       # 0
  li a4, 0
  seqz a5, a4       # 1
  snez a6, a0       # 1
  jr_setup:
  la t0, target
  jr t0
  li a7, 99         # skipped
target:
  ecall
`, 100)
	if int64(c.Regs[11]) != -5 || c.Regs[12] != ^uint64(5) {
		t.Errorf("neg/not %x %x", c.Regs[11], c.Regs[12])
	}
	if c.Regs[13] != 0 || c.Regs[15] != 1 || c.Regs[16] != 1 {
		t.Errorf("seqz/snez %d %d %d", c.Regs[13], c.Regs[15], c.Regs[16])
	}
	if c.Regs[17] == 99 {
		t.Error("jr did not jump")
	}
}
