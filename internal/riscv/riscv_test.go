package riscv

import (
	"testing"
	"testing/quick"
)

func asm(t *testing.T, src string) *Program {
	t.Helper()
	p, err := Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func runProg(t *testing.T, src string, maxSteps int) *CPU {
	t.Helper()
	p := asm(t, src)
	mem := make(SliceMemory, 32*1024)
	copy(mem, p.Bytes())
	c := NewCPU(mem)
	if err := c.Run(maxSteps); err != nil {
		t.Fatal(err)
	}
	if !c.Halted {
		t.Fatalf("program did not halt in %d steps (pc=%#x)", maxSteps, c.PC)
	}
	return c
}

func TestArithmetic(t *testing.T) {
	c := runProg(t, `
  li a0, 40
  li a1, 2
  add a2, a0, a1     # 42
  sub a3, a0, a1     # 38
  slli a4, a1, 4     # 32
  xor a5, a0, a1     # 42
  ecall
`, 100)
	if c.Regs[12] != 42 || c.Regs[13] != 38 || c.Regs[14] != 32 || c.Regs[15] != 42 {
		t.Errorf("regs %v", c.Regs[10:16])
	}
}

func TestLiWide(t *testing.T) {
	c := runProg(t, `
  li a0, 0x12345678
  li a1, -1
  li a2, 0x7FFFFFFF
  li a3, -2048
  ecall
`, 100)
	if c.Regs[10] != 0x12345678 {
		t.Errorf("a0 %#x", c.Regs[10])
	}
	if c.Regs[11] != ^uint64(0) {
		t.Errorf("a1 %#x", c.Regs[11])
	}
	if c.Regs[12] != 0x7FFFFFFF {
		t.Errorf("a2 %#x", c.Regs[12])
	}
	if int64(c.Regs[13]) != -2048 {
		t.Errorf("a3 %#x", c.Regs[13])
	}
}

func TestFibonacciLoop(t *testing.T) {
	c := runProg(t, `
  li a0, 0        # fib(0)
  li a1, 1        # fib(1)
  li t0, 20       # count
loop:
  beqz t0, done
  add t1, a0, a1
  mv a0, a1
  mv a1, t1
  addi t0, t0, -1
  j loop
done:
  ecall
`, 1000)
	if c.Regs[10] != 6765 { // fib(20)
		t.Errorf("fib(20) = %d", c.Regs[10])
	}
}

func TestLoadsStores(t *testing.T) {
	c := runProg(t, `
  li a0, 0x1000
  li a1, -1
  sd a1, 0(a0)
  li a2, 0x55
  sb a2, 3(a0)
  ld a3, 0(a0)        # ff ff ff 55 ff ff ff ff (LE byte 3)
  lw a4, 0(a0)        # 0x55ffffff sign-extended
  lbu a5, 3(a0)       # 0x55
  lb a6, 4(a0)        # -1
  lhu a7, 2(a0)       # 0x55ff
  ecall
`, 100)
	if c.Regs[13] != 0xFFFFFFFF55FFFFFF {
		t.Errorf("ld %#x", c.Regs[13])
	}
	if c.Regs[14] != uint64(int64(int32(0x55FFFFFF))) {
		t.Errorf("lw %#x", c.Regs[14])
	}
	if c.Regs[15] != 0x55 {
		t.Errorf("lbu %#x", c.Regs[15])
	}
	if int64(c.Regs[16]) != -1 {
		t.Errorf("lb %#x", c.Regs[16])
	}
	if c.Regs[17] != 0x55FF {
		t.Errorf("lhu %#x", c.Regs[17])
	}
}

func TestBranchesAndCompares(t *testing.T) {
	c := runProg(t, `
  li a0, -5
  li a1, 3
  slt a2, a0, a1      # 1 (signed)
  sltu a3, a0, a1     # 0 (unsigned: big)
  blt a0, a1, taken
  li a4, 111
taken:
  bgeu a0, a1, taken2
  li a5, 222
taken2:
  li a6, 1
  ecall
`, 100)
	if c.Regs[12] != 1 || c.Regs[13] != 0 {
		t.Errorf("slt/sltu %d %d", c.Regs[12], c.Regs[13])
	}
	if c.Regs[14] != 0 { // skipped by branch
		t.Errorf("a4 %d", c.Regs[14])
	}
	if c.Regs[15] != 0 { // skipped by bgeu (unsigned -5 >= 3)
		t.Errorf("a5 %d", c.Regs[15])
	}
	if c.Regs[16] != 1 {
		t.Errorf("a6 %d", c.Regs[16])
	}
}

func TestCallRet(t *testing.T) {
	c := runProg(t, `
  li a0, 5
  call double
  call double
  ecall
double:
  add a0, a0, a0
  ret
`, 100)
	if c.Regs[10] != 20 {
		t.Errorf("a0 %d", c.Regs[10])
	}
}

func TestWordOps(t *testing.T) {
	c := runProg(t, `
  li a0, 0x7FFFFFFF
  addiw a1, a0, 1      # overflow to -2^31
  li a2, 1
  sllw a3, a2, a0      # shift by 31 (mod 32)
  li a4, -8
  sraiw a5, a4, 1      # -4
  ecall
`, 100)
	if int64(c.Regs[11]) != -2147483648 {
		t.Errorf("addiw %#x", c.Regs[11])
	}
	if c.Regs[13] != 0xFFFFFFFF80000000 {
		t.Errorf("sllw %#x", c.Regs[13])
	}
	if int64(c.Regs[15]) != -4 {
		t.Errorf("sraiw %#x", c.Regs[15])
	}
}

func TestDataDirectives(t *testing.T) {
	p := asm(t, `
  j start
data:
  .word 0x11223344, 0x55667788
  .dword 0xAABBCCDDEEFF0011
  .zero 8
start:
  la a0, data
  lw a1, 0(a0)
  ld a2, 8(a0)
  ecall
`)
	mem := make(SliceMemory, 32*1024)
	copy(mem, p.Bytes())
	c := NewCPU(mem)
	if err := c.Run(100); err != nil {
		t.Fatal(err)
	}
	if c.Regs[11] != 0x11223344 {
		t.Errorf("a1 %#x", c.Regs[11])
	}
	if c.Regs[12] != 0xAABBCCDDEEFF0011 {
		t.Errorf("a2 %#x", c.Regs[12])
	}
}

func TestX0AlwaysZero(t *testing.T) {
	c := runProg(t, `
  addi x0, x0, 5
  li a0, 7
  add a0, a0, x0
  ecall
`, 10)
	if c.Regs[0] != 0 || c.Regs[10] != 7 {
		t.Errorf("x0 %d a0 %d", c.Regs[0], c.Regs[10])
	}
}

func TestAssembleErrors(t *testing.T) {
	cases := []string{
		"bogus a0, a1",
		"addi a0, a1",       // missing arg
		"addi a0, a1, 5000", // imm out of range
		"lw a0, a1",         // bad mem operand
		"beq a0, a1, nowhere",
		"dup: nop\ndup: nop",
		"li a0, 0x1_0000_0000_0", // > 32 bits
		"slli a0, a1, 64",
		"addi a0, qq, 0",
	}
	for _, src := range cases {
		if _, err := Assemble(src); err == nil {
			t.Errorf("%q: want error", src)
		}
	}
}

// Property: B- and J-immediate encode/extract round-trip.
func TestBranchImmediateProperty(t *testing.T) {
	f := func(raw int16) bool {
		off := (int64(raw) % 4096) &^ 1 // B-type range: ±4 KiB, even
		w := encB(off, 1, 2, 0, opBranch)
		return immB(w) == off
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
	g := func(raw int32) bool {
		off := (int64(raw) % (1 << 20)) &^ 1
		w := encJ(off, 1, opJAL)
		return immJ(w) == off
	}
	if err := quick.Check(g, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// Property: I/S immediates round-trip over their full ranges.
func TestISImmediateProperty(t *testing.T) {
	f := func(raw int16) bool {
		imm := int64(raw) % 2048
		wi := encI(imm, 3, 0, 4, opImm)
		ws := encS(imm, 3, 4, 2, opStore)
		return immI(wi) == imm && immS(ws) == imm
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestWords64Packing(t *testing.T) {
	p := asm(t, ".word 0x11111111, 0x22222222, 0x33333333")
	w := p.Words64()
	if len(w) != 2 || w[0] != 0x2222222211111111 || w[1] != 0x33333333 {
		t.Errorf("words64 %x", w)
	}
}

func TestMemoryBounds(t *testing.T) {
	m := make(SliceMemory, 16)
	if _, err := m.Load(15, 4); err == nil {
		t.Error("load past end")
	}
	if err := m.Store(9, 8, 0); err == nil {
		t.Error("store past end")
	}
	if err := m.Store(8, 8, 0xDEADBEEF); err != nil {
		t.Error(err)
	}
	v, err := m.Load(8, 8)
	if err != nil || v != 0xDEADBEEF {
		t.Errorf("%x %v", v, err)
	}
}
