package vm

import (
	"reflect"
	"testing"
)

// The profiled loop reports each instruction, decides branches itself and
// runs every other op through exec one at a time; these tests hold it to
// exec and hold its data stream to Instr.Reads.

const (
	testSlots    = 8
	testDataBase = 0x10000
	testMemBase  = 0x80000
	testMemDepth = 4
)

// testObject is an object with testSlots slots, one register, one memory
// of testMemDepth words and one $display of slots 1 and 2, running code
// as both its Comb and its Seq program.
func testObject(code []Instr) *Object {
	return &Object{
		Key: "t", ModName: "t", NumSlots: testSlots, BaseAddr: 0x400000,
		Regs:     []Reg{{Name: "r", Cur: 6, Next: 7, Mask: ^uint64(0)}},
		Mems:     []Mem{{Name: "m", Depth: testMemDepth, Mask: ^uint64(0)}},
		Displays: []Display{{Format: "%d %x", Args: []uint32{1, 2}}},
		Comb:     code,
		Seq:      code,
	}
}

func testInstance(o *Object) *Instance {
	in := NewInstance(o)
	in.DataBase, in.MemBases = testDataBase, []uint64{testMemBase}
	return in
}

// rng is a 64-bit LCG; draw returns slot values that are small (so that
// compares, memory addresses and branches go both ways) one time in two.
type rng uint64

func (r *rng) next() uint64 {
	*r = *r*6364136223846793005 + 1442695040888963407
	return uint64(*r >> 11)
}

func (r *rng) draw() uint64 {
	if v := r.next(); v&1 == 0 {
		return (v >> 1) % (testMemDepth + 2)
	}
	return r.next() ^ r.next()<<20
}

// randomInstr is one instruction of op with random operands; a branch
// jumps to skip, which is at most len(code).
func randomInstr(r *rng, op OpCode, skip int) Instr {
	slot := func() uint32 { return uint32(r.next() % testSlots) }
	in := Instr{Op: op, Dst: slot(), A: slot(), B: slot(), C: slot(), W: uint8(1 + r.next()%64), Imm: r.draw()}
	switch op {
	case OpShlImm, OpShrImm:
		in.B = uint32(r.next() % 64)
	case OpJmp, OpJz, OpJnz, OpJne:
		in.B = uint32(skip)
	case OpMemRd, OpMemWr:
		in.B = 0
	case OpDisplay:
		in.Imm = 0
	}
	return in
}

// opProgram runs every opcode once, in random order, each branch jumping
// over the instruction after it.
func opProgram(r *rng) []Instr {
	var code []Instr
	ops := make([]OpCode, opCount)
	for i := range ops {
		ops[i] = OpCode(i)
	}
	for i := len(ops) - 1; i > 0; i-- {
		j := int(r.next() % uint64(i+1))
		ops[i], ops[j] = ops[j], ops[i]
	}
	for _, op := range ops {
		skip := len(code) + 2
		if skip > len(ops) {
			skip = len(ops)
		}
		code = append(code, randomInstr(r, op, skip))
	}
	return code
}

type noProfiler struct{}

func (noProfiler) Instr(uint64, bool, bool) {}
func (noProfiler) Data(uint64, bool)        {}

// TestProfiledMatchesPlain: RunComb/RunSeq and their profiled forms leave
// the same slots, buffered memory writes, $finish request and Stats, on
// programs holding every opcode over seeded random slot values.
func TestProfiledMatchesPlain(t *testing.T) {
	for seed := rng(1); seed <= 400; seed++ {
		r := seed
		obj := testObject(opProgram(&r))
		if err := obj.Validate(); err != nil {
			t.Fatal(err)
		}
		plain, profiled := testInstance(obj), testInstance(obj)
		for i := range plain.Slots {
			plain.Slots[i] = r.draw()
		}
		copy(profiled.Slots, plain.Slots)
		var sp, sq Stats
		plain.RunComb(&sp)
		plain.RunSeq(&sp)
		profiled.RunCombProfiled(&sq, noProfiler{})
		profiled.RunSeqProfiled(&sq, noProfiler{})
		if !reflect.DeepEqual(plain.Slots, profiled.Slots) || !reflect.DeepEqual(plain.memLog, profiled.memLog) ||
			plain.FinishReq != profiled.FinishReq || sp != sq {
			t.Fatalf("seed %d: plain and profiled runs differ\nslots %#x\n      %#x\nmemLog %v / %v, finish %v / %v, stats %+v / %+v\n%v",
				seed, plain.Slots, profiled.Slots, plain.memLog, profiled.memLog,
				plain.FinishReq, profiled.FinishReq, sp, sq, obj.Comb)
		}
	}
}

// recorder keeps the data stream of a profiled run.
type recorder struct{ data []access }

type access struct {
	addr  uint64
	write bool
}

func (p *recorder) Instr(uint64, bool, bool)     {}
func (p *recorder) Data(addr uint64, write bool) { p.data = append(p.data, access{addr, write}) }

// TestProfilerDataIsInstrReads: for every opcode, the profiled data stream
// is the slots Instr.Reads names, then the memory word a memory op
// touches when its address is in range (none when it is not), then the
// write of Dst when the op is pure.
func TestProfilerDataIsInstrReads(t *testing.T) {
	r := rng(7)
	for op := OpNop; op < opCount; op++ {
		for _, addr := range []uint64{testMemDepth - 1, testMemDepth} {
			ins := randomInstr(&r, op, 1)
			obj := testObject([]Instr{ins})
			in := testInstance(obj)
			in.Slots[ins.A] = addr
			var want []access
			ins.Reads(obj, func(s uint32) { want = append(want, access{testDataBase + 8*uint64(s), false}) })
			if (op == OpMemRd || op == OpMemWr) && addr < testMemDepth {
				want = append(want, access{testMemBase + 8*addr, op == OpMemWr})
			}
			if op.Pure() {
				want = append(want, access{testDataBase + 8*uint64(ins.Dst), true})
			}
			p := &recorder{}
			in.RunCombProfiled(nil, p)
			if !reflect.DeepEqual(p.data, want) {
				t.Errorf("%v (address %d): profiler saw %v, want %v", ins, addr, p.data, want)
			}
		}
	}
}
