package vm

import (
	"fmt"
	"io"
	"math/bits"
	"strings"
)

// Stats accumulates execution counters. The host model and Table VII use
// these to derive IPC and MPKI figures.
type Stats struct {
	Ops      uint64 // instructions executed
	Branches uint64 // control-flow instructions executed
	Taken    uint64 // branches taken
	MemOps   uint64 // memory (array) reads+writes
}

// Add accumulates other into s.
func (s *Stats) Add(other Stats) {
	s.Ops += other.Ops
	s.Branches += other.Branches
	s.Taken += other.Taken
	s.MemOps += other.MemOps
}

// Profiler receives the dynamic instruction and data streams of a profiled
// execution. The host cache model implements this to estimate I$/D$/branch
// behaviour (Table VII of the paper).
//
// The seam is threaded through every execution path — RunComb/RunSeq via
// their *Profiled variants, and the kernel's Tick with its settles via
// sim.TickProfiled — so a profiled run sees exactly the address stream an
// unprofiled run would execute. Callbacks fire synchronously on the
// executing goroutine, once per instruction in program order, with Data
// calls for an instruction following its Instr call; implementations must
// be fast and must not re-enter the instance.
// Code addresses are Object.BaseAddr-relative modeled addresses (one
// instruction = InstrBytes); data addresses come from Instance.DataBase
// and Instance.MemBases. A nil Profiler selects the unprofiled fast
// path; this interface costs the hot loop nothing when unused.
//
// Note this is the instruction-level profiler. Instance-level activity
// and eval-time profiling (heat maps, quiescence) is internal/prof,
// attached with sim.SetProfiler — the two compose.
type Profiler interface {
	// Instr is called once per executed instruction with its code address.
	Instr(codeAddr uint64, isBranch, taken bool)
	// Data is called for each slot or memory access with its data address.
	Data(addr uint64, write bool)
}

// memWrite is one buffered sequential memory write.
type memWrite struct {
	mem  uint32
	addr uint64
	val  uint64
}

// Instance is the per-instantiation state of an Object: private value
// slots and memories. Many Instances share one Object — the paper's
// code-reuse property.
type Instance struct {
	Obj   *Object
	Slots []uint64
	Mems  [][]uint64

	// DataBase is the modeled base address of the slot array; memory m
	// is modeled at MemBases[m]. Used only by profiled runs.
	DataBase uint64
	MemBases []uint64

	// Output receives $display text; nil discards it.
	Output io.Writer
	// FinishReq is set when the program executed $finish.
	FinishReq bool

	memLog []memWrite
}

// NewInstance allocates zeroed state for obj and applies its constant pool.
func NewInstance(obj *Object) *Instance {
	inst := &Instance{
		Obj:   obj,
		Slots: make([]uint64, obj.NumSlots),
		Mems:  make([][]uint64, len(obj.Mems)),
	}
	for i, m := range obj.Mems {
		inst.Mems[i] = make([]uint64, m.Depth)
	}
	inst.Reset()
	return inst
}

// Reset re-applies the constant pool and drops a pending $finish and any
// buffered memory writes; register and memory contents are left untouched
// (hardware state survives a hot reload; constants belong to the code,
// requests to the execution that made them).
func (in *Instance) Reset() {
	for _, c := range in.Obj.Consts {
		in.Slots[c.Slot] = c.Value
	}
	in.memLog = in.memLog[:0]
	in.FinishReq = false
}

// ZeroState clears all registers, wires and memories (power-on state).
func (in *Instance) ZeroState() {
	for i := range in.Slots {
		in.Slots[i] = 0
	}
	for _, m := range in.Mems {
		for i := range m {
			m[i] = 0
		}
	}
	in.Reset()
}

// RunComb executes the object's combinational program.
func (in *Instance) RunComb(st *Stats) { in.exec(in.Obj.Comb, st) }

// RunSeq executes the sequential program: register next values default to
// their current values, the program overwrites some of them and buffers
// memory writes.
func (in *Instance) RunSeq(st *Stats) {
	in.seqDefaults()
	in.exec(in.Obj.Seq, st)
}

// seqDefaults starts a sequential eval: every register's next value is
// its current one until the Seq program says otherwise.
func (in *Instance) seqDefaults() {
	s := in.Slots
	for _, r := range in.Obj.Regs {
		s[r.Next] = s[r.Cur]
	}
}

// Commit moves register next values into place and applies buffered memory
// writes, completing one clock edge. It reports whether any architectural
// state actually changed — the simulation kernel uses this for
// event-driven settling (unchanged instances need no re-evaluation).
func (in *Instance) Commit() bool {
	changed := false
	s := in.Slots
	for _, r := range in.Obj.Regs {
		if s[r.Cur] != s[r.Next] {
			s[r.Cur] = s[r.Next]
			changed = true
		}
	}
	for _, w := range in.memLog {
		mem := in.Mems[w.mem]
		if w.addr < uint64(len(mem)) && mem[w.addr] != w.val {
			mem[w.addr] = w.val
			changed = true
		}
	}
	in.memLog = in.memLog[:0]
	return changed
}

// RunCombProfiled is RunComb with a profiler attached; a nil profiler
// runs RunComb.
func (in *Instance) RunCombProfiled(st *Stats, p Profiler) {
	if p == nil {
		in.RunComb(st)
		return
	}
	in.execProfiled(in.Obj.Comb, nil, st, p, in.Obj.BaseAddr)
}

// RunSeqProfiled is RunSeq with a profiler attached; a nil profiler runs
// RunSeq.
func (in *Instance) RunSeqProfiled(st *Stats, p Profiler) {
	if p == nil {
		in.RunSeq(st)
		return
	}
	in.seqDefaults()
	in.execProfiled(in.Obj.Seq, nil, st, p, in.Obj.BaseAddr+uint64(len(in.Obj.Comb)*InstrBytes))
}

// exec interprets code against the instance state. It is the one
// definition of what each op does; execProfiled runs every op that is
// not a branch through it too.
func (in *Instance) exec(code []Instr, st *Stats) {
	s := in.Slots
	var ops, branches, taken, memops uint64
	for pc := 0; pc < len(code); {
		ins := &code[pc]
		ops++
		switch ins.Op {
		case OpNop:
		case OpConst:
			s[ins.Dst] = ins.Imm
		case OpMove:
			s[ins.Dst] = s[ins.A]
		case OpAdd:
			s[ins.Dst] = (s[ins.A] + s[ins.B]) & ins.Imm
		case OpSub:
			s[ins.Dst] = (s[ins.A] - s[ins.B]) & ins.Imm
		case OpMul:
			s[ins.Dst] = (s[ins.A] * s[ins.B]) & ins.Imm
		case OpDiv:
			if s[ins.B] == 0 {
				s[ins.Dst] = ins.Imm
			} else {
				s[ins.Dst] = s[ins.A] / s[ins.B]
			}
		case OpMod:
			if s[ins.B] == 0 {
				s[ins.Dst] = ins.Imm
			} else {
				s[ins.Dst] = s[ins.A] % s[ins.B]
			}
		case OpAnd:
			s[ins.Dst] = s[ins.A] & s[ins.B]
		case OpOr:
			s[ins.Dst] = s[ins.A] | s[ins.B]
		case OpXor:
			s[ins.Dst] = s[ins.A] ^ s[ins.B]
		case OpNot:
			s[ins.Dst] = ^s[ins.A] & ins.Imm
		case OpNeg:
			s[ins.Dst] = (-s[ins.A]) & ins.Imm
		case OpShl:
			if sh := s[ins.B]; sh >= 64 {
				s[ins.Dst] = 0
			} else {
				s[ins.Dst] = (s[ins.A] << sh) & ins.Imm
			}
		case OpShr:
			if sh := s[ins.B]; sh >= 64 {
				s[ins.Dst] = 0
			} else {
				s[ins.Dst] = s[ins.A] >> sh
			}
		case OpSshr:
			v := SignExtend(s[ins.A], int(ins.W))
			sh := s[ins.B]
			if sh > 63 {
				sh = 63
			}
			s[ins.Dst] = uint64(int64(v)>>sh) & ins.Imm
		case OpEq:
			s[ins.Dst] = b2u(s[ins.A] == s[ins.B])
		case OpNe:
			s[ins.Dst] = b2u(s[ins.A] != s[ins.B])
		case OpLtU:
			s[ins.Dst] = b2u(s[ins.A] < s[ins.B])
		case OpLeU:
			s[ins.Dst] = b2u(s[ins.A] <= s[ins.B])
		case OpLtS:
			s[ins.Dst] = b2u(int64(s[ins.A]) < int64(s[ins.B]))
		case OpLeS:
			s[ins.Dst] = b2u(int64(s[ins.A]) <= int64(s[ins.B]))
		case OpSext:
			s[ins.Dst] = SignExtend(s[ins.A], int(ins.W)) & ins.Imm
		case OpRedOr:
			s[ins.Dst] = b2u(s[ins.A] != 0)
		case OpRedAnd:
			s[ins.Dst] = b2u(s[ins.A] == ins.Imm)
		case OpRedXor:
			s[ins.Dst] = uint64(bits.OnesCount64(s[ins.A]) & 1)
		case OpMux:
			if s[ins.A] != 0 {
				s[ins.Dst] = s[ins.B]
			} else {
				s[ins.Dst] = s[ins.C]
			}
		case OpAndImm:
			s[ins.Dst] = s[ins.A] & ins.Imm
		case OpOrImm:
			s[ins.Dst] = s[ins.A] | ins.Imm
		case OpShlImm:
			s[ins.Dst] = (s[ins.A] << ins.B) & ins.Imm
		case OpShrImm:
			s[ins.Dst] = s[ins.A] >> ins.B
		case OpEqImm:
			s[ins.Dst] = b2u(s[ins.A] == ins.Imm)
		case OpShlOr:
			s[ins.Dst] = (s[ins.A]<<ins.W)&ins.Imm | s[ins.B]
		case OpAndEqI:
			s[ins.Dst] = b2u(s[ins.A] == ins.Imm) & s[ins.B]
		case OpAndEq:
			s[ins.Dst] = b2u(s[ins.A] == s[ins.B]) & s[ins.C]
		case OpJmp:
			branches++
			taken++
			pc = int(ins.B)
			continue
		case OpJz:
			branches++
			if s[ins.A] == 0 {
				taken++
				pc = int(ins.B)
				continue
			}
		case OpJnz:
			branches++
			if s[ins.A] != 0 {
				taken++
				pc = int(ins.B)
				continue
			}
		case OpJne:
			branches++
			if s[ins.A] != s[ins.C] {
				taken++
				pc = int(ins.B)
				continue
			}
		case OpMemRd:
			memops++
			mem := in.Mems[ins.B]
			if a := s[ins.A]; a < uint64(len(mem)) {
				s[ins.Dst] = mem[a]
			} else {
				s[ins.Dst] = 0
			}
		case OpMemWr:
			memops++
			in.memLog = append(in.memLog, memWrite{mem: ins.B, addr: s[ins.A], val: s[ins.C] & ins.Imm})
		case OpDisplay:
			in.display(&in.Obj.Displays[ins.Imm])
		case OpFinish:
			in.FinishReq = true
		}
		pc++
	}
	if st != nil {
		st.Ops += ops
		st.Branches += branches
		st.Taken += taken
		st.MemOps += memops
	}
}

// Fold computes the value in writes to its destination, given val, which
// reports the value of a slot if it is known. It runs in through exec over
// scratch slots, so code folded at compile time computes what it would at
// run time. It reports false when in is not Pure, reads a memory, or reads
// a slot val does not know.
func Fold(in Instr, val func(slot uint32) (uint64, bool)) (uint64, bool) {
	if !in.Op.Pure() || in.Op == OpMemRd {
		return 0, false
	}
	var ops [3]uint64
	n, known := uint32(0), true
	in.MapReads(func(slot uint32) uint32 {
		v, ok := val(slot)
		known = known && ok
		ops[n] = v
		n++
		return n // scratch slot 0 is the result
	})
	if !known {
		return 0, false
	}
	// Allocated only here: exec's $display case lets an Instance's slots
	// escape, and most instructions do not fold.
	scratch := Instance{Slots: make([]uint64, 1+len(ops))}
	copy(scratch.Slots[1:], ops[:])
	in.Dst = 0
	scratch.exec([]Instr{in}, nil)
	return scratch.Slots[0], true
}

// execProfiled is exec with every instruction and its data accesses
// reported to prof first. code[pc] is modeled at base+at[pc]*InstrBytes,
// or at base+pc*InstrBytes when at is nil. It decides branches itself and
// hands every other op to exec as a one-instruction program, so the two
// loops cannot disagree on what an op computes.
func (in *Instance) execProfiled(code []Instr, at []uint32, st *Stats, prof Profiler, base uint64) {
	if st == nil {
		st = new(Stats)
	}
	s := in.Slots
	for pc := 0; pc < len(code); {
		ins := &code[pc]
		tk := false
		switch ins.Op {
		case OpJmp:
			tk = true
		case OpJz:
			tk = s[ins.A] == 0
		case OpJnz:
			tk = s[ins.A] != 0
		case OpJne:
			tk = s[ins.A] != s[ins.C]
		}
		addr := uint64(pc)
		if at != nil {
			addr = uint64(at[pc])
		}
		prof.Instr(base+addr*InstrBytes, ins.Op.IsBranch(), tk)
		in.profData(prof, ins)
		if !ins.Op.IsBranch() {
			in.exec(code[pc:pc+1], st)
			pc++
			continue
		}
		st.Ops++
		st.Branches++
		if tk {
			st.Taken++
			pc = int(ins.B)
		} else {
			pc++
		}
	}
}

// profData reports the data accesses of ins, about to execute: the slots
// Instr.Reads names, the memory word a memrd or memwr touches (none when
// the address is out of range: the read yields 0 and Commit drops the
// write), then the write of Dst if the op computes one.
func (in *Instance) profData(prof Profiler, ins *Instr) {
	ins.Reads(in.Obj, func(slot uint32) { prof.Data(in.DataBase+uint64(slot)*8, false) })
	if ins.Op == OpMemRd || ins.Op == OpMemWr {
		if a := in.Slots[ins.A]; int(ins.B) < len(in.MemBases) && a < uint64(len(in.Mems[ins.B])) {
			prof.Data(in.MemBases[ins.B]+a*8, ins.Op == OpMemWr)
		}
	}
	if ins.Op.Pure() {
		prof.Data(in.DataBase+uint64(ins.Dst)*8, true)
	}
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// display renders a $display record Verilog-style (%d, %x/%h, %b, %c, %0d).
func (in *Instance) display(d *Display) {
	if in.Output == nil {
		return
	}
	var sb strings.Builder
	arg := 0
	nextArg := func() uint64 {
		if arg < len(d.Args) {
			v := in.Slots[d.Args[arg]]
			arg++
			return v
		}
		return 0
	}
	f := d.Format
	for i := 0; i < len(f); i++ {
		c := f[i]
		if c != '%' || i+1 >= len(f) {
			sb.WriteByte(c)
			continue
		}
		i++
		if f[i] == '0' && i+1 < len(f) {
			i++ // %0d style
		}
		switch f[i] {
		case 'd':
			fmt.Fprintf(&sb, "%d", nextArg())
		case 'x', 'h':
			fmt.Fprintf(&sb, "%x", nextArg())
		case 'b':
			fmt.Fprintf(&sb, "%b", nextArg())
		case 'c':
			sb.WriteByte(byte(nextArg()))
		case '%':
			sb.WriteByte('%')
		default:
			sb.WriteByte('%')
			sb.WriteByte(f[i])
		}
	}
	sb.WriteByte('\n')
	io.WriteString(in.Output, sb.String())
}
