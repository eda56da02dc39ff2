// Package vm defines the compiled form of a LiveHDL module — the Object —
// and executes it.
//
// In the paper, LiveCompiler turns each module into a shared object library
// (.so) that is dlopen'ed and hot-patched into the running simulation. Go
// cannot re-load native code, so this reproduction's "object code" is a
// compact bytecode: one Object per unique (module, parameter binding), with
// per-instance state kept in separate slot arrays. That preserves the two
// properties the paper's results rest on:
//
//   - code is compiled once per module and shared by every instance (no
//     code bloat for many-core designs, Section III-B / Figure 4), and
//   - an Object is a self-contained swap unit that can be hot-reloaded
//     under a running simulation (Section III-D).
//
// Every value is a bit vector of width ≤ 64 stored masked in a uint64 slot.
package vm

import "fmt"

// OpCode enumerates bytecode operations.
type OpCode uint8

// Operation codes. In the comments below, s[] is the instance slot array,
// d is the destination slot, a/b/c are source slots, imm is the 64-bit
// immediate (usually the destination mask), and W is an operand bit width
// (the shift amount in OpShlOr).
const (
	OpNop     OpCode = iota
	OpConst          // s[d] = imm
	OpMove           // s[d] = s[a]
	OpAdd            // s[d] = (s[a] + s[b]) & imm
	OpSub            // s[d] = (s[a] - s[b]) & imm
	OpMul            // s[d] = (s[a] * s[b]) & imm
	OpDiv            // s[d] = s[b]==0 ? imm : (s[a] / s[b]) (Verilog x -> all ones)
	OpMod            // s[d] = s[b]==0 ? imm : (s[a] % s[b])
	OpAnd            // s[d] = s[a] & s[b]
	OpOr             // s[d] = s[a] | s[b]
	OpXor            // s[d] = s[a] ^ s[b]
	OpNot            // s[d] = ^s[a] & imm
	OpNeg            // s[d] = (-s[a]) & imm
	OpShl            // s[d] = (s[a] << s[b]) & imm   (s[b] >= 64 -> 0)
	OpShr            // s[d] = s[a] >> s[b]           (s[b] >= 64 -> 0)
	OpSshr           // s[d] = (sext_W(s[a]) >> s[b]) & imm, arithmetic
	OpEq             // s[d] = s[a] == s[b]
	OpNe             // s[d] = s[a] != s[b]
	OpLtU            // s[d] = s[a] < s[b] (unsigned)
	OpLeU            // s[d] = s[a] <= s[b]
	OpLtS            // s[d] = int64(s[a]) < int64(s[b]) (operands pre sign-extended)
	OpLeS            // s[d] = int64(s[a]) <= int64(s[b])
	OpSext           // s[d] = signextend(s[a], W) & imm (imm = mask of result width)
	OpRedOr          // s[d] = s[a] != 0
	OpRedAnd         // s[d] = s[a] == imm (imm = operand mask)
	OpRedXor         // s[d] = parity(s[a])
	OpMux            // s[d] = s[a] != 0 ? s[b] : s[c]
	OpAndImm         // s[d] = s[a] & imm
	OpOrImm          // s[d] = s[a] | imm
	OpShlImm         // s[d] = (s[a] << b) & imm (b is a literal shift amount)
	OpShrImm         // s[d] = s[a] >> b (b is a literal shift amount)
	OpEqImm          // s[d] = s[a] == imm
	OpJmp            // pc = b
	OpJz             // if s[a] == 0 { pc = b }
	OpJnz            // if s[a] != 0 { pc = b }
	OpMemRd          // s[d] = mem[b][s[a]] (out of range -> 0)
	OpMemWr          // mem[b][s[a]] = s[c] & imm, buffered until commit (out of range -> dropped)
	OpDisplay        // run display record imm (args read from slots)
	OpFinish         // request simulation stop

	// Fused pairs, emitted by codegen's tidy where the first op's result
	// has no reader but the second. Appended so the numbers above keep
	// their encoding.
	OpShlOr  // s[d] = ((s[a] << W) & imm) | s[b]   (shli -> or)
	OpAndEqI // s[d] = (s[a] == imm) & s[b]         (eqi -> and)
	OpAndEq  // s[d] = (s[a] == s[b]) & s[c]        (eq -> and)
	OpJne    // if s[a] != s[c] { pc = b }          (eq -> jz)
	opCount
)

var opNames = [...]string{
	OpNop: "nop", OpConst: "const", OpMove: "move",
	OpAdd: "add", OpSub: "sub", OpMul: "mul", OpDiv: "div", OpMod: "mod",
	OpAnd: "and", OpOr: "or", OpXor: "xor", OpNot: "not", OpNeg: "neg",
	OpShl: "shl", OpShr: "shr", OpSshr: "sshr",
	OpEq: "eq", OpNe: "ne", OpLtU: "ltu", OpLeU: "leu", OpLtS: "lts", OpLeS: "les",
	OpSext: "sext", OpRedOr: "redor", OpRedAnd: "redand", OpRedXor: "redxor",
	OpMux: "mux", OpAndImm: "andi", OpOrImm: "ori",
	OpShlImm: "shli", OpShrImm: "shri", OpEqImm: "eqi",
	OpJmp: "jmp", OpJz: "jz", OpJnz: "jnz",
	OpMemRd: "memrd", OpMemWr: "memwr",
	OpDisplay: "display", OpFinish: "finish",
	OpShlOr: "shlor", OpAndEqI: "andeqi", OpAndEq: "andeq", OpJne: "jne",
}

// String returns the mnemonic of the opcode.
func (op OpCode) String() string {
	if int(op) < len(opNames) && opNames[op] != "" {
		return opNames[op]
	}
	return fmt.Sprintf("op(%d)", uint8(op))
}

// IsBranch reports whether the op is a control-flow transfer. The host
// model uses this to feed its branch predictor.
func (op OpCode) IsBranch() bool {
	return op == OpJmp || op == OpJz || op == OpJnz || op == OpJne
}

// Instr is one bytecode instruction.
type Instr struct {
	Op   OpCode
	W    uint8 // operand width for OpSext/OpSshr; the literal shift of OpShlOr
	Dst  uint32
	A, B uint32
	C    uint32
	Imm  uint64
}

// Pure reports whether the op computes s[Dst] from its operands and does
// nothing else, so an instruction whose destination nobody reads can go.
func (op OpCode) Pure() bool {
	switch op {
	case OpNop, OpJmp, OpJz, OpJnz, OpJne, OpMemWr, OpDisplay, OpFinish:
		return false
	}
	return op < opCount
}

// The slot operands an op reads, as a set of these bits.
const (
	readA = 1 << iota
	readB
	readC
)

// operands returns the fields of an instruction of op that name slots it
// reads; OpDisplay reads its record's args, which live in the Object.
func (op OpCode) operands() uint8 {
	switch op {
	case OpNop, OpConst, OpJmp, OpFinish, OpDisplay:
		return 0
	case OpMove, OpNot, OpNeg, OpSext, OpRedOr, OpRedAnd, OpRedXor,
		OpAndImm, OpOrImm, OpShlImm, OpShrImm, OpEqImm, OpJz, OpJnz, OpMemRd:
		return readA
	case OpMux, OpAndEq:
		return readA | readB | readC
	case OpMemWr, OpJne:
		return readA | readC
	default: // two-operand arithmetic, logic, shifts and compares
		return readA | readB
	}
}

// Reads calls f for every slot the instruction reads when it executes in
// an instance of o.
func (in *Instr) Reads(o *Object, f func(slot uint32)) {
	r := in.Op.operands()
	if r&readA != 0 {
		f(in.A)
	}
	if r&readB != 0 {
		f(in.B)
	}
	if r&readC != 0 {
		f(in.C)
	}
	if in.Op == OpDisplay {
		for _, a := range o.Displays[in.Imm].Args {
			f(a)
		}
	}
}

// MapReads replaces every slot operand the instruction reads by f of it.
// An OpDisplay's args live in the Object's Displays and are left to the
// caller.
func (in *Instr) MapReads(f func(slot uint32) uint32) {
	r := in.Op.operands()
	if r&readA != 0 {
		in.A = f(in.A)
	}
	if r&readB != 0 {
		in.B = f(in.B)
	}
	if r&readC != 0 {
		in.C = f(in.C)
	}
}

// String disassembles the instruction.
func (in Instr) String() string {
	switch in.Op {
	case OpConst:
		return fmt.Sprintf("%-7s s%d = %#x", in.Op, in.Dst, in.Imm)
	case OpJmp:
		return fmt.Sprintf("%-7s -> %d", in.Op, in.B)
	case OpJz, OpJnz:
		return fmt.Sprintf("%-7s s%d -> %d", in.Op, in.A, in.B)
	case OpJne:
		return fmt.Sprintf("%-7s s%d != s%d -> %d", in.Op, in.A, in.C, in.B)
	case OpShlOr:
		return fmt.Sprintf("%-7s s%d = (s%d << %d) & %#x | s%d", in.Op, in.Dst, in.A, in.W, in.Imm, in.B)
	case OpAndEqI:
		return fmt.Sprintf("%-7s s%d = (s%d == %#x) & s%d", in.Op, in.Dst, in.A, in.Imm, in.B)
	case OpAndEq:
		return fmt.Sprintf("%-7s s%d = (s%d == s%d) & s%d", in.Op, in.Dst, in.A, in.B, in.C)
	case OpMux:
		return fmt.Sprintf("%-7s s%d = s%d ? s%d : s%d", in.Op, in.Dst, in.A, in.B, in.C)
	case OpMemRd:
		return fmt.Sprintf("%-7s s%d = m%d[s%d]", in.Op, in.Dst, in.B, in.A)
	case OpMemWr:
		return fmt.Sprintf("%-7s m%d[s%d] = s%d", in.Op, in.B, in.A, in.C)
	case OpSext, OpSshr:
		return fmt.Sprintf("%-7s s%d = s%d, s%d (w=%d)", in.Op, in.Dst, in.A, in.B, in.W)
	default:
		return fmt.Sprintf("%-7s s%d = s%d, s%d imm=%#x", in.Op, in.Dst, in.A, in.B, in.Imm)
	}
}

// Mask returns the all-ones mask of a width in [0,64]; width 0 yields 0.
func Mask(width int) uint64 {
	if width >= 64 {
		return ^uint64(0)
	}
	return (uint64(1) << uint(width)) - 1
}

// SignExtend sign-extends the low width bits of v to 64 bits.
func SignExtend(v uint64, width int) uint64 {
	if width <= 0 || width >= 64 {
		return v
	}
	sh := uint(64 - width)
	return uint64(int64(v<<sh) >> sh)
}
