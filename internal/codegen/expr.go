package codegen

import (
	"fmt"

	"livesim/internal/hdl/ast"
	"livesim/internal/hdl/elab"
	"livesim/internal/vm"
)

// value is a lowered expression result.
type value struct {
	slot   uint32
	width  int
	signed bool
}

// vnKey identifies an emitted computation for value numbering. Two
// instructions with equal keys compute equal values, so the second can
// reuse the first's destination — provided both execute unconditionally,
// which the emitter's scope stack guarantees.
type vnKey struct {
	op   vm.OpCode
	w    uint8
	a, b uint32
	c    uint32
	imm  uint64
}

// emitter builds one code stream (comb or seq) with scoped CSE.
type emitter struct {
	c    *compiler
	code []vm.Instr
	vn   []map[vnKey]uint32
}

func (e *emitter) pushScope() { e.vn = append(e.vn, make(map[vnKey]uint32)) }
func (e *emitter) popScope()  { e.vn = e.vn[:len(e.vn)-1] }

// topScopeCopy returns a single-scope copy of the current unconditional
// value table, used to seed the seq emitter from the comb emitter.
func (e *emitter) topScopeCopy() []map[vnKey]uint32 {
	merged := make(map[vnKey]uint32)
	if len(e.vn) > 0 {
		for k, v := range e.vn[0] {
			merged[k] = v
		}
	}
	return []map[vnKey]uint32{merged}
}

func (e *emitter) lookup(k vnKey) (uint32, bool) {
	for i := len(e.vn) - 1; i >= 0; i-- {
		if s, ok := e.vn[i][k]; ok {
			return s, true
		}
	}
	return 0, false
}

func (e *emitter) remember(k vnKey, slot uint32) {
	if len(e.vn) > 0 {
		e.vn[len(e.vn)-1][k] = slot
	}
}

// op emits a value-numbered instruction and returns its destination slot.
// Instructions whose operands are all compile-time constants fold away
// into the constant pool instead of emitting code.
func (e *emitter) op(in vm.Instr) uint32 {
	if v, ok := e.foldConst(in); ok {
		return e.c.constSlot(v)
	}
	k := vnKey{op: in.Op, w: in.W, a: in.A, b: in.B, c: in.C, imm: in.Imm}
	if s, ok := e.lookup(k); ok {
		return s
	}
	in.Dst = e.c.alloc()
	e.code = append(e.code, in)
	e.remember(k, in.Dst)
	return in.Dst
}

// foldConst evaluates pure instructions over constant operands at compile
// time, mirroring the VM's semantics exactly.
func (e *emitter) foldConst(in vm.Instr) (uint64, bool) {
	va, aok := e.c.constValue(in.A)
	if !aok {
		return 0, false
	}
	b2u := func(b bool) uint64 {
		if b {
			return 1
		}
		return 0
	}
	// Single-operand forms (B is unused or a literal field).
	switch in.Op {
	case vm.OpMove:
		return va, true
	case vm.OpNot:
		return ^va & in.Imm, true
	case vm.OpNeg:
		return (-va) & in.Imm, true
	case vm.OpSext:
		return vm.SignExtend(va, int(in.W)) & in.Imm, true
	case vm.OpRedOr:
		return b2u(va != 0), true
	case vm.OpRedAnd:
		return b2u(va == in.Imm), true
	case vm.OpRedXor:
		return uint64(popcount(va) & 1), true
	case vm.OpAndImm:
		return va & in.Imm, true
	case vm.OpOrImm:
		return va | in.Imm, true
	case vm.OpShlImm:
		return (va << in.B) & in.Imm, true
	case vm.OpShrImm:
		return va >> in.B, true
	case vm.OpEqImm:
		return b2u(va == in.Imm), true
	}
	vb, bok := e.c.constValue(in.B)
	if !bok {
		return 0, false
	}
	switch in.Op {
	case vm.OpAdd:
		return (va + vb) & in.Imm, true
	case vm.OpSub:
		return (va - vb) & in.Imm, true
	case vm.OpMul:
		return (va * vb) & in.Imm, true
	case vm.OpDiv:
		if vb == 0 {
			return in.Imm, true
		}
		return va / vb, true
	case vm.OpMod:
		if vb == 0 {
			return in.Imm, true
		}
		return va % vb, true
	case vm.OpAnd:
		return va & vb, true
	case vm.OpOr:
		return va | vb, true
	case vm.OpXor:
		return va ^ vb, true
	case vm.OpShl:
		if vb >= 64 {
			return 0, true
		}
		return (va << vb) & in.Imm, true
	case vm.OpShr:
		if vb >= 64 {
			return 0, true
		}
		return va >> vb, true
	case vm.OpSshr:
		sh := vb
		if sh > 63 {
			sh = 63
		}
		return uint64(int64(vm.SignExtend(va, int(in.W)))>>sh) & in.Imm, true
	case vm.OpEq:
		return b2u(va == vb), true
	case vm.OpNe:
		return b2u(va != vb), true
	case vm.OpLtU:
		return b2u(va < vb), true
	case vm.OpLeU:
		return b2u(va <= vb), true
	case vm.OpLtS:
		return b2u(int64(va) < int64(vb)), true
	case vm.OpLeS:
		return b2u(int64(va) <= int64(vb)), true
	case vm.OpMux:
		vc, cok := e.c.constValue(in.C)
		if !cok {
			return 0, false
		}
		if va != 0 {
			return vb, true
		}
		return vc, true
	}
	return 0, false
}

func popcount(v uint64) int {
	n := 0
	for v != 0 {
		v &= v - 1
		n++
	}
	return n
}

// opInto emits an instruction with a fixed destination (no CSE reuse of the
// destination, but the computation is still recorded).
func (e *emitter) opInto(dst uint32, in vm.Instr) {
	in.Dst = dst
	e.code = append(e.code, in)
}

// opNoCSE emits an instruction into a fresh temporary without recording it
// for value numbering. Required whenever an operand slot is mutable within
// the same program (e.g. a register's next slot during read-modify-write),
// where CSE's "same inputs, same value" premise does not hold.
func (e *emitter) opNoCSE(in vm.Instr) uint32 {
	in.Dst = e.c.alloc()
	e.code = append(e.code, in)
	return in.Dst
}

// label reserves a jump placeholder and returns its index for patching.
func (e *emitter) jump(op vm.OpCode, cond uint32) int {
	e.code = append(e.code, vm.Instr{Op: op, A: cond})
	return len(e.code) - 1
}

func (e *emitter) patch(at int) { e.code[at].B = uint32(len(e.code)) }

// expr lowers x and returns its value.
func (e *emitter) expr(x ast.Expr) (value, error) {
	switch n := x.(type) {
	case *ast.Number:
		w := n.Width
		if w == 0 {
			// Unsized literals are treated as 64-bit (documented deviation
			// from Verilog's 32-bit rule; see DESIGN.md).
			w = 64
		}
		return value{slot: e.c.constSlot(n.Value), width: w, signed: n.Signed}, nil

	case *ast.Ident:
		if cv, ok := e.c.m.Consts[n.Name]; ok {
			return value{slot: e.c.constSlot(cv), width: 64, signed: false}, nil
		}
		s := e.c.sig(n.Name)
		if s == nil {
			return value{}, fmt.Errorf("unknown signal %q", n.Name)
		}
		if s.Kind == elab.Memory {
			return value{}, fmt.Errorf("memory %q used without an index", n.Name)
		}
		return value{slot: e.c.slots[n.Name], width: s.Width, signed: s.Signed}, nil

	case *ast.Unary:
		return e.unary(n)

	case *ast.Binary:
		return e.binary(n)

	case *ast.Ternary:
		return e.ternary(n)

	case *ast.Index:
		return e.index(n)

	case *ast.PartSelect:
		return e.partSelect(n)

	case *ast.Concat:
		return e.concat(n.Parts)

	case *ast.Repl:
		return e.repl(n)

	case *ast.SysFunc:
		switch n.Name {
		case "$signed", "$unsigned":
			if len(n.Args) != 1 {
				return value{}, fmt.Errorf("%s takes one argument", n.Name)
			}
			v, err := e.expr(n.Args[0])
			if err != nil {
				return value{}, err
			}
			v.signed = n.Name == "$signed"
			return v, nil
		default:
			return value{}, fmt.Errorf("system function %s not supported in expressions", n.Name)
		}

	default:
		return value{}, fmt.Errorf("unsupported expression %T", x)
	}
}

// extend widens v to width w, sign-extending when v is signed.
func (e *emitter) extend(v value, w int) value {
	if v.width >= w {
		return v
	}
	if v.signed {
		s := e.op(vm.Instr{Op: vm.OpSext, A: v.slot, W: uint8(v.width), Imm: vm.Mask(w)})
		return value{slot: s, width: w, signed: true}
	}
	// Zero extension is free: slots are stored masked.
	return value{slot: v.slot, width: w, signed: false}
}

func (e *emitter) unary(n *ast.Unary) (value, error) {
	v, err := e.expr(n.X)
	if err != nil {
		return value{}, err
	}
	mask := vm.Mask(v.width)
	switch n.Op {
	case ast.Plus:
		return v, nil
	case ast.Neg:
		s := e.op(vm.Instr{Op: vm.OpNeg, A: v.slot, Imm: mask})
		return value{slot: s, width: v.width, signed: v.signed}, nil
	case ast.BitNot:
		s := e.op(vm.Instr{Op: vm.OpNot, A: v.slot, Imm: mask})
		return value{slot: s, width: v.width, signed: v.signed}, nil
	case ast.LogNot:
		s := e.op(vm.Instr{Op: vm.OpEqImm, A: v.slot, Imm: 0})
		return value{slot: s, width: 1}, nil
	case ast.RedAnd:
		s := e.op(vm.Instr{Op: vm.OpRedAnd, A: v.slot, Imm: mask})
		return value{slot: s, width: 1}, nil
	case ast.RedOr:
		s := e.op(vm.Instr{Op: vm.OpRedOr, A: v.slot})
		return value{slot: s, width: 1}, nil
	case ast.RedXor:
		s := e.op(vm.Instr{Op: vm.OpRedXor, A: v.slot})
		return value{slot: s, width: 1}, nil
	case ast.RedNand:
		s := e.op(vm.Instr{Op: vm.OpRedAnd, A: v.slot, Imm: mask})
		s = e.op(vm.Instr{Op: vm.OpEqImm, A: s, Imm: 0})
		return value{slot: s, width: 1}, nil
	case ast.RedNor:
		s := e.op(vm.Instr{Op: vm.OpEqImm, A: v.slot, Imm: 0})
		return value{slot: s, width: 1}, nil
	case ast.RedXnor:
		s := e.op(vm.Instr{Op: vm.OpRedXor, A: v.slot})
		s = e.op(vm.Instr{Op: vm.OpEqImm, A: s, Imm: 0})
		return value{slot: s, width: 1}, nil
	}
	return value{}, fmt.Errorf("unsupported unary operator %d", n.Op)
}

func (e *emitter) binary(n *ast.Binary) (value, error) {
	x, err := e.expr(n.X)
	if err != nil {
		return value{}, err
	}
	y, err := e.expr(n.Y)
	if err != nil {
		return value{}, err
	}

	switch n.Op {
	case ast.LogAnd, ast.LogOr:
		op := vm.OpAnd
		if n.Op == ast.LogOr {
			op = vm.OpOr
		}
		s := e.op(vm.Instr{Op: op, A: e.truth(x), B: e.truth(y)})
		return value{slot: s, width: 1}, nil

	case ast.Shl:
		s := e.op(vm.Instr{Op: vm.OpShl, A: x.slot, B: y.slot, Imm: vm.Mask(x.width)})
		return value{slot: s, width: x.width, signed: x.signed}, nil
	case ast.Shr:
		s := e.op(vm.Instr{Op: vm.OpShr, A: x.slot, B: y.slot})
		return value{slot: s, width: x.width}, nil
	case ast.Sshr:
		if x.signed {
			s := e.op(vm.Instr{Op: vm.OpSshr, A: x.slot, B: y.slot, W: uint8(x.width), Imm: vm.Mask(x.width)})
			return value{slot: s, width: x.width, signed: true}, nil
		}
		s := e.op(vm.Instr{Op: vm.OpShr, A: x.slot, B: y.slot})
		return value{slot: s, width: x.width}, nil
	}

	// Width-matching operators.
	w := x.width
	if y.width > w {
		w = y.width
	}
	bothSigned := x.signed && y.signed
	if bothSigned {
		x = e.extend(x, w)
		y = e.extend(y, w)
	} else {
		x.signed, y.signed = false, false
		x = e.extend(x, w)
		y = e.extend(y, w)
	}
	mask := vm.Mask(w)
	bin := func(op vm.OpCode) value {
		s := e.op(vm.Instr{Op: op, A: x.slot, B: y.slot, Imm: mask})
		return value{slot: s, width: w, signed: bothSigned}
	}
	cmp := func(opU, opS vm.OpCode, swap bool) value {
		a, b := x.slot, y.slot
		if swap {
			a, b = b, a
		}
		op := opU
		if bothSigned {
			// Sign-extend both to 64 bits so int64 comparison is valid.
			a = e.op(vm.Instr{Op: vm.OpSext, A: a, W: uint8(w), Imm: vm.Mask(64)})
			b = e.op(vm.Instr{Op: vm.OpSext, A: b, W: uint8(w), Imm: vm.Mask(64)})
			op = opS
		}
		s := e.op(vm.Instr{Op: op, A: a, B: b})
		return value{slot: s, width: 1}
	}

	switch n.Op {
	case ast.Add:
		return bin(vm.OpAdd), nil
	case ast.Sub:
		return bin(vm.OpSub), nil
	case ast.Mul:
		return bin(vm.OpMul), nil
	case ast.Div:
		return bin(vm.OpDiv), nil
	case ast.Mod:
		return bin(vm.OpMod), nil
	case ast.And:
		// Both sides are stored masked to w bits by now, so an all-ones
		// side of that width leaves the other one as it is.
		if v, ok := e.c.constValue(y.slot); ok && v == mask {
			return value{slot: x.slot, width: w, signed: bothSigned}, nil
		}
		if v, ok := e.c.constValue(x.slot); ok && v == mask {
			return value{slot: y.slot, width: w, signed: bothSigned}, nil
		}
		return bin(vm.OpAnd), nil
	case ast.Or:
		return bin(vm.OpOr), nil
	case ast.Xor:
		return bin(vm.OpXor), nil
	case ast.Xnor:
		v := bin(vm.OpXor)
		s := e.op(vm.Instr{Op: vm.OpNot, A: v.slot, Imm: mask})
		return value{slot: s, width: w, signed: bothSigned}, nil
	case ast.Eq:
		s := e.op(vm.Instr{Op: vm.OpEq, A: x.slot, B: y.slot})
		return value{slot: s, width: 1}, nil
	case ast.Ne:
		s := e.op(vm.Instr{Op: vm.OpNe, A: x.slot, B: y.slot})
		return value{slot: s, width: 1}, nil
	case ast.Lt:
		return cmp(vm.OpLtU, vm.OpLtS, false), nil
	case ast.Le:
		return cmp(vm.OpLeU, vm.OpLeS, false), nil
	case ast.Gt:
		return cmp(vm.OpLtU, vm.OpLtS, true), nil
	case ast.Ge:
		return cmp(vm.OpLeU, vm.OpLeS, true), nil
	}
	return value{}, fmt.Errorf("unsupported binary operator %d", n.Op)
}

// ternary lowers cond ? a : b. StyleMux evaluates both arms and muxes;
// StyleGrouped emits an if/else branch region — the paper's "group muxes
// with the same condition into if-else blocks" optimization, which shows
// up as more branches but fewer data references (Table VII).
func (e *emitter) ternary(n *ast.Ternary) (value, error) {
	if e.c.style == StyleMux {
		cond, err := e.expr(n.Cond)
		if err != nil {
			return value{}, err
		}
		cbool := e.truth(cond)
		a, err := e.expr(n.Then)
		if err != nil {
			return value{}, err
		}
		b, err := e.expr(n.Else)
		if err != nil {
			return value{}, err
		}
		w := a.width
		if b.width > w {
			w = b.width
		}
		bothSigned := a.signed && b.signed
		a = e.extend(a, w)
		b = e.extend(b, w)
		s := e.op(vm.Instr{Op: vm.OpMux, A: cbool, B: a.slot, C: b.slot})
		return value{slot: s, width: w, signed: bothSigned}, nil
	}

	return e.ternaryInto(e.c.alloc(), n)
}

// ternaryInto lowers the grouped style's cond ? a : b with each arm
// writing dst itself. The result width must be known before emission, so
// the arm widths come from a dry scan.
func (e *emitter) ternaryInto(dst uint32, n *ast.Ternary) (value, error) {
	cond, err := e.expr(n.Cond)
	if err != nil {
		return value{}, err
	}
	cbool := e.truth(cond)
	w, signed, err := e.exprShape(n)
	if err != nil {
		return value{}, err
	}
	jz := e.jump(vm.OpJz, cbool)
	e.pushScope()
	if err := e.exprInto(dst, w, n.Then); err != nil {
		return value{}, err
	}
	e.popScope()
	jend := e.jump(vm.OpJmp, 0)
	e.patch(jz)
	e.pushScope()
	if err := e.exprInto(dst, w, n.Else); err != nil {
		return value{}, err
	}
	e.popScope()
	e.patch(jend)
	return value{slot: dst, width: w, signed: signed}, nil
}

// exprInto lowers x into dst, a signal of width w: it writes what
// assignTo(dst, w, expr(x)) would. A grouped-style ternary whose value
// assignTo would only move is lowered with its arms writing dst, so neither
// the ternary's temporary nor the move after its join is emitted; the arms
// recurse, so a nested ternary writes dst too.
func (e *emitter) exprInto(dst uint32, w int, x ast.Expr) error {
	if t, ok := x.(*ast.Ternary); ok && e.c.style == StyleGrouped {
		tw, signed, err := e.exprShape(t)
		if err != nil {
			return err
		}
		if tw == w || tw < w && !signed {
			_, err := e.ternaryInto(dst, t)
			return err
		}
	}
	v, err := e.expr(x)
	if err != nil {
		return err
	}
	e.assignTo(dst, w, v)
	return nil
}

// assignTo coerces v into the destination slot with the target's width and
// the Verilog extension rule (sign-extend iff the RHS is signed).
func (e *emitter) assignTo(dst uint32, dstWidth int, v value) {
	if v.width < dstWidth && v.signed {
		e.opInto(dst, vm.Instr{Op: vm.OpSext, A: v.slot, W: uint8(v.width), Imm: vm.Mask(dstWidth)})
		return
	}
	if v.width > dstWidth {
		e.opInto(dst, vm.Instr{Op: vm.OpAndImm, A: v.slot, Imm: vm.Mask(dstWidth)})
		return
	}
	if v.slot == dst {
		return
	}
	e.opInto(dst, vm.Instr{Op: vm.OpMove, A: v.slot})
}

func (e *emitter) index(n *ast.Index) (value, error) {
	// Memory element read?
	if id, ok := n.X.(*ast.Ident); ok {
		if s := e.c.sig(id.Name); s != nil && s.Kind == elab.Memory {
			addr, err := e.expr(n.Index)
			if err != nil {
				return value{}, err
			}
			slot := e.op(vm.Instr{Op: vm.OpMemRd, A: addr.slot, B: e.c.memIdx[id.Name]})
			return value{slot: slot, width: s.Width, signed: s.Signed}, nil
		}
	}
	// Bit select on a vector.
	v, err := e.expr(n.X)
	if err != nil {
		return value{}, err
	}
	if iv, ok := elab.TryConst(n.Index, e.c.m.Consts); ok {
		if iv >= uint64(v.width) {
			return value{slot: e.c.constSlot(0), width: 1}, nil
		}
		return e.bits(v, int(iv), int(iv)), nil
	}
	idx, err := e.expr(n.Index)
	if err != nil {
		return value{}, err
	}
	s := e.op(vm.Instr{Op: vm.OpShr, A: v.slot, B: idx.slot})
	s = e.op(vm.Instr{Op: vm.OpAndImm, A: s, Imm: 1})
	return value{slot: s, width: 1}, nil
}

func (e *emitter) partSelect(n *ast.PartSelect) (value, error) {
	v, err := e.expr(n.X)
	if err != nil {
		return value{}, err
	}
	msb, err := elab.EvalConst(n.MSB, e.c.m.Consts)
	if err != nil {
		return value{}, fmt.Errorf("part select bounds must be constant: %w", err)
	}
	lsb, err := elab.EvalConst(n.LSB, e.c.m.Consts)
	if err != nil {
		return value{}, fmt.Errorf("part select bounds must be constant: %w", err)
	}
	if msb < lsb || msb >= 64 {
		return value{}, fmt.Errorf("bad part select [%d:%d]", msb, lsb)
	}
	return e.bits(v, int(msb), int(lsb)), nil
}

// bits lowers v[msb:lsb], msb < 64, to at most one op. Slots are stored
// masked, so a select that reaches v's top bit is a shift and one that
// starts at bit 0 is a mask. One strictly inside v is the VM's masked right
// shift, OpSshr, told that the sign sits at bit 63: nothing is extended,
// and what the arithmetic shift fills in lies above the mask.
func (e *emitter) bits(v value, msb, lsb int) value {
	w := msb - lsb + 1
	s := v.slot
	switch top := msb+1 >= v.width; {
	case lsb == 0 && top:
	case lsb == 0:
		s = e.op(vm.Instr{Op: vm.OpAndImm, A: s, Imm: vm.Mask(w)})
	case top:
		s = e.op(vm.Instr{Op: vm.OpShrImm, A: s, B: uint32(lsb)})
	default:
		s = e.op(vm.Instr{Op: vm.OpSshr, A: s, B: e.c.constSlot(uint64(lsb)), W: 64, Imm: vm.Mask(w)})
	}
	return value{slot: s, width: w}
}

// repl lowers {count{x}}: x is evaluated once and spread by one op. A 1-bit
// x negates into count ones; a wider x, stored masked to its w bits, is
// multiplied by the word with a one every w bits, whose partial products
// cannot overlap.
func (e *emitter) repl(n *ast.Repl) (value, error) {
	cnt, err := elab.EvalConst(n.Count, e.c.m.Consts)
	if err != nil {
		return value{}, fmt.Errorf("replication count: %w", err)
	}
	if cnt == 0 || cnt > 64 {
		return value{}, fmt.Errorf("replication count %d out of range", cnt)
	}
	v, err := e.expr(n.Value)
	if err != nil {
		return value{}, err
	}
	total := int(cnt) * v.width
	if total > 64 {
		return value{}, fmt.Errorf("concatenation wider than 64 bits (%d)", total)
	}
	switch {
	case cnt == 1:
		return value{slot: v.slot, width: total}, nil
	case v.width == 1:
		s := e.op(vm.Instr{Op: vm.OpNeg, A: v.slot, Imm: vm.Mask(total)})
		return value{slot: s, width: total}, nil
	}
	var ones uint64
	for i := 0; i < total; i += v.width {
		ones |= 1 << uint(i)
	}
	s := e.op(vm.Instr{Op: vm.OpMul, A: v.slot, B: e.c.constSlot(ones), Imm: vm.Mask(total)})
	return value{slot: s, width: total}, nil
}

func (e *emitter) concat(parts []ast.Expr) (value, error) {
	total := 0
	vals := make([]value, len(parts))
	for i, p := range parts {
		v, err := e.expr(p)
		if err != nil {
			return value{}, err
		}
		vals[i] = v
		total += v.width
	}
	if total > 64 {
		return value{}, fmt.Errorf("concatenation wider than 64 bits (%d)", total)
	}
	// Parts are MSB-first.
	var acc value
	for i, v := range vals {
		if i == 0 {
			acc = value{slot: v.slot, width: v.width}
			continue
		}
		accW := acc.width + v.width
		sh := e.op(vm.Instr{Op: vm.OpShlImm, A: acc.slot, B: uint32(v.width), Imm: vm.Mask(accW)})
		s := e.op(vm.Instr{Op: vm.OpOr, A: sh, B: v.slot})
		acc = value{slot: s, width: accW}
	}
	return acc, nil
}

// exprShape computes the width and signedness of x without emitting code.
func (e *emitter) exprShape(x ast.Expr) (int, bool, error) {
	switch n := x.(type) {
	case *ast.Number:
		w := n.Width
		if w == 0 {
			w = 64
		}
		return w, n.Signed, nil
	case *ast.Ident:
		if _, ok := e.c.m.Consts[n.Name]; ok {
			return 64, false, nil
		}
		s := e.c.sig(n.Name)
		if s == nil {
			return 0, false, fmt.Errorf("unknown signal %q", n.Name)
		}
		return s.Width, s.Signed, nil
	case *ast.Unary:
		switch n.Op {
		case ast.LogNot, ast.RedAnd, ast.RedOr, ast.RedXor, ast.RedNand, ast.RedNor, ast.RedXnor:
			return 1, false, nil
		default:
			return e.exprShape(n.X)
		}
	case *ast.Binary:
		switch n.Op {
		case ast.LogAnd, ast.LogOr, ast.Eq, ast.Ne, ast.Lt, ast.Le, ast.Gt, ast.Ge:
			return 1, false, nil
		case ast.Shl, ast.Shr, ast.Sshr:
			return e.exprShape(n.X)
		default:
			wx, sx, err := e.exprShape(n.X)
			if err != nil {
				return 0, false, err
			}
			wy, sy, err := e.exprShape(n.Y)
			if err != nil {
				return 0, false, err
			}
			w := wx
			if wy > w {
				w = wy
			}
			return w, sx && sy, nil
		}
	case *ast.Ternary:
		wa, sa, err := e.exprShape(n.Then)
		if err != nil {
			return 0, false, err
		}
		wb, sb, err := e.exprShape(n.Else)
		if err != nil {
			return 0, false, err
		}
		w := wa
		if wb > w {
			w = wb
		}
		return w, sa && sb, nil
	case *ast.Index:
		if id, ok := n.X.(*ast.Ident); ok {
			if s := e.c.sig(id.Name); s != nil && s.Kind == elab.Memory {
				return s.Width, s.Signed, nil
			}
		}
		return 1, false, nil
	case *ast.PartSelect:
		msb, err := elab.EvalConst(n.MSB, e.c.m.Consts)
		if err != nil {
			return 0, false, err
		}
		lsb, err := elab.EvalConst(n.LSB, e.c.m.Consts)
		if err != nil {
			return 0, false, err
		}
		if msb < lsb {
			return 0, false, fmt.Errorf("bad part select [%d:%d]", msb, lsb)
		}
		return int(msb-lsb) + 1, false, nil
	case *ast.Concat:
		total := 0
		for _, p := range n.Parts {
			w, _, err := e.exprShape(p)
			if err != nil {
				return 0, false, err
			}
			total += w
		}
		return total, false, nil
	case *ast.Repl:
		cnt, err := elab.EvalConst(n.Count, e.c.m.Consts)
		if err != nil {
			return 0, false, err
		}
		w, _, err := e.exprShape(n.Value)
		if err != nil {
			return 0, false, err
		}
		return int(cnt) * w, false, nil
	case *ast.SysFunc:
		if len(n.Args) != 1 {
			return 0, false, fmt.Errorf("%s takes one argument", n.Name)
		}
		w, _, err := e.exprShape(n.Args[0])
		return w, n.Name == "$signed", err
	}
	return 0, false, fmt.Errorf("unsupported expression %T", x)
}

// truth returns a 0/1 slot that is set iff v is non-zero. A 1-bit value,
// stored masked, already is one.
func (e *emitter) truth(v value) uint32 {
	if v.width == 1 {
		return v.slot
	}
	return e.op(vm.Instr{Op: vm.OpRedOr, A: v.slot})
}

// boolSlot lowers x and reduces it to a 0/1 slot.
func (e *emitter) boolSlot(x ast.Expr) (uint32, error) {
	v, err := e.expr(x)
	if err != nil {
		return 0, err
	}
	return e.truth(v), nil
}
