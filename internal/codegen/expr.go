package codegen

import (
	"fmt"

	"livesim/internal/hdl/ast"
	"livesim/internal/hdl/elab"
	"livesim/internal/vm"
)

// shape is the width and sign of an expression's value.
type shape struct {
	width  int
	signed bool
}

// at is a value of shape r held in slot.
func (r shape) at(slot uint32) value { return value{slot, r} }

// value is a lowered expression result.
type value struct {
	slot uint32
	shape
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
	if v, ok := vm.Fold(in, e.c.constValue); ok {
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
		return e.shape(n).at(e.c.constSlot(n.Value)), nil

	case *ast.Ident:
		if cv, ok := e.c.m.Consts[n.Name]; ok {
			return e.shape(n).at(e.c.constSlot(cv)), nil
		}
		s := e.c.sig(n.Name)
		if s == nil {
			return value{}, fmt.Errorf("unknown signal %q", n.Name)
		}
		if s.Kind == elab.Memory {
			return value{}, fmt.Errorf("memory %q used without an index", n.Name)
		}
		return e.shape(n).at(e.c.slots[n.Name]), nil

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
		return e.concat(n)

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
			return e.shape(n, v.shape).at(v.slot), nil
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
		return shape{w, true}.at(e.op(vm.Instr{Op: vm.OpSext, A: v.slot, W: uint8(v.width), Imm: vm.Mask(w)}))
	}
	// Zero extension is free: slots are stored masked.
	return shape{width: w}.at(v.slot)
}

func (e *emitter) unary(n *ast.Unary) (value, error) {
	v, err := e.expr(n.X)
	if err != nil {
		return value{}, err
	}
	r, mask := e.shape(n, v.shape), vm.Mask(v.width)
	switch n.Op {
	case ast.Plus:
		return r.at(v.slot), nil
	case ast.Neg:
		return r.at(e.op(vm.Instr{Op: vm.OpNeg, A: v.slot, Imm: mask})), nil
	case ast.BitNot:
		return r.at(e.op(vm.Instr{Op: vm.OpNot, A: v.slot, Imm: mask})), nil
	case ast.LogNot, ast.RedNor:
		return r.at(e.op(vm.Instr{Op: vm.OpEqImm, A: v.slot, Imm: 0})), nil
	case ast.RedAnd:
		return r.at(e.op(vm.Instr{Op: vm.OpRedAnd, A: v.slot, Imm: mask})), nil
	case ast.RedOr:
		return r.at(e.op(vm.Instr{Op: vm.OpRedOr, A: v.slot})), nil
	case ast.RedXor:
		return r.at(e.op(vm.Instr{Op: vm.OpRedXor, A: v.slot})), nil
	case ast.RedNand:
		s := e.op(vm.Instr{Op: vm.OpRedAnd, A: v.slot, Imm: mask})
		return r.at(e.op(vm.Instr{Op: vm.OpEqImm, A: s, Imm: 0})), nil
	case ast.RedXnor:
		s := e.op(vm.Instr{Op: vm.OpRedXor, A: v.slot})
		return r.at(e.op(vm.Instr{Op: vm.OpEqImm, A: s, Imm: 0})), nil
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
	r := e.shape(n, x.shape, y.shape)

	switch n.Op {
	case ast.LogAnd, ast.LogOr:
		op := vm.OpAnd
		if n.Op == ast.LogOr {
			op = vm.OpOr
		}
		return r.at(e.op(vm.Instr{Op: op, A: e.truth(x), B: e.truth(y)})), nil

	case ast.Shl:
		return r.at(e.op(vm.Instr{Op: vm.OpShl, A: x.slot, B: y.slot, Imm: vm.Mask(x.width)})), nil
	case ast.Sshr:
		if x.signed {
			return r.at(e.op(vm.Instr{Op: vm.OpSshr, A: x.slot, B: y.slot, W: uint8(x.width), Imm: vm.Mask(x.width)})), nil
		}
		fallthrough
	case ast.Shr:
		return r.at(e.op(vm.Instr{Op: vm.OpShr, A: x.slot, B: y.slot})), nil
	}

	// Width-matching operators: both operands are extended to the joined
	// shape, so they are sign-extended only when both are signed.
	j := join(x.shape, y.shape)
	x.signed, y.signed = j.signed, j.signed
	x, y = e.extend(x, j.width), e.extend(y, j.width)
	mask := vm.Mask(j.width)
	bin := func(op vm.OpCode) value {
		return r.at(e.op(vm.Instr{Op: op, A: x.slot, B: y.slot, Imm: mask}))
	}
	cmp := func(opU, opS vm.OpCode, swap bool) value {
		a, b := x.slot, y.slot
		if swap {
			a, b = b, a
		}
		op := opU
		if j.signed {
			// Sign-extend both to 64 bits so int64 comparison is valid.
			a = e.op(vm.Instr{Op: vm.OpSext, A: a, W: uint8(j.width), Imm: vm.Mask(64)})
			b = e.op(vm.Instr{Op: vm.OpSext, A: b, W: uint8(j.width), Imm: vm.Mask(64)})
			op = opS
		}
		return r.at(e.op(vm.Instr{Op: op, A: a, B: b}))
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
		// Both sides are stored masked to the joined width by now, so an
		// all-ones side of that width leaves the other one as it is.
		if v, ok := e.c.constValue(y.slot); ok && v == mask {
			return r.at(x.slot), nil
		}
		if v, ok := e.c.constValue(x.slot); ok && v == mask {
			return r.at(y.slot), nil
		}
		return bin(vm.OpAnd), nil
	case ast.Or:
		return bin(vm.OpOr), nil
	case ast.Xor:
		return bin(vm.OpXor), nil
	case ast.Xnor:
		return r.at(e.op(vm.Instr{Op: vm.OpNot, A: bin(vm.OpXor).slot, Imm: mask})), nil
	case ast.Eq:
		return r.at(e.op(vm.Instr{Op: vm.OpEq, A: x.slot, B: y.slot})), nil
	case ast.Ne:
		return r.at(e.op(vm.Instr{Op: vm.OpNe, A: x.slot, B: y.slot})), nil
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
		r := e.shape(n, a.shape, b.shape)
		a, b = e.extend(a, r.width), e.extend(b, r.width)
		return r.at(e.op(vm.Instr{Op: vm.OpMux, A: cbool, B: a.slot, C: b.slot})), nil
	}

	return e.ternaryInto(e.c.alloc(), e.exprShape(n), n)
}

// ternaryInto lowers the grouped style's cond ? a : b, of shape r, with
// each arm writing dst itself. The arms are coerced to r's width as they
// are emitted, so r comes from a dry scan, exprShape.
func (e *emitter) ternaryInto(dst uint32, r shape, n *ast.Ternary) (value, error) {
	cond, err := e.expr(n.Cond)
	if err != nil {
		return value{}, err
	}
	cbool := e.truth(cond)
	jz := e.jump(vm.OpJz, cbool)
	e.pushScope()
	if err := e.exprInto(dst, r.width, n.Then); err != nil {
		return value{}, err
	}
	e.popScope()
	jend := e.jump(vm.OpJmp, 0)
	e.patch(jz)
	e.pushScope()
	if err := e.exprInto(dst, r.width, n.Else); err != nil {
		return value{}, err
	}
	e.popScope()
	e.patch(jend)
	return r.at(dst), nil
}

// exprInto lowers x into dst, a signal of width w: it writes what
// assignTo(dst, w, expr(x)) would. A grouped-style ternary whose value
// assignTo would only move is lowered with its arms writing dst, so neither
// the ternary's temporary nor the move after its join is emitted; the arms
// recurse, so a nested ternary writes dst too.
func (e *emitter) exprInto(dst uint32, w int, x ast.Expr) error {
	if t, ok := x.(*ast.Ternary); ok && e.c.style == StyleGrouped {
		if r := e.exprShape(t); coerce(r.at(dst), w).Op == vm.OpMove {
			_, err := e.ternaryInto(dst, r, t)
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

// coerce is the instruction that writes v to a slot of width w, by the
// Verilog extension rule (sign-extend iff v is signed): an OpSext, an
// OpAndImm, or an OpMove when v only moves.
func coerce(v value, w int) vm.Instr {
	switch {
	case v.width < w && v.signed:
		return vm.Instr{Op: vm.OpSext, A: v.slot, W: uint8(v.width), Imm: vm.Mask(w)}
	case v.width > w:
		return vm.Instr{Op: vm.OpAndImm, A: v.slot, Imm: vm.Mask(w)}
	}
	return vm.Instr{Op: vm.OpMove, A: v.slot}
}

// assignTo writes v into the destination slot, coerced to its width; a
// move of dst to itself is not emitted.
func (e *emitter) assignTo(dst uint32, dstWidth int, v value) {
	if in := coerce(v, dstWidth); in.Op != vm.OpMove || v.slot != dst {
		e.opInto(dst, in)
	}
}

// memory names the memory that n reads an element of, or is "" when n
// selects a bit of a vector.
func (e *emitter) memory(n *ast.Index) string {
	if id, ok := n.X.(*ast.Ident); ok {
		if s := e.c.sig(id.Name); s != nil && s.Kind == elab.Memory {
			return id.Name
		}
	}
	return ""
}

func (e *emitter) index(n *ast.Index) (value, error) {
	r := e.shape(n)
	if mem := e.memory(n); mem != "" {
		addr, err := e.expr(n.Index)
		if err != nil {
			return value{}, err
		}
		return r.at(e.op(vm.Instr{Op: vm.OpMemRd, A: addr.slot, B: e.c.memIdx[mem]})), nil
	}
	// Bit select on a vector.
	v, err := e.expr(n.X)
	if err != nil {
		return value{}, err
	}
	if iv, ok := elab.TryConst(n.Index, e.c.m.Consts); ok {
		if iv >= uint64(v.width) {
			return r.at(e.c.constSlot(0)), nil
		}
		return r.at(e.bits(v, int(iv), int(iv)).slot), nil
	}
	idx, err := e.expr(n.Index)
	if err != nil {
		return value{}, err
	}
	s := e.op(vm.Instr{Op: vm.OpShr, A: v.slot, B: idx.slot})
	return r.at(e.op(vm.Instr{Op: vm.OpAndImm, A: s, Imm: 1})), nil
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
	return e.shape(n).at(e.bits(v, int(msb), int(lsb)).slot), nil
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
	return shape{width: w}.at(s)
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
	r := e.shape(n, v.shape)
	if r.width > 64 {
		return value{}, fmt.Errorf("concatenation wider than 64 bits (%d)", r.width)
	}
	switch {
	case cnt == 1:
		return r.at(v.slot), nil
	case v.width == 1:
		return r.at(e.op(vm.Instr{Op: vm.OpNeg, A: v.slot, Imm: vm.Mask(r.width)})), nil
	}
	var ones uint64
	for i := 0; i < r.width; i += v.width {
		ones |= 1 << uint(i)
	}
	return r.at(e.op(vm.Instr{Op: vm.OpMul, A: v.slot, B: e.c.constSlot(ones), Imm: vm.Mask(r.width)})), nil
}

func (e *emitter) concat(n *ast.Concat) (value, error) {
	vals := make([]value, len(n.Parts))
	var buf [4]shape
	parts := buf[:0]
	for i, p := range n.Parts {
		v, err := e.expr(p)
		if err != nil {
			return value{}, err
		}
		vals[i], parts = v, append(parts, v.shape)
	}
	r := e.shape(n, parts...)
	if r.width > 64 {
		return value{}, fmt.Errorf("concatenation wider than 64 bits (%d)", r.width)
	}
	// Parts are MSB-first.
	var acc value
	for i, v := range vals {
		if i == 0 {
			acc = value{slot: v.slot, shape: shape{width: v.width}}
			continue
		}
		accW := acc.width + v.width
		sh := e.op(vm.Instr{Op: vm.OpShlImm, A: acc.slot, B: uint32(v.width), Imm: vm.Mask(accW)})
		s := e.op(vm.Instr{Op: vm.OpOr, A: sh, B: v.slot})
		acc = value{slot: s, shape: shape{width: accW}}
	}
	return r.at(acc.slot), nil
}

// shape is the width-and-sign rule, stated once: the shape of x's value,
// given the shapes of x's operands in source order — a unary's operand, a
// binary's two, a ternary's arms, a replication's value, a concatenation's
// parts, a system function's argument. expr gives every value it lowers
// the shape this returns, and exprShape scans an expression with it, so
// the grouped ternary sizes its arms as the lowering does. An x that expr
// rejects gets some shape here; lowering it reports the error.
func (e *emitter) shape(x ast.Expr, ops ...shape) shape {
	switch n := x.(type) {
	case *ast.Number:
		if n.Width == 0 {
			// Unsized literals are treated as 64-bit (documented deviation
			// from Verilog's 32-bit rule; see DESIGN.md).
			return shape{64, n.Signed}
		}
		return shape{n.Width, n.Signed}
	case *ast.Ident:
		if _, ok := e.c.m.Consts[n.Name]; ok {
			return shape{width: 64}
		}
		if s := e.c.sig(n.Name); s != nil {
			return shape{s.Width, s.Signed}
		}
	case *ast.Index:
		if mem := e.memory(n); mem != "" {
			s := e.c.sig(mem)
			return shape{s.Width, s.Signed}
		}
		return shape{width: 1}
	case *ast.PartSelect:
		msb, err := elab.EvalConst(n.MSB, e.c.m.Consts)
		lsb, err2 := elab.EvalConst(n.LSB, e.c.m.Consts)
		if err == nil && err2 == nil {
			return shape{width: int(msb) - int(lsb) + 1}
		}
	case *ast.Unary:
		switch n.Op {
		case ast.Plus, ast.Neg, ast.BitNot:
			return ops[0]
		}
		return shape{width: 1}
	case *ast.Binary:
		switch n.Op {
		case ast.Shl, ast.Sshr:
			return ops[0]
		case ast.Shr:
			// Unsigned, whatever the left operand's sign (DESIGN.md §5).
			return shape{width: ops[0].width}
		case ast.LogAnd, ast.LogOr, ast.Eq, ast.Ne, ast.Lt, ast.Le, ast.Gt, ast.Ge:
			return shape{width: 1}
		}
		return join(ops[0], ops[1])
	case *ast.Ternary:
		return join(ops[0], ops[1])
	case *ast.Repl:
		if cnt, err := elab.EvalConst(n.Count, e.c.m.Consts); err == nil {
			return shape{width: int(cnt) * ops[0].width}
		}
	case *ast.Concat:
		var r shape
		for _, p := range ops {
			r.width += p.width
		}
		return r
	case *ast.SysFunc:
		if len(ops) == 1 {
			return shape{ops[0].width, n.Name == "$signed"}
		}
	}
	return shape{}
}

// join is the shape of a width-matching operation on a and b: the wider
// width, signed only when both are.
func join(a, b shape) shape {
	return shape{max(a.width, b.width), a.signed && b.signed}
}

// exprShape is the shape expr gives x, found by the same rule without
// emitting code.
func (e *emitter) exprShape(x ast.Expr) shape {
	var buf [4]shape
	ops := buf[:0]
	scan := func(xs ...ast.Expr) {
		for _, o := range xs {
			ops = append(ops, e.exprShape(o))
		}
	}
	switch n := x.(type) {
	case *ast.Unary:
		scan(n.X)
	case *ast.Binary:
		scan(n.X, n.Y)
	case *ast.Ternary:
		scan(n.Then, n.Else)
	case *ast.Repl:
		scan(n.Value)
	case *ast.Concat:
		scan(n.Parts...)
	case *ast.SysFunc:
		scan(n.Args...)
	}
	return e.shape(x, ops...)
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
