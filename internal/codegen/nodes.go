package codegen

import (
	"fmt"
	"strconv"
	"strings"

	"livesim/internal/hdl/ast"
	"livesim/internal/hdl/elab"
	"livesim/internal/vm"
)

// prepareChildren resolves instance connections. Input ports connected to
// non-trivial expressions get an implicit glue wire computed by a comb
// node; the kernel copies glue/parent slots into child port slots during
// the settle loop. Output ports bind the connected parent signal directly.
func (c *compiler) prepareChildren() error {
	for _, inst := range c.m.Instances {
		child := vm.Child{InstName: inst.Name, ObjectKey: inst.ChildKey}
		for _, conn := range inst.Conns {
			portIdx := -1
			for i, p := range inst.Child.Ports {
				if p.Name == conn.Port.Name {
					portIdx = i
					break
				}
			}
			if portIdx < 0 {
				return fmt.Errorf("instance %s: port %s lost during elaboration", inst.Name, conn.Port.Name)
			}
			var parentSlot uint32
			if conn.Port.PortDir == ast.Output {
				id := conn.Expr.(*ast.Ident)
				s := c.sig(id.Name)
				if s == nil {
					return fmt.Errorf("instance %s: unknown signal %q", inst.Name, id.Name)
				}
				parentSlot = c.slots[id.Name]
			} else {
				// Input port: direct bind for a plain matching signal,
				// otherwise synthesize a glue wire.
				if id, ok := conn.Expr.(*ast.Ident); ok {
					if s := c.sig(id.Name); s != nil && s.Kind != elab.Memory && s.Width == conn.Port.Width {
						parentSlot = c.slots[id.Name]
						child.Binds = append(child.Binds, vm.ChildBind{ParentSlot: parentSlot, ChildPort: uint32(portIdx)})
						continue
					}
				}
				glueName := fmt.Sprintf("__conn_%s_%s", inst.Name, conn.Port.Name)
				glue := &elab.Signal{Name: glueName, Kind: elab.Wire, Width: conn.Port.Width}
				if c.extra == nil {
					c.extra = make(map[string]*elab.Signal)
				}
				c.extra[glueName] = glue
				slot := c.alloc()
				c.slots[glueName] = slot
				c.drivers[glueName] = combDriven
				parentSlot = slot
				expr := conn.Expr
				width := conn.Port.Width
				reads := map[string]bool{}
				c.freeVars(expr, reads)
				c.nodes = append(c.nodes, &combNode{
					defs:  []string{glueName},
					reads: readList(reads),
					what:  "connection " + glueName,
					emit: func(e *emitter) error {
						v, err := e.expr(expr)
						if err != nil {
							return err
						}
						e.assignTo(slot, width, v)
						return nil
					},
				})
			}
			child.Binds = append(child.Binds, vm.ChildBind{ParentSlot: parentSlot, ChildPort: uint32(portIdx)})
		}
		c.obj.Children = append(c.obj.Children, child)
	}
	return nil
}

func readList(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}

// buildCombNodes creates schedulable nodes for continuous assigns and
// combinational always blocks (after symbolic conversion and latch checks).
func (c *compiler) buildCombNodes() error {
	for _, a := range c.m.Assigns {
		a := a
		switch lhs := a.LHS.(type) {
		case *ast.Ident:
			s := c.sig(lhs.Name)
			if s == nil {
				return fmt.Errorf("assign: unknown signal %q", lhs.Name)
			}
			slot, width := c.slots[lhs.Name], s.Width
			reads := map[string]bool{}
			c.freeVars(a.RHS, reads)
			c.nodes = append(c.nodes, &combNode{
				defs:  []string{lhs.Name},
				reads: readList(reads),
				what:  "assign " + lhs.Name,
				emit: func(e *emitter) error {
					v, err := e.expr(a.RHS)
					if err != nil {
						return err
					}
					e.assignTo(slot, width, v)
					return nil
				},
			})

		case *ast.Concat:
			var names []string
			total := 0
			for _, p := range lhs.Parts {
				id, ok := p.(*ast.Ident)
				if !ok {
					return fmt.Errorf("assign: concatenation targets must be plain signals")
				}
				s := c.sig(id.Name)
				if s == nil {
					return fmt.Errorf("assign: unknown signal %q", id.Name)
				}
				names = append(names, id.Name)
				total += s.Width
			}
			reads := map[string]bool{}
			c.freeVars(a.RHS, reads)
			parts, rhs, tw := lhs.Parts, a.RHS, total
			c.nodes = append(c.nodes, &combNode{
				defs:  names,
				reads: readList(reads),
				what:  "assign {" + strings.Join(names, ",") + "}",
				emit: func(e *emitter) error {
					v, err := e.expr(rhs)
					if err != nil {
						return err
					}
					off := tw
					for _, p := range parts {
						id := p.(*ast.Ident)
						s := c.sig(id.Name)
						off -= s.Width
						e.assignTo(c.slots[id.Name], s.Width, e.bits(v, off+s.Width-1, off))
					}
					return nil
				},
			})

		default:
			return fmt.Errorf("assign: unsupported target %T (partial-bit continuous assigns are not supported)", a.LHS)
		}
	}

	for _, blk := range c.m.Always {
		if blk.Edge != ast.Comb {
			continue
		}
		env, order, err := c.symConvert(blk.Body, true)
		if err != nil {
			return fmt.Errorf("always @(*): %w", err)
		}
		for _, name := range order {
			target := env[name]
			if m := hasInitMarker(target); m != "" {
				return fmt.Errorf("always @(*): %q is not assigned on every path (latch inferred via %q)", name, m)
			}
			s := c.sig(name)
			if s == nil {
				return fmt.Errorf("always @(*): unknown signal %q", name)
			}
			slot, width := c.slots[name], s.Width
			reads := map[string]bool{}
			c.freeVars(target, reads)
			c.nodes = append(c.nodes, &combNode{
				defs:  []string{name},
				reads: readList(reads),
				what:  "always@(*) " + name,
				emit: func(e *emitter) error {
					v, err := e.expr(target)
					if err != nil {
						return err
					}
					e.assignTo(slot, width, v)
					return nil
				},
			})
		}
	}
	return nil
}

// levelize topologically orders comb nodes; a cycle is a combinational
// loop and a compile error.
func (c *compiler) levelize() ([]*combNode, error) {
	defOf := make(map[string]*combNode)
	for _, n := range c.nodes {
		for _, d := range n.defs {
			defOf[d] = n
		}
	}
	const (
		white = 0
		gray  = 1
		black = 2
	)
	state := make(map[*combNode]int)
	var order []*combNode
	var visit func(n *combNode, path []string) error
	visit = func(n *combNode, path []string) error {
		switch state[n] {
		case gray:
			return fmt.Errorf("combinational loop through %s (path: %s)", n.what, strings.Join(path, " -> "))
		case black:
			return nil
		}
		state[n] = gray
		for _, r := range n.reads {
			dn := defOf[r]
			if dn == nil {
				continue // register, input port, or child-driven: free
			}
			if dn == n {
				// A node reading its own definition is only legal when the
				// read is of a *register* it also drives — but registers are
				// never comb defs, so this is a genuine loop.
				return fmt.Errorf("combinational loop: %s depends on itself via %q", n.what, r)
			}
			if err := visit(dn, append(path, n.what)); err != nil {
				return err
			}
		}
		state[n] = black
		order = append(order, n)
		return nil
	}
	for _, n := range c.nodes {
		if err := visit(n, nil); err != nil {
			return nil, err
		}
	}
	return order, nil
}

// ------------------------------------------------------------------ seq

// emitSeqBlock lowers one always @(posedge) block.
func (c *compiler) emitSeqBlock(e *emitter, blk *ast.AlwaysBlock) error {
	if c.style == StyleGrouped {
		return c.emitStmtDirect(e, blk.Body, false)
	}
	// Mux style: symbolic next-state expressions, then guarded effects.
	env, order, err := c.symConvert(blk.Body, false)
	if err != nil {
		return fmt.Errorf("always @(posedge %s): %w", blk.Clock, err)
	}
	for _, name := range order {
		s := c.sig(name)
		if s == nil || s.Kind == elab.Memory {
			continue
		}
		next, ok := c.nextSlot[name]
		if !ok {
			return fmt.Errorf("always @(posedge): %q has no register slot", name)
		}
		v, err := e.expr(env[name])
		if err != nil {
			return err
		}
		e.assignTo(next, s.Width, v)
	}
	return c.emitStmtDirect(e, blk.Body, true)
}

// stmtHasEffects reports whether the subtree contains memory writes or
// system calls (the parts a mux-style seq lowering still needs branches
// for).
func (c *compiler) stmtHasEffects(s ast.Stmt) bool {
	switch x := s.(type) {
	case nil:
		return false
	case *ast.Block:
		for _, st := range x.Stmts {
			if c.stmtHasEffects(st) {
				return true
			}
		}
	case *ast.If:
		return c.stmtHasEffects(x.Then) || c.stmtHasEffects(x.Else)
	case *ast.Case:
		for _, it := range x.Items {
			if c.stmtHasEffects(it.Body) {
				return true
			}
		}
	case *ast.Assign:
		if idx, ok := x.LHS.(*ast.Index); ok {
			if id, ok := idx.X.(*ast.Ident); ok {
				if s := c.sig(id.Name); s != nil && s.Kind == elab.Memory {
					return true
				}
			}
		}
	case *ast.SysCall:
		return true
	}
	return false
}

// emitStmtDirect emits a statement tree with branch regions. When
// effectsOnly is true, register assignments are skipped (they were already
// lowered symbolically) and only memory writes and system calls emit.
func (c *compiler) emitStmtDirect(e *emitter, s ast.Stmt, effectsOnly bool) error {
	switch x := s.(type) {
	case nil:
		return nil

	case *ast.Block:
		for _, st := range x.Stmts {
			if err := c.emitStmtDirect(e, st, effectsOnly); err != nil {
				return err
			}
		}
		return nil

	case *ast.If:
		if effectsOnly && !c.stmtHasEffects(x) {
			return nil
		}
		cond, err := e.boolSlot(x.Cond)
		if err != nil {
			return err
		}
		jz := e.jump(vm.OpJz, cond)
		e.pushScope()
		if err := c.emitStmtDirect(e, x.Then, effectsOnly); err != nil {
			return err
		}
		e.popScope()
		if x.Else == nil {
			e.patch(jz)
			return nil
		}
		jend := e.jump(vm.OpJmp, 0)
		e.patch(jz)
		e.pushScope()
		if err := c.emitStmtDirect(e, x.Else, effectsOnly); err != nil {
			return err
		}
		e.popScope()
		e.patch(jend)
		return nil

	case *ast.Case:
		return c.emitStmtDirect(e, c.desugarCase(x), effectsOnly)

	case *ast.Assign:
		return c.emitAssignDirect(e, x, effectsOnly)

	case *ast.SysCall:
		if effectsOnly || c.style == StyleGrouped {
			return c.emitSysCall(e, x)
		}
		return nil

	default:
		return fmt.Errorf("unsupported statement %T", s)
	}
}

func (c *compiler) emitAssignDirect(e *emitter, a *ast.Assign, effectsOnly bool) error {
	// Memory write?
	if idx, ok := a.LHS.(*ast.Index); ok {
		if id, ok := idx.X.(*ast.Ident); ok {
			if s := c.sig(id.Name); s != nil && s.Kind == elab.Memory {
				addr, err := e.expr(idx.Index)
				if err != nil {
					return err
				}
				data, err := e.expr(a.RHS)
				if err != nil {
					return err
				}
				e.code = append(e.code, vm.Instr{
					Op: vm.OpMemWr, A: addr.slot, B: c.memIdx[id.Name], C: data.slot, Imm: vm.Mask(s.Width),
				})
				return nil
			}
		}
	}
	if effectsOnly {
		return nil
	}
	if !a.NonBlocking {
		return fmt.Errorf("blocking assignment in clocked block (use <=)")
	}

	switch lhs := a.LHS.(type) {
	case *ast.Ident:
		s := c.sig(lhs.Name)
		if s == nil {
			return fmt.Errorf("unknown signal %q", lhs.Name)
		}
		next, ok := c.nextSlot[lhs.Name]
		if !ok {
			return fmt.Errorf("%q assigned in clocked block but has no register slot", lhs.Name)
		}
		v, err := e.expr(a.RHS)
		if err != nil {
			return err
		}
		e.assignTo(next, s.Width, v)
		return nil

	case *ast.Index:
		// Bit RMW on the next slot.
		id := lhs.X.(*ast.Ident)
		s := c.sig(id.Name)
		next, ok := c.nextSlot[id.Name]
		if !ok {
			return fmt.Errorf("%q assigned in clocked block but has no register slot", id.Name)
		}
		v, err := e.expr(a.RHS)
		if err != nil {
			return err
		}
		bit := e.op(vm.Instr{Op: vm.OpAndImm, A: v.slot, Imm: 1})
		if iv, isConst := elab.TryConst(lhs.Index, c.m.Consts); isConst {
			if iv >= uint64(s.Width) {
				return fmt.Errorf("bit index %d out of range for %q", iv, id.Name)
			}
			cleared := e.opNoCSE(vm.Instr{Op: vm.OpAndImm, A: next, Imm: vm.Mask(s.Width) &^ (1 << iv)})
			placed := e.op(vm.Instr{Op: vm.OpShlImm, A: bit, B: uint32(iv), Imm: vm.Mask(s.Width)})
			e.opInto(next, vm.Instr{Op: vm.OpOr, A: cleared, B: placed})
			return nil
		}
		iv, err := e.expr(lhs.Index)
		if err != nil {
			return err
		}
		one := c.constSlot(1)
		maskBit := e.op(vm.Instr{Op: vm.OpShl, A: one, B: iv.slot, Imm: vm.Mask(s.Width)})
		notMask := e.op(vm.Instr{Op: vm.OpNot, A: maskBit, Imm: vm.Mask(s.Width)})
		cleared := e.opNoCSE(vm.Instr{Op: vm.OpAnd, A: next, B: notMask})
		placed := e.op(vm.Instr{Op: vm.OpShl, A: bit, B: iv.slot, Imm: vm.Mask(s.Width)})
		e.opInto(next, vm.Instr{Op: vm.OpOr, A: cleared, B: placed})
		return nil

	case *ast.PartSelect:
		id := lhs.X.(*ast.Ident)
		s := c.sig(id.Name)
		next, ok := c.nextSlot[id.Name]
		if !ok {
			return fmt.Errorf("%q assigned in clocked block but has no register slot", id.Name)
		}
		msb, err := elab.EvalConst(lhs.MSB, c.m.Consts)
		if err != nil {
			return fmt.Errorf("part-select bounds must be constant: %w", err)
		}
		lsb, err := elab.EvalConst(lhs.LSB, c.m.Consts)
		if err != nil {
			return fmt.Errorf("part-select bounds must be constant: %w", err)
		}
		if msb < lsb || int(msb) >= s.Width {
			return fmt.Errorf("bad part select [%d:%d] on %q", msb, lsb, id.Name)
		}
		w := int(msb-lsb) + 1
		v, err := e.expr(a.RHS)
		if err != nil {
			return err
		}
		field := e.op(vm.Instr{Op: vm.OpAndImm, A: v.slot, Imm: vm.Mask(w)})
		placed := field
		if lsb > 0 {
			placed = e.op(vm.Instr{Op: vm.OpShlImm, A: field, B: uint32(lsb), Imm: vm.Mask(s.Width)})
		}
		cleared := e.opNoCSE(vm.Instr{Op: vm.OpAndImm, A: next, Imm: vm.Mask(s.Width) &^ (vm.Mask(w) << lsb)})
		e.opInto(next, vm.Instr{Op: vm.OpOr, A: cleared, B: placed})
		return nil

	case *ast.Concat:
		v, err := e.expr(a.RHS)
		if err != nil {
			return err
		}
		total := 0
		for _, p := range lhs.Parts {
			id, ok := p.(*ast.Ident)
			if !ok {
				return fmt.Errorf("concatenation targets must be plain signals")
			}
			s := c.sig(id.Name)
			if s == nil {
				return fmt.Errorf("unknown signal %q", id.Name)
			}
			total += s.Width
		}
		off := total
		for _, p := range lhs.Parts {
			id := p.(*ast.Ident)
			s := c.sig(id.Name)
			next, ok := c.nextSlot[id.Name]
			if !ok {
				return fmt.Errorf("%q assigned in clocked block but has no register slot", id.Name)
			}
			off -= s.Width
			e.assignTo(next, s.Width, e.bits(v, off+s.Width-1, off))
		}
		return nil
	}
	return fmt.Errorf("unsupported assignment target %T", a.LHS)
}

// emitSysCall lowers $display/$write/$finish.
func (c *compiler) emitSysCall(e *emitter, sc *ast.SysCall) error {
	switch sc.Name {
	case "$display", "$write":
		if len(sc.Args) == 0 {
			return fmt.Errorf("%s requires a format string", sc.Name)
		}
		fmtIdent, ok := sc.Args[0].(*ast.Ident)
		if !ok || !strings.HasPrefix(fmtIdent.Name, "\"") {
			return fmt.Errorf("%s: first argument must be a string literal", sc.Name)
		}
		format, err := strconv.Unquote(fmtIdent.Name)
		if err != nil {
			return fmt.Errorf("%s: bad format string %s: %v", sc.Name, fmtIdent.Name, err)
		}
		var args []uint32
		for _, a := range sc.Args[1:] {
			v, err := e.expr(a)
			if err != nil {
				return err
			}
			args = append(args, v.slot)
		}
		idx := uint64(len(c.obj.Displays))
		c.obj.Displays = append(c.obj.Displays, vm.Display{Format: format, Args: args})
		e.code = append(e.code, vm.Instr{Op: vm.OpDisplay, Imm: idx})
		return nil
	case "$finish", "$stop":
		e.code = append(e.code, vm.Instr{Op: vm.OpFinish})
		return nil
	default:
		return fmt.Errorf("system task %s not supported", sc.Name)
	}
}
