package codegen

import "livesim/internal/vm"

// tidy is the one pass over an object's finished code. Lowering computes
// an expression into a fresh temporary and assignTo/coerceInto then moves
// it into the named wire or register next to it; tidy makes the producer
// write the destination itself and deletes the move, then drops pure
// instructions left with no reader. It runs inside Compile, so the content
// cache and the swap unit see only tidied objects; slot numbering is not
// changed.
//
// A temporary can be forwarded when nothing but the move can observe it:
// the move is its only reader across Comb and Seq (Seq reads Comb's settled
// temporaries), no table of the object names it, and the move is not a jump
// target, so the producer is the only way to reach the move. Whatever else
// wrote the temporary then has no reader and goes with the dead code.
//
// Last, an op whose result only the next op reads is fused with it, where
// the pair is one of the four that run most (see fuse); the same three
// conditions make the temporary unobservable, with "the next op" read
// across the instructions the earlier steps dropped.
func tidy(o *vm.Object) {
	streams := []*[]vm.Instr{&o.Comb, &o.Seq}

	// pinned slots are visible outside the code: the kernel, the state
	// transforms, tracing and $display address them by number.
	pinned := make([]bool, o.NumSlots)
	for _, p := range o.Ports {
		pinned[p.Slot] = true
	}
	for _, r := range o.Regs {
		pinned[r.Cur], pinned[r.Next] = true, true
	}
	for _, d := range o.Debug {
		pinned[d.Slot] = true
	}
	for _, c := range o.Consts {
		pinned[c.Slot] = true
	}
	for _, c := range o.Children {
		for _, b := range c.Binds {
			pinned[b.ParentSlot] = true
		}
	}
	for _, d := range o.Displays {
		for _, a := range d.Args {
			pinned[a] = true
		}
	}

	reads := make([]int, o.NumSlots)
	for _, code := range streams {
		for i := range *code {
			(*code)[i].Reads(o, func(s uint32) { reads[s]++ })
		}
	}

	// target[si][pc]: some jump of stream si lands on pc. Jumps are never
	// dropped, so the table holds until compaction.
	var target [2][]bool
	for si, code := range streams {
		c := *code
		target[si] = make([]bool, len(c)+1)
		for i := range c {
			if c[i].Op.IsBranch() {
				target[si][c[i].B] = true
			}
		}
	}

	// Forward. prod is the last instruction kept, so a chain of moves
	// collapses onto its first producer.
	dead := [2][]bool{make([]bool, len(o.Comb)), make([]bool, len(o.Seq))}
	for si, code := range streams {
		c := *code
		prod := -1
		for pc := range c {
			in := &c[pc]
			if prod >= 0 && in.Op == vm.OpMove && !target[si][pc] {
				p := &c[prod]
				if t := p.Dst; p.Op.Pure() && t == in.A && !pinned[t] && reads[t] == 1 {
					p.Dst = in.Dst
					reads[t] = 0
					dead[si][pc] = true
					continue
				}
			}
			prod = pc
		}
	}

	// Drop what nothing reads. An operand's last reader going can leave
	// its producer without one, and producers come first: walk backwards,
	// Seq before the Comb whose temporaries it reads.
	for si := len(streams) - 1; si >= 0; si-- {
		c := *streams[si]
		for pc := len(c) - 1; pc >= 0; pc-- {
			in := &c[pc]
			if !dead[si][pc] && in.Op.Pure() && !pinned[in.Dst] && reads[in.Dst] == 0 {
				dead[si][pc] = true
				in.Reads(o, func(s uint32) { reads[s]-- })
			}
		}
	}

	// Fuse. q is the next instruction kept after pc; a jump to anything in
	// (pc, q] lands on q after compaction, so q is reached only from pc
	// when none does.
	for si, code := range streams {
		c := *code
		for pc := 0; pc < len(c); {
			q, landed := pc+1, target[si][pc+1]
			for q < len(c) && dead[si][q] {
				q++
				landed = landed || target[si][q]
			}
			if q == len(c) {
				break
			}
			if t := c[pc].Dst; !dead[si][pc] && !landed && c[pc].Op.Pure() && !pinned[t] && reads[t] == 1 {
				if f, ok := fuse(&c[pc], &c[q]); ok {
					c[pc], dead[si][q] = f, true
					reads[t] = 0
					pc = q + 1
					continue
				}
			}
			pc = q
		}
	}

	// Compact and remap jump targets; a jump to a dropped instruction
	// lands on the next one kept.
	for si, code := range streams {
		c := *code
		newPC := make([]uint32, len(c)+1)
		kept := c[:0]
		for pc := range c {
			newPC[pc] = uint32(len(kept))
			if !dead[si][pc] {
				kept = append(kept, c[pc])
			}
		}
		newPC[len(c)] = uint32(len(kept))
		for i := range kept {
			if kept[i].Op.IsBranch() {
				kept[i].B = newPC[kept[i].B]
			}
		}
		*code = kept
	}
}

// fuse returns the one op that does what p and then n do, for the pairs
// `make opmix` measured as the most frequent with n reading p's result t
// and nothing else reading it: shli→or, eqi→and, eq→and and eq→jz. The
// result writes n's destination and leaves t unwritten.
func fuse(p, n *vm.Instr) (vm.Instr, bool) {
	t := p.Dst
	if n.Op == vm.OpJz {
		if p.Op == vm.OpEq && n.A == t {
			return vm.Instr{Op: vm.OpJne, A: p.A, C: p.B, B: n.B}, true
		}
		return vm.Instr{}, false
	}
	if (n.Op != vm.OpAnd && n.Op != vm.OpOr) || (n.A == t) == (n.B == t) {
		return vm.Instr{}, false
	}
	other := n.A // n's operand that is not t
	if other == t {
		other = n.B
	}
	switch {
	case p.Op == vm.OpShlImm && n.Op == vm.OpOr && p.B < 64:
		return vm.Instr{Op: vm.OpShlOr, Dst: n.Dst, A: p.A, B: other, W: uint8(p.B), Imm: p.Imm}, true
	case p.Op == vm.OpEqImm && n.Op == vm.OpAnd:
		return vm.Instr{Op: vm.OpAndEqI, Dst: n.Dst, A: p.A, B: other, Imm: p.Imm}, true
	case p.Op == vm.OpEq && n.Op == vm.OpAnd:
		return vm.Instr{Op: vm.OpAndEq, Dst: n.Dst, A: p.A, B: p.B, C: other}, true
	}
	return vm.Instr{}, false
}
