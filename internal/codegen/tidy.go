package codegen

import "livesim/internal/vm"

// tidy is the one pass over an object's finished code. Lowering computes
// an expression into a fresh temporary and assignTo then moves it into
// the named wire or register next to it; tidy makes the producer
// write the destination itself and deletes the move, then drops pure
// instructions left with no reader. It runs inside Compile, so the content
// cache and the swap unit see only tidied objects; slot numbering is not
// changed, but a slot a move only copied into may be named by nothing
// afterwards (see alias).
//
// A temporary can be forwarded when nothing but the move can observe it:
// the move is its only reader across Comb and Seq (Seq reads Comb's settled
// temporaries), no table of the object names it, and the move is not a jump
// target, so the producer is the only way to reach the move. Whatever else
// wrote the temporary then has no reader and goes with the dead code.
//
// A move that is left in Comb copies between two slots that both live on;
// alias makes the destination name the source instead where that cannot
// be told apart, ports and Debug entries included.
//
// Last, an op whose result only the next op reads is fused with it, where
// the pair is one of the four that run most (see fuse); the same three
// conditions make the temporary unobservable, with "the next op" read
// across the instructions the earlier steps dropped.
//
// childOut lists the slots a child instance's output port drives, which
// the object's tables do not tell apart from those that feed a child.
func tidy(o *vm.Object, childOut []uint32) {
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

	alias(o, dead, pinned, reads, childOut)

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

// alias removes the Comb moves d ← s after which d and s hold the same
// value wherever d is read, by making d name s: every operand, port, bind,
// display arg and Debug entry that names d is pointed at s, and the move is
// marked dead. That holds when
//
//   - no branch jumps over the move, so it runs on every pass of Comb;
//   - it is d's only writer, and nothing in Comb reads d before it;
//   - nothing in Comb after it, and nothing in Seq, writes s;
//   - only code writes d: it is not a register's current or next value, a
//     constant, an input port or a slot a child's output drives, which the
//     kernel writes.
//
// The kernel reads d only after Comb ran (to push it to a neighbour, or to
// Peek it once settled), and Seq runs after Comb, so every reader of d
// finds s's value there. s can be anything, a register or an input port
// included: Debug keeps both names on it, and sim.Poke does not write a
// register, an input port or a constant through a name that is not its
// own. A chain of moves collapses onto the first source.
func alias(o *vm.Object, dead [2][]bool, pinned []bool, reads []int, childOut []uint32) {
	comb := o.Comb
	kernel := make([]bool, o.NumSlots) // written by the kernel, not by code
	for _, r := range o.Regs {
		kernel[r.Cur], kernel[r.Next] = true, true
	}
	for _, c := range o.Consts {
		kernel[c.Slot] = true
	}
	for _, p := range o.Ports {
		if p.Dir == vm.In {
			kernel[p.Slot] = true
		}
	}
	for _, s := range childOut {
		kernel[s] = true
	}

	// Each slot's writers, and where in Comb it is first read and last
	// written, over the code kept; a write in Seq counts as after Comb.
	writers := make([]int, o.NumSlots)
	lastWrite := make([]int, o.NumSlots)
	firstRead := make([]int, o.NumSlots)
	for s := range lastWrite {
		lastWrite[s], firstRead[s] = -1, len(comb)
	}
	for pc := len(comb) - 1; pc >= 0; pc-- {
		if !dead[0][pc] {
			comb[pc].Reads(o, func(s uint32) { firstRead[s] = pc })
		}
	}
	for pc, in := range comb {
		if !dead[0][pc] && in.Op.Pure() {
			writers[in.Dst]++
			lastWrite[in.Dst] = pc
		}
	}
	for pc, in := range o.Seq {
		if !dead[1][pc] && in.Op.Pure() {
			writers[in.Dst]++
			lastWrite[in.Dst] = len(comb)
		}
	}

	// skipped[pc]: some branch jumps over pc. Code only jumps forward;
	// a jump back would make every pc conditional.
	skipped := make([]bool, len(comb))
	open := make([]int, len(comb)+1)
	for pc, in := range comb {
		if !in.Op.IsBranch() {
			continue
		}
		if int(in.B) <= pc {
			return
		}
		open[pc+1]++
		open[in.B]--
	}
	for pc, n := 0, 0; pc < len(comb); pc++ {
		n += open[pc]
		skipped[pc] = n > 0
	}

	to := make([]uint32, o.NumSlots) // what each slot is named by now
	for s := range to {
		to[s] = uint32(s)
	}
	moved := false
	for pc := range comb {
		in := &comb[pc]
		if dead[0][pc] || in.Op != vm.OpMove || skipped[pc] {
			continue
		}
		d, s := in.Dst, to[in.A]
		if d == s || kernel[d] || writers[d] != 1 || firstRead[d] < pc || lastWrite[s] > pc {
			continue
		}
		to[d], dead[0][pc], moved = s, true, true
		reads[s] += reads[d] - 1
		reads[d] = 0
		pinned[s] = pinned[s] || pinned[d]
	}
	if !moved {
		return
	}
	name := func(s uint32) uint32 { return to[s] }
	for _, code := range [][]vm.Instr{o.Comb, o.Seq} {
		for i := range code {
			code[i].MapReads(name)
		}
	}
	for i := range o.Ports {
		o.Ports[i].Slot = to[o.Ports[i].Slot]
	}
	for i := range o.Debug {
		o.Debug[i].Slot = to[o.Debug[i].Slot]
	}
	for _, d := range o.Displays {
		for i, a := range d.Args {
			d.Args[i] = to[a]
		}
	}
	for _, c := range o.Children {
		for i, b := range c.Binds {
			c.Binds[i].ParentSlot = to[b.ParentSlot]
		}
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
