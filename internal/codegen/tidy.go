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

	// Forward. prod is the last instruction kept, so a chain of moves
	// collapses onto its first producer.
	dead := [2][]bool{make([]bool, len(o.Comb)), make([]bool, len(o.Seq))}
	for si, code := range streams {
		c := *code
		target := make([]bool, len(c)+1)
		for i := range c {
			if c[i].Op.IsBranch() {
				target[c[i].B] = true
			}
		}
		prod := -1
		for pc := range c {
			in := &c[pc]
			if prod >= 0 && in.Op == vm.OpMove && !target[pc] {
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
