package vm

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"slices"
)

// The dependence analysis the kernel's settle schedule rests on. A bind
// source is a slot another instance reads through a port bind: an Out
// port, or a parent slot bound to a child's port. For each, Deps names the
// non-state slots the value Comb leaves in it depends on, and Edge is the
// slice of Comb that computes the sources depending on state alone, so the
// kernel can compute them at the clock edge, before any neighbour
// evaluates, and Rest is what the settle then has left to run. State is
// the slots Comb only reads that hold a register's current value, a
// constant or an input the caller counts as state (EdgeFor), and the
// memories.
//
// Dependence counts data and the conditions of the forward branches that
// guard a write; a slot that some path through Comb leaves unwritten also
// depends on its value before Comb ran. A Comb with a backward jump is not
// analysed: each source it writes depends on every non-state slot Comb
// reads and on its own value, unless Comb reads none.

// Edge is an object's edge program, and the dependence analysis it comes
// from, with a set of input port slots counted as state (EdgeFor): the
// instructions of Comb that compute the bind sources depending on state
// alone, in Comb order, with jump targets indexing Code.
type Edge struct {
	Code []Instr
	// PC is the Comb pc of each instruction of Code; nil when Whole.
	PC []uint32
	// Whole says Code is all of Comb: Comb reads no non-state slot and
	// does nothing but compute slots.
	Whole bool
	// Computes is the set of bind sources that hold their settled value
	// once Code has run after a clock edge: those whose Deps are empty,
	// and every source Comb writes when Whole.
	Computes SlotSet
	// Rest is what is left of Comb once Code has run on the instance's
	// current state: Comb without the instructions of Code, keeping each
	// branch whose skipped range holds an instruction of Rest, with jump
	// targets indexing Rest; RestPC is the Comb pc of each. Run after Code
	// on the same state, and with nothing but Code writing the slots Code
	// writes, Rest leaves every slot as Comb would (restOf). It is empty
	// when Whole, and Comb itself, with RestPC nil, when Code is empty or
	// skipping it could change what Comb leaves.
	Rest   []Instr
	RestPC []uint32
	// Known is the set of input port slots the analysis counts as state,
	// nil for none.
	Known SlotSet

	src   []uint32 // bind sources, ascending
	span  []uint32 // Deps of src[i] is deps[span[2i]:span[2i+1]]
	deps  []uint32 // each distinct list once
	reads []uint32 // every non-state slot Comb reads: the answer for any other slot
}

// Deps returns the non-state slots, ascending, that the value Comb leaves
// in slot depends on; empty when it depends on state alone. slot is a bind
// source: an Out port or the parent slot of a child bind. For any other
// slot the answer is every non-state slot Comb reads.
func (e *Edge) Deps(slot uint32) []uint32 {
	if i, ok := slices.BinarySearch(e.src, slot); ok {
		return e.deps[e.span[2*i]:e.span[2*i+1]:e.span[2*i+1]]
	}
	return e.reads
}

// EdgeFor returns the object's edge program and dependence analysis with
// the input port slots of known, a set over the object's slots, counted
// as state: slots the caller keeps at one value from one clock edge to the
// next, and re-evaluates the whole of Comb whenever one changes. Derived
// on first use for each set and cached; safe for concurrent use; not part
// of the content hash.
func (o *Object) EdgeFor(known SlotSet) *Edge {
	if !slices.ContainsFunc(known, func(w uint64) bool { return w != 0 }) {
		known = nil
	}
	o.edgeMu.Lock()
	defer o.edgeMu.Unlock()
	for _, e := range o.edges {
		if slices.Equal(e.Known, known) {
			return e
		}
	}
	e := o.analyseComb(slices.Clip(slices.Clone(known)))
	o.edges = append(o.edges, e)
	return e
}

// RunEdge executes edge program e of the instance's object.
func (in *Instance) RunEdge(e *Edge, st *Stats) { in.exec(e.Code, st) }

// RunEdgeProfiled is RunEdge with a profiler attached, which sees each
// instruction at its Comb address; a nil profiler runs RunEdge.
func (in *Instance) RunEdgeProfiled(e *Edge, st *Stats, p Profiler) {
	if p == nil {
		in.RunEdge(e, st)
		return
	}
	in.execProfiled(e.Code, e.PC, st, p, in.Obj.BaseAddr)
}

// RunRest executes e.Rest: in place of Comb, once e's edge program has
// run on the instance's current state.
func (in *Instance) RunRest(e *Edge, st *Stats) { in.exec(e.Rest, st) }

// RunRestProfiled is RunRest with a profiler attached, which sees each
// instruction at its Comb address; a nil profiler runs RunRest.
func (in *Instance) RunRestProfiled(e *Edge, st *Stats, p Profiler) {
	if p == nil {
		in.RunRest(e, st)
		return
	}
	in.execProfiled(e.Rest, e.RestPC, st, p, in.Obj.BaseAddr)
}

func (o *Object) analyseComb(known SlotSet) *Edge {
	code := o.Comb
	words := int(o.NumSlots+63) / 64
	written := make(SlotSet, words)
	sideEffects, backward := false, false
	for pc, in := range code {
		switch {
		case in.Op.Pure():
			written.add(in.Dst)
		case in.Op.IsBranch():
			backward = backward || int(in.B) <= pc
		case in.Op != OpNop:
			sideEffects = true
		}
	}
	state := make(SlotSet, words)
	copy(state, known)
	for _, r := range o.Regs {
		state.add(r.Cur)
	}
	for _, c := range o.Consts {
		state.add(c.Slot)
	}
	reads := make(SlotSet, words)
	for i := range state {
		state[i] &^= written[i]
		reads[i] = o.CombReads()[i] &^ state[i]
	}
	d := &Edge{Known: known, reads: reads.appendTo(nil)}
	for _, p := range o.Ports {
		if p.Dir == Out {
			d.src = append(d.src, p.Slot)
		}
	}
	for _, c := range o.Children {
		for _, b := range c.Binds {
			d.src = append(d.src, b.ParentSlot)
		}
	}
	slices.Sort(d.src)
	d.src = slices.Compact(d.src)

	// deps(x, s) sets s to the non-state slots source x depends on.
	var deps func(x uint32, s SlotSet)
	var whole bool
	if backward {
		whole = !sideEffects && len(d.reads) == 0
		deps = func(x uint32, s SlotSet) {
			clear(s)
			switch {
			case state.Has(x) || whole && written.Has(x):
			case written.Has(x):
				copy(s, reads) // and, below, its own value: there is no slice of a loop
				fallthrough
			default:
				s.add(x)
			}
		}
	} else {
		var leafReads bool
		deps, leafReads = o.combFlow(written, state)
		whole = !sideEffects && !leafReads
	}
	var need []uint32
	computes := make(SlotSet, words)
	lists := map[string]uint32{} // where a list of 2+ slots already in d.deps starts, by its bytes
	var key []byte
	set := make(SlotSet, words)
	for _, x := range d.src {
		at := len(d.deps)
		deps(x, set)
		d.deps = set.appendTo(d.deps)
		switch {
		case len(d.deps) == at:
			computes.add(x)
			if written.Has(x) {
				need = append(need, x)
			}
		case whole && written.Has(x):
			computes.add(x)
		}
		key = key[:0]
		for _, y := range d.deps[at:] {
			key = binary.LittleEndian.AppendUint32(key, y)
		}
		if lo, ok := lists[string(key)]; ok {
			d.deps = d.deps[:at]
			d.span = append(d.span, lo, lo+uint32(len(key)/4))
			continue
		}
		if len(d.deps)-at > 1 {
			lists[string(key)] = uint32(at)
		}
		d.span = append(d.span, uint32(at), uint32(len(d.deps)))
	}
	d.deps = slices.Clip(d.deps)
	d.Computes = computes
	switch {
	case whole:
		d.Code, d.Whole, d.Rest = code, true, code[:0:0]
	case len(need) == 0:
		d.Rest = code
	default:
		keep := o.slice(need)
		d.Code, d.PC = o.part(keep)
		d.Rest, d.RestPC = o.restOf(keep, state)
	}
	return d
}

// combFlow runs the dependence analysis over a Comb whose branches all
// jump forward. It returns a function that sets s to source x's
// non-state dependences, and whether Comb reads a non-state slot before
// writing it.
func (o *Object) combFlow(written, state SlotSet) (func(x uint32, s SlotSet), bool) {
	code := o.Comb
	words := len(written)
	set := func(sets []uint64, i int) SlotSet { return sets[i*words : (i+1)*words : (i+1)*words] }
	// acc[x]: what the writes of x so far depend on. guard: what decides
	// whether pc runs, the union of the sets of the branches whose skipped
	// range holds pc; a branch's set is its condition's and its own guard.
	acc := make([]uint64, int(o.NumSlots)*words)
	var bset []uint64
	var target []int
	var open []int // branches whose skipped range holds pc
	guard := make(SlotSet, words)
	w := make(SlotSet, words)
	var def, end SlotSet
	leafReads := false
	read := func(y uint32) {
		or(w, set(acc, int(y)))
		if !state.Has(y) && !def.Has(y) {
			w.add(y)
			leafReads = true
		}
	}
	walkDefined(code, words, func(pc int, d SlotSet) {
		def = d
		if n := len(open); n > 0 {
			if open = slices.DeleteFunc(open, func(b int) bool { return target[b] <= pc }); len(open) != n {
				clear(guard)
				for _, b := range open {
					or(guard, set(bset, b))
				}
			}
		}
		if pc == len(code) {
			end = slices.Clone(d)
			return
		}
		in := &code[pc]
		if !in.Op.Pure() && !in.Op.IsBranch() {
			return
		}
		copy(w, guard)
		in.Reads(o, read)
		if in.Op.Pure() {
			if a := set(acc, int(in.Dst)); len(open) == 0 {
				copy(a, w)
			} else {
				or(a, w)
			}
			return
		}
		target = append(target, int(in.B))
		bset = append(bset, w...)
		if int(in.B) > pc+1 {
			open = append(open, len(target)-1)
			or(guard, w)
		}
	})
	return func(x uint32, s SlotSet) {
		clear(s)
		if !state.Has(x) {
			copy(s, set(acc, int(x)))
			if !end.Has(x) {
				s.add(x)
			}
		}
	}, leafReads
}

// walkDefined walks code, whose branches all jump forward, in pc order and
// calls f at each pc, and at pc len(code) for the end, with the slots that
// every path from the start has written before pc. Code no path reaches
// sees every slot written.
func walkDefined(code []Instr, words int, f func(pc int, def SlotSet)) {
	def := make(SlotSet, words)
	live := true // pc is reached by falling through from pc-1
	pend := make([]SlotSet, len(code)+1)
	for pc := 0; pc <= len(code); pc++ {
		switch p := pend[pc]; {
		case p != nil && live:
			and(def, p)
		case p != nil:
			copy(def, p)
			live = true
		case !live:
			for i := range def {
				def[i] = ^uint64(0)
			}
		}
		f(pc, def)
		if pc == len(code) {
			return
		}
		switch in := &code[pc]; {
		case in.Op.IsBranch():
			if t := &pend[in.B]; *t == nil {
				*t = slices.Clone(def)
			} else {
				and(*t, def)
			}
			if in.Op == OpJmp {
				live = false
			}
		case in.Op.Pure():
			def.add(in.Dst)
		}
	}
}

// liveIn returns the slots some path through code reads before code
// writes them, and those every path writes. Code with a backward jump is
// not walked: every slot it reads is live in, and no slot is written on
// every path.
func liveIn(o *Object, code []Instr) (in, all SlotSet) {
	words := int(o.NumSlots+63) / 64
	in = make(SlotSet, words)
	for pc, ins := range code {
		if ins.Op.IsBranch() && int(ins.B) <= pc {
			o.addReads(in, code)
			return in, make(SlotSet, words)
		}
	}
	walkDefined(code, words, func(pc int, def SlotSet) {
		if pc == len(code) {
			all = slices.Clone(def)
			return
		}
		code[pc].Reads(o, func(y uint32) {
			if !def.Has(y) {
				in.add(y)
			}
		})
	})
	return in, all
}

// slice returns the instructions of the edge program that computes the
// slots of need, by Comb pc: every writer of a needed slot, the slots it
// reads needed in turn, and every branch whose skipped range holds a kept
// instruction, its condition needed too, until nothing changes.
func (o *Object) slice(need []uint32) (keep []bool) {
	code := o.Comb
	// writers[start[x]:start[x+1]] are the pcs that write slot x.
	start := make([]int32, o.NumSlots+1)
	for _, in := range code {
		if in.Op.Pure() {
			start[in.Dst+1]++
		}
	}
	for x := 1; x < len(start); x++ {
		start[x] += start[x-1]
	}
	writers := make([]int32, start[len(start)-1])
	next := slices.Clone(start)
	for pc, in := range code {
		if in.Op.Pure() {
			writers[next[in.Dst]] = int32(pc)
			next[in.Dst]++
		}
	}
	needed := make(SlotSet, (o.NumSlots+63)/64)
	keep = make([]bool, len(code))
	queue := need
	for _, x := range need {
		needed.add(x)
	}
	add := func(pc int) {
		keep[pc] = true
		code[pc].Reads(o, func(y uint32) {
			if !needed.Has(y) {
				needed.add(y)
				queue = append(queue, y)
			}
		})
	}
	for {
		for len(queue) > 0 {
			x := queue[len(queue)-1]
			queue = queue[:len(queue)-1]
			for _, pc := range writers[start[x]:start[x+1]] {
				if !keep[pc] {
					add(int(pc))
				}
			}
		}
		if !keepBranches(code, keep, add) && len(queue) == 0 {
			return keep
		}
	}
}

// keepBranches calls add for each branch of code not yet kept whose
// skipped range holds a kept instruction, and reports whether it found
// one; add marks the branch kept.
func keepBranches(code []Instr, keep []bool, add func(pc int)) bool {
	// before[pc] is the number of kept instructions before pc.
	before := make([]int32, len(code)+1)
	for pc, k := range keep {
		before[pc+1] = before[pc]
		if k {
			before[pc+1]++
		}
	}
	grew := false
	for pc, in := range code {
		if in.Op.IsBranch() && !keep[pc] && before[in.B] > before[pc+1] {
			add(pc)
			grew = true
		}
	}
	return grew
}

// part returns the instructions of Comb at the pcs where keep is set, in
// order, with every jump retargeted to the first kept instruction at or
// after its target, and those pcs.
func (o *Object) part(keep []bool) ([]Instr, []uint32) {
	// at[pc] is the index in the part of the first kept instruction at or
	// after pc.
	at := make([]uint32, len(keep)+1)
	var pcs []uint32
	for pc, k := range keep {
		at[pc+1] = at[pc]
		if k {
			at[pc+1]++
			pcs = append(pcs, uint32(pc))
		}
	}
	out := make([]Instr, len(pcs))
	for i, pc := range pcs {
		in := o.Comb[pc]
		if in.Op.IsBranch() {
			in.B = at[in.B]
		}
		out[i] = in
	}
	return out, pcs
}

// restOf returns Rest and RestPC for the edge program made of the Comb
// instructions the slice keeps. Once the slice has run on the current
// state, running what is left of Comb leaves every slot as Comb would, so
// long as (1) each instruction of the slice reads a state slot or a slot
// written on every path to it, so that it computes the same values
// whatever Comb's other instructions left, and (2) no instruction left,
// and no branch of the slice, reads a slot the slice writes at a later
// pc, so that it finds the value the slice left; all branches jump
// forward, as the slice exists only then. The slice holds every writer of the slots it writes and of those
// it reads, and the slots it writes hold their values until the next run
// of the edge program or Comb, unless something else writes one. When (1)
// or (2) fails it returns Comb and nil.
func (o *Object) restOf(keep []bool, state SlotSet) ([]Instr, []uint32) {
	code := o.Comb
	words := len(state)
	sliceWrites := make(SlotSet, words)
	lastWrite := make([]int32, o.NumSlots) // the slice's last writer of a slot
	for pc, k := range keep {
		if k && code[pc].Op.Pure() {
			sliceWrites.add(code[pc].Dst)
			lastWrite[code[pc].Dst] = int32(pc)
		}
	}
	ok := true
	walkDefined(code, words, func(pc int, def SlotSet) {
		if !ok || pc == len(code) {
			return
		}
		in := &code[pc]
		in.Reads(o, func(y uint32) {
			if keep[pc] && !state.Has(y) && !def.Has(y) {
				ok = false // (1)
			}
			if (!keep[pc] || in.Op.IsBranch()) && sliceWrites.Has(y) && int(lastWrite[y]) >= pc {
				ok = false // (2)
			}
		})
	})
	if !ok {
		return code, nil
	}
	rest := make([]bool, len(code))
	for pc, in := range code {
		rest[pc] = !keep[pc] && !in.Op.IsBranch() && in.Op != OpNop
	}
	for keepBranches(code, rest, func(pc int) { rest[pc] = true }) {
	}
	return o.part(rest)
}

// appendTo appends the slots of s to dst in ascending order.
func (s SlotSet) appendTo(dst []uint32) []uint32 {
	for i, w := range s {
		for ; w != 0; w &= w - 1 {
			dst = append(dst, uint32(i*64+bits.TrailingZeros64(w)))
		}
	}
	return dst
}

func or(dst, src []uint64) {
	for i := range dst {
		dst[i] |= src[i]
	}
}

func and(dst, src []uint64) {
	for i := range dst {
		dst[i] &= src[i]
	}
}

// CheckEdge is the property the kernel's edge pass and settle rest on, for
// tests and fuzzers to hold generated objects to. It checks the analysis
// with no input counted as state, then with a random set of the input
// ports drawn from rand. From one state, slots and memories drawn from
// rand, it runs Comb and the edge program, and reports the first slot the
// edge program leaves different from Comb, or that Comb writes among
// Computes and the edge program does not. It redraws every slot but the
// state and those the edge program wrote, and reports the first slot or
// memory word Rest leaves different from Comb from there. Then, for each
// bind source, it runs Comb again from a state that keeps the registers,
// constants, known inputs, memories and the source's Deps and redraws
// every other slot, and reports a source whose value moved.
func CheckEdge(o *Object, rand func() uint64) error {
	if err := checkEdge(o, nil, rand); err != nil {
		return err
	}
	known := make(SlotSet, (o.NumSlots+63)/64)
	for _, p := range o.Ports {
		if p.Dir == In && rand()&1 != 0 {
			known.add(p.Slot)
		}
	}
	if err := checkEdge(o, known, rand); err != nil {
		return fmt.Errorf("with inputs %v known: %w", known.appendTo(nil), err)
	}
	return nil
}

func checkEdge(o *Object, known SlotSet, rand func() uint64) error {
	e := o.EdgeFor(known)
	comb := NewInstance(o)
	for i := range comb.Slots {
		comb.Slots[i] = rand()
	}
	for _, m := range comb.Mems {
		for i := range m {
			m[i] = rand()
		}
	}
	start := slices.Clone(comb.Slots)
	edge := NewInstance(o)
	copy(edge.Slots, start)
	edge.Mems = comb.Mems // neither program writes a memory
	comb.RunComb(nil)
	edge.RunEdge(e, nil)
	wrote := make(SlotSet, len(o.CombReads()))
	for i, in := range e.Code {
		if !in.Op.Pure() {
			continue
		}
		wrote.add(in.Dst)
		if edge.Slots[in.Dst] != comb.Slots[in.Dst] {
			pc := i
			if e.PC != nil {
				pc = int(e.PC[i])
			}
			return fmt.Errorf("object %s: edge program leaves slot %d = %#x (comb pc %d), Comb leaves %#x", o.Key, in.Dst, edge.Slots[in.Dst], pc, comb.Slots[in.Dst])
		}
	}
	for _, in := range o.Comb {
		if in.Op.Pure() && e.Computes.Has(in.Dst) && !wrote.Has(in.Dst) {
			return fmt.Errorf("object %s: source slot %d is computed at the edge, but the edge program does not write it", o.Key, in.Dst)
		}
	}

	keep := make(SlotSet, len(wrote))
	copy(keep, known)
	for _, r := range o.Regs {
		keep.add(r.Cur)
	}
	for _, c := range o.Consts {
		keep.add(c.Slot)
	}
	// The settle's run: inputs and whatever else the edge program did not
	// write may have moved since it ran.
	rest, full := NewInstance(o), NewInstance(o)
	for i := range rest.Slots {
		rest.Slots[i] = edge.Slots[i]
		if !keep.Has(uint32(i)) && !wrote.Has(uint32(i)) {
			rest.Slots[i] = rand()
		}
	}
	copy(full.Slots, rest.Slots)
	rest.Mems, full.Mems = comb.Mems, comb.Mems
	full.RunComb(nil)
	rest.RunRest(e, nil)
	for i, v := range rest.Slots {
		if v != full.Slots[i] {
			return fmt.Errorf("object %s: after the edge program, Rest leaves slot %d = %#x, Comb leaves %#x", o.Key, i, v, full.Slots[i])
		}
	}
	if !slices.Equal(rest.memLog, full.memLog) {
		return fmt.Errorf("object %s: after the edge program, Rest buffers memory writes %v, Comb %v", o.Key, rest.memLog, full.memLog)
	}

	again := NewInstance(o)
	again.Mems = comb.Mems
	for _, x := range e.src {
		for i := range again.Slots {
			again.Slots[i] = start[i]
			if !keep.Has(uint32(i)) && !slices.Contains(e.Deps(x), uint32(i)) {
				again.Slots[i] = rand()
			}
		}
		again.RunComb(nil)
		if again.Slots[x] != comb.Slots[x] {
			return fmt.Errorf("object %s: source slot %d reads %#x, then %#x from a state that differs only outside its Deps %v", o.Key, x, comb.Slots[x], again.Slots[x], e.Deps(x))
		}
	}
	return nil
}
