package sim

import (
	"fmt"
	"slices"

	"livesim/internal/vm"
)

// Hooks for the differential tests of package sim_test, which cannot live
// in this package because they import internal/pgas (which imports sim).

// ReferenceTick is Tick on the reference kernel; prof may be nil.
func ReferenceTick(s *Sim, n int, prof vm.Profiler) error { return s.referenceTick(n, prof) }

// ReferenceSettle is Settle on the reference kernel.
func ReferenceSettle(s *Sim) error { return s.referenceSettle(nil) }

// SetOrder has every settle schedule s compiles from now on, its current
// one included, evaluate in the order f leaves the ranked worklist in;
// restore puts the rank order back. Each change re-evaluates everything at
// the next settle, as a Reload does.
func SetOrder(s *Sim, f func(order []*Node)) (restore func()) {
	set := func(f func(order []*Node)) {
		s.reorder = f
		s.rebuildIndex()
		s.settled, s.allDirty = false, true
	}
	set(f)
	return func() { set(nil) }
}

// StaleBind reports the first bind whose remembered value differs from
// the destination slot it wrote, among the binds that remember one, or
// returns nil. It holds after every settle.
func StaleBind(s *Sim) error {
	for i := range s.binds {
		op := &s.binds[i]
		if v := op.dst.Inst.Slots[op.dstSlot]; !op.shared && op.last != v {
			return fmt.Errorf("bind into %s slot %d remembers %#x, the slot holds %#x", op.dst.Path, op.dstSlot, op.last, v)
		}
	}
	return nil
}

// EdgeOf returns the edge program n runs, with its tied inputs counted as
// state.
func EdgeOf(n *Node) *vm.Edge { return n.edge }

// TestDesign is one of this package's small hierarchical test designs.
type TestDesign struct{ Name, Src, Top string }

// TestDesigns lists the hierarchical designs of sim_test.go and
// prof_test.go.
var TestDesigns = []TestDesign{
	{"pipeline", pipelineSrc, "pipe"},
	{"combchain", combChainSrc, "wrap"},
	{"stall", stallSrc, "stall"},
}

// BuildDesign and TableResolver are the in-package test helpers.
var (
	BuildDesign   = buildDesign
	TableResolver = tableResolver
)

// StateOf returns the slots a capture of n holds, nil for every slot.
func StateOf(n *Node) vm.SlotSet { return n.state }

// UnsettleReference has the next settle of s, a simulation the reference
// kernel runs, evaluate every instance again: the settle that ends a
// restore runs the compiled schedule, and the reference must derive the
// slots a capture does not hold by its own loop.
func UnsettleReference(s *Sim) { s.settled, s.allDirty = false, true }

// FullState captures every slot of every instance, as the whole slot
// array, and every memory word in pages of its own: what a capture held
// before captures held state slots alone. Restore of it writes every slot.
func FullState(s *Sim) *State {
	s.Sync()
	st := &State{Cycle: s.cycle, Finished: s.finished}
	for _, n := range s.nodes {
		ns := NodeState{Path: n.Path, ObjKey: n.Obj.Key, Slots: append([]uint64(nil), n.Inst.Slots...)}
		for _, m := range n.Inst.Mems {
			ns.Mems = append(ns.Mems, PagedMem(m))
		}
		st.Nodes = append(st.Nodes, ns)
	}
	return st
}

// UnsharedState copies what Snapshot captures, each node's state slots
// and memories, from the live instances into new arrays, slot by slot.
func UnsharedState(s *Sim) *State {
	st := &State{Cycle: s.cycle, Finished: s.finished}
	for _, n := range s.nodes {
		ns := NodeState{Path: n.Path, ObjKey: n.Obj.Key, Slots: []uint64{}}
		if n.state != nil {
			ns.NumSlots, ns.Present = len(n.Inst.Slots), n.state
		}
		for x, v := range n.Inst.Slots {
			if n.state == nil || n.state.Has(uint32(x)) {
				ns.Slots = append(ns.Slots, v)
			}
		}
		for _, m := range n.Inst.Mems {
			ns.Mems = append(ns.Mems, PagedMem(m))
		}
		st.Nodes = append(st.Nodes, ns)
	}
	return st
}

// Scramble sets every slot that no capture of s holds to a value drawn
// from rand: what a restore finds in an instance that ran elsewhere.
func Scramble(s *Sim, rand func() uint64) {
	for _, n := range s.nodes {
		for x := range n.Inst.Slots {
			if n.state != nil && !n.state.Has(uint32(x)) {
				n.Inst.Slots[x] = rand()
			}
		}
	}
}

// SlotDiff returns the first slot or memory word, in pre-order, at which
// a and b differ after Sync, skipping the slots skip names, or "". The
// two simulations run the same objects.
func SlotDiff(a, b *Sim, skip func(n *Node, slot uint32) bool) string {
	an, bn := a.Nodes(), b.Nodes()
	for i, n := range an {
		m := bn[i]
		for x, v := range n.Inst.Slots {
			if w := m.Inst.Slots[x]; w != v && (skip == nil || !skip(n, uint32(x))) {
				name := "unnamed"
				if d := slices.IndexFunc(n.Obj.Debug, func(d vm.SlotDebug) bool { return d.Slot == uint32(x) }); d >= 0 {
					name = n.Obj.Debug[d].Name
				}
				return fmt.Sprintf("%s (%s) slot %d (%s): %#x vs %#x", n.Path, n.Obj.Key, x, name, v, w)
			}
		}
		for mi, mem := range n.Inst.Mems {
			for j, v := range mem {
				if w := m.Inst.Mems[mi][j]; w != v {
					return fmt.Sprintf("%s.%s[%d]: %#x vs %#x", n.Path, n.Obj.Mems[mi].Name, j, v, w)
				}
			}
		}
	}
	return ""
}
