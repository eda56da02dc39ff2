package sim

import (
	"fmt"

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
