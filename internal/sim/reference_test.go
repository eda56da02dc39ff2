package sim

import (
	"fmt"

	"livesim/internal/vm"
)

// The reference kernel: the fixed-point loop this package shipped before
// the compiled settle schedule replaced it, kept as the oracle the
// differential tests run the schedule against. It shares nothing with the
// schedule but the dirty bits: it looks every port up again on every pass
// and re-copies every bind of the tree until a pass moves nothing.

func (s *Sim) isDirty(n *Node) bool { return s.dirty[n.rank>>6]&(1<<(n.rank&63)) != 0 }

func (s *Sim) referenceSettle(prof vm.Profiler) error {
	if s.settled {
		return nil
	}
	if s.allDirty {
		for _, n := range s.nodes {
			s.mark(n)
		}
		s.allDirty = false
	}
	// Each pass has two phases. Eval: dirty instances re-run their comb
	// programs. Copy: port values move across module boundaries (parents
	// first, so downward chains and sibling-to-sibling forwarding traverse
	// multiple hops per pass); a changed copy dirties the receiving
	// instance. The fixed point is reached when a copy phase moves nothing
	// — then every instance's inputs already matched its neighbours'
	// outputs when it last evaluated.
	for pass := 0; pass < s.MaxSettle; pass++ {
		for _, n := range s.nodes {
			if !s.isDirty(n) {
				continue
			}
			s.dirty[n.rank>>6] &^= 1 << (n.rank & 63)
			if prof == nil {
				n.Inst.RunComb(&s.Stats)
			} else {
				n.Inst.RunCombProfiled(&s.Stats, prof)
			}
		}
		changed := false
		for _, n := range s.nodes {
			for ci, spec := range n.Obj.Children {
				child := n.Children[ci]
				for _, b := range spec.Binds {
					port := child.Obj.Ports[b.ChildPort]
					if port.Dir == vm.In {
						v := n.Inst.Slots[b.ParentSlot] & port.Mask
						if child.Inst.Slots[port.Slot] != v {
							child.Inst.Slots[port.Slot] = v
							s.mark(child)
							changed = true
						}
					} else {
						v := child.Inst.Slots[port.Slot]
						if n.Inst.Slots[b.ParentSlot] != v {
							n.Inst.Slots[b.ParentSlot] = v
							s.mark(n)
							changed = true
						}
					}
				}
			}
		}
		if !changed {
			s.settled = true
			return nil
		}
	}
	return fmt.Errorf("combinational settle did not converge after %d passes (cross-module loop?)", s.MaxSettle)
}

func (s *Sim) referenceTick(n int, prof vm.Profiler) error {
	for i := 0; i < n; i++ {
		if err := s.referenceSettle(prof); err != nil {
			return fmt.Errorf("cycle %d: %w", s.cycle, err)
		}
		for _, nd := range s.nodes {
			if prof == nil {
				nd.Inst.RunSeq(&s.Stats)
			} else {
				nd.Inst.RunSeqProfiled(&s.Stats, prof)
			}
		}
		for _, nd := range s.nodes {
			if nd.Inst.Commit() {
				s.mark(nd)
			}
			if nd.Inst.FinishReq {
				s.finished = true
			}
		}
		s.settled = false
		s.cycle++
		if s.finished {
			break
		}
	}
	if err := s.referenceSettle(prof); err != nil {
		return fmt.Errorf("cycle %d: %w", s.cycle, err)
	}
	return nil
}
