package sim

import (
	"fmt"

	"livesim/internal/vm"
)

// NodeState is the captured state of one instance.
type NodeState struct {
	Path   string
	ObjKey string
	Slots  []uint64
	Mems   [][]uint64
}

// State is a full simulation snapshot — the payload of a checkpoint
// (Section III-E: "a checkpoint consists of the entire state of the
// pipeline object").
type State struct {
	Cycle    uint64
	Finished bool
	Nodes    []NodeState
}

// Bytes returns the approximate in-memory size of the state.
func (st *State) Bytes() int {
	n := 0
	for i := range st.Nodes {
		n += 8 * len(st.Nodes[i].Slots)
		for _, m := range st.Nodes[i].Mems {
			n += 8 * len(m)
		}
	}
	return n
}

// StateBytes estimates the live state footprint (register slots plus
// memories) without snapshotting. Same arithmetic as State.Bytes, read
// off the live instances; callers must hold whatever lock serializes
// execution (the session worker does).
func (s *Sim) StateBytes() int {
	n := 0
	for _, nd := range s.nodes {
		if nd.Inst == nil {
			continue
		}
		n += 8 * len(nd.Inst.Slots)
		for _, m := range nd.Inst.Mems {
			n += 8 * len(m)
		}
	}
	return n
}

// Snapshot captures the entire simulation state. The copy is what the
// paper's forked child would see: a stop-the-world memcpy, cheap relative
// to serialization which callers may do asynchronously.
func (s *Sim) Snapshot() *State {
	st := &State{Cycle: s.cycle, Finished: s.finished}
	st.Nodes = make([]NodeState, len(s.nodes))
	for i, n := range s.nodes {
		ns := NodeState{Path: n.Path, ObjKey: n.Obj.Key}
		ns.Slots = append([]uint64(nil), n.Inst.Slots...)
		ns.Mems = make([][]uint64, len(n.Inst.Mems))
		for mi, m := range n.Inst.Mems {
			ns.Mems[mi] = append([]uint64(nil), m...)
		}
		st.Nodes[i] = ns
	}
	return st
}

// Restore loads a snapshot taken from an identically-shaped hierarchy.
// Restoring across a code change goes through the register-transform
// rules instead (package xform); this is the fast path for same-version
// checkpoint reloads.
func (s *Sim) Restore(st *State) error {
	if len(st.Nodes) != len(s.nodes) {
		return fmt.Errorf("snapshot has %d instances, simulation has %d", len(st.Nodes), len(s.nodes))
	}
	for i, n := range s.nodes {
		ns := &st.Nodes[i]
		if ns.Path != n.Path || ns.ObjKey != n.Obj.Key {
			return fmt.Errorf("snapshot node %d is %s(%s), simulation has %s(%s); use a transformed reload",
				i, ns.Path, ns.ObjKey, n.Path, n.Obj.Key)
		}
		if len(ns.Slots) != len(n.Inst.Slots) || len(ns.Mems) != len(n.Inst.Mems) {
			return fmt.Errorf("snapshot node %s shape mismatch", ns.Path)
		}
		copy(n.Inst.Slots, ns.Slots)
		for mi, m := range ns.Mems {
			if len(m) != len(n.Inst.Mems[mi]) {
				return fmt.Errorf("snapshot node %s memory %d depth mismatch", ns.Path, mi)
			}
			copy(n.Inst.Mems[mi], m)
		}
		n.Inst.Reset() // constants belong to the code, not the state
	}
	s.cycle = st.Cycle
	s.finished = st.Finished
	s.settled = false
	s.allDirty = true
	return nil
}

// RestoreAdapted loads a snapshot that may have been captured under a
// different code version. Nodes are matched by hierarchical path; xfer
// moves (and, if needed, transforms) the captured node state into the
// live instance. Nodes with no captured counterpart are zeroed. This is
// the cross-version half of checkpoint reloading (Section III-E).
func (s *Sim) RestoreAdapted(st *State, xfer func(n *Node, ns *NodeState) error) error {
	byPath := make(map[string]*NodeState, len(st.Nodes))
	for i := range st.Nodes {
		byPath[st.Nodes[i].Path] = &st.Nodes[i]
	}
	for _, n := range s.nodes {
		ns := byPath[n.Path]
		if ns == nil {
			n.Inst.ZeroState()
			continue
		}
		if err := xfer(n, ns); err != nil {
			return fmt.Errorf("restoring %s: %w", n.Path, err)
		}
		n.Inst.Reset()
	}
	s.cycle = st.Cycle
	s.finished = st.Finished
	s.settled = false
	s.allDirty = true
	return nil
}

// SetCycle overrides the cycle counter (used by session-level replay).
func (s *Sim) SetCycle(c uint64) { s.cycle = c }

// ---------------------------------------------------------------- reload

// Reload hot-swaps the object behind every instance whose specialization
// key is key. The resolver must already return the new object for that
// key. migrate transfers state instance by instance (nil uses
// DefaultMigrate). Children of swapped instances are reconciled by
// instance name and key: matching subtrees keep their state, new ones
// power on at zero.
//
// This is the kernel half of the paper's swapStage command: one compiled
// object replaces N instances' code without touching unrelated state.
func (s *Sim) Reload(key string, migrate MigrateFunc) (int, error) {
	if migrate == nil {
		migrate = DefaultMigrate
	}
	newObj, err := s.resolver.Object(key)
	if err != nil {
		return 0, err
	}
	s.place(newObj)
	count := 0
	var walk func(n *Node) error
	walk = func(n *Node) error {
		if n.Obj.Key == key && n.Obj != newObj {
			if err := s.swapNode(n, newObj, migrate); err != nil {
				return err
			}
			count++
		}
		for _, c := range n.Children {
			if err := walk(c); err != nil {
				return err
			}
		}
		return nil
	}
	if err := walk(s.Root); err != nil {
		return count, err
	}
	s.rebuildIndex()
	s.settled = false
	s.allDirty = true
	s.cReloads.Inc()
	s.cSwappedInsts.Add(uint64(count))
	return count, nil
}

func (s *Sim) swapNode(n *Node, newObj *vm.Object, migrate MigrateFunc) error {
	oldObj, oldInst := n.Obj, n.Inst
	newInst := s.newInstance(newObj)
	if err := migrate(oldObj, oldInst, newObj, newInst); err != nil {
		return fmt.Errorf("migrating %s: %w", n.Path, err)
	}

	// Reconcile children by (instance name, object key).
	oldKids := make(map[string]*Node, len(n.Children))
	for _, c := range n.Children {
		oldKids[c.Name] = c
	}
	var kids []*Node
	for _, spec := range newObj.Children {
		if old, ok := oldKids[spec.InstName]; ok && old.Obj.Key == spec.ObjectKey {
			kids = append(kids, old)
			continue
		}
		cn, err := s.build(spec.ObjectKey, spec.InstName, n)
		if err != nil {
			return err
		}
		kids = append(kids, cn)
	}
	n.Obj, n.Inst, n.Children = newObj, newInst, kids
	return nil
}

// DefaultMigrate implements the reload rules of Table V by name matching:
//
//   - register present in both versions: value copied (masked to the new
//     width),
//   - register only in the new version: initialized to zero,
//   - register only in the old version: dropped,
//   - memories: matched by name, copied up to the smaller depth,
//   - input ports: copied by name so externally driven values survive.
func DefaultMigrate(oldObj *vm.Object, old *vm.Instance, newObj *vm.Object, nu *vm.Instance) error {
	for _, r := range newObj.Regs {
		if or := oldObj.RegByName(r.Name); or != nil {
			nu.Slots[r.Cur] = old.Slots[or.Cur] & r.Mask
		}
	}
	for _, m := range newObj.Mems {
		om := oldObj.MemByName(m.Name)
		if om == nil {
			continue
		}
		dst, src := nu.Mems[m.Index], old.Mems[om.Index]
		nwords := len(dst)
		if len(src) < nwords {
			nwords = len(src)
		}
		for i := 0; i < nwords; i++ {
			dst[i] = src[i] & m.Mask
		}
	}
	for _, p := range newObj.Ports {
		if p.Dir != vm.In {
			continue
		}
		if oi := oldObj.PortIndex(p.Name); oi >= 0 && oldObj.Ports[oi].Dir == vm.In {
			nu.Slots[p.Slot] = old.Slots[oldObj.Ports[oi].Slot] & p.Mask
		}
	}
	return nil
}
