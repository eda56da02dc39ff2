package sim

import (
	"fmt"

	"livesim/internal/vm"
)

// PageWords is the page size of a captured memory, in words: the unit a
// capture shares with the previous one or copies. Chosen with
// BenchmarkSnapshot (`make state`): on PGAS 4x4 running the compute
// kernel, each node writes its 32-word register file and one local-store
// page per 1 000 cycles at any of the sizes tried (32 of 272 pages at 256
// words), and a capture allocates 147 KB at 64 words, 149 KB at 256 and
// 179 KB at 512, against 634 KB for a full copy, in the same time at all
// three. 64 words saves in copied pages what it spends on page tables,
// with four times the pages to allocate on a full copy and for the
// collector to trace, so 256.
const PageWords = 256

// Mem is one memory of a captured state: its words in pages of PageWords,
// the last one possibly shorter; a memory of no words has no pages. A
// page placed in a State is never written again, so States share pages —
// Snapshot keeps the previous capture's page wherever the live memory
// still holds its words — and each page is its own allocation, freed with
// the last State that holds it.
type Mem [][]uint64

// PagedMem copies words into new pages.
func PagedMem(words []uint64) Mem { return capture(words, nil) }

// capture pages the live words of a memory, sharing each page of prev
// whose words are unchanged; prev is nil or a Mem of the same length.
func capture(live []uint64, prev Mem) Mem {
	if len(live) == 0 {
		return nil
	}
	m := make(Mem, (len(live)+PageWords-1)/PageWords)
	for i := range m {
		w := live[i*PageWords : min((i+1)*PageWords, len(live))]
		if prev != nil && equalWords(prev[i], w) {
			m[i] = prev[i]
		} else {
			m[i] = append([]uint64(nil), w...)
		}
	}
	return m
}

// equalWords reports whether a and b hold the same words. Four words per
// branch: a capture compares every memory word, and this halves the time
// slices.Equal takes.
func equalWords(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	i := 0
	for ; i+4 <= len(a); i += 4 {
		x, y := a[i:i+4:i+4], b[i:i+4:i+4]
		if (x[0]^y[0])|(x[1]^y[1])|(x[2]^y[2])|(x[3]^y[3]) != 0 {
			return false
		}
	}
	for ; i < len(a); i++ {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Len is the memory's depth in words.
func (m Mem) Len() int {
	if len(m) == 0 {
		return 0
	}
	return (len(m)-1)*PageWords + len(m[len(m)-1])
}

// At returns word i.
func (m Mem) At(i int) uint64 { return m[i/PageWords][i%PageWords] }

// CopyTo copies the memory's words into dst, as far as dst reaches.
func (m Mem) CopyTo(dst []uint64) {
	for i, p := range m {
		if i*PageWords >= len(dst) {
			return
		}
		copy(dst[i*PageWords:], p)
	}
}

// SamePage reports whether a and b are one page, shared by two States.
func SamePage(a, b []uint64) bool {
	return len(a) > 0 && len(a) == len(b) && &a[0] == &b[0]
}

// FirstDiff returns the first word index below both depths at which
// a[i] != b[i]&mask, or -1 if there is none. A page that a and b share is
// not read: it holds the same words, each already masked to its memory's
// width by whatever wrote it.
func FirstDiff(a, b Mem, mask uint64) int {
	for i := 0; i < len(a) && i < len(b); i++ {
		pa, pb := a[i], b[i]
		if SamePage(pa, pb) {
			continue
		}
		for j := 0; j < len(pa) && j < len(pb); j++ {
			if pa[j] != pb[j]&mask {
				return i*PageWords + j
			}
		}
	}
	return -1
}

// NodeState is the captured state of one instance.
type NodeState struct {
	Path   string
	ObjKey string
	Slots  []uint64
	Mems   []Mem
}

// State is a full simulation snapshot — the payload of a checkpoint
// (Section III-E: "a checkpoint consists of the entire state of the
// pipeline object"). Its memory pages may be shared with other States;
// nothing writes a State once it is captured or decoded.
type State struct {
	Cycle    uint64
	Finished bool
	Nodes    []NodeState
}

// Bytes returns the logical size of the state: every slot and memory
// word, shared pages included.
func (st *State) Bytes() int {
	n := 0
	for i := range st.Nodes {
		n += 8 * len(st.Nodes[i].Slots)
		for _, m := range st.Nodes[i].Mems {
			n += 8 * m.Len()
		}
	}
	return n
}

// node returns node i of st if it has path, else nil; st may be nil.
func (st *State) node(i int, path string) *NodeState {
	if st == nil || i >= len(st.Nodes) || st.Nodes[i].Path != path {
		return nil
	}
	return &st.Nodes[i]
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

// Snapshot captures the entire simulation state — what the paper's forked
// child would see, with the kernel's copy-on-write done by comparison.
// The slot arrays are copied. A memory page is shared with the state last
// captured or restored (same node path, memory index and length) when the
// live words equal it, and copied otherwise, so a capture reads every
// memory once and copies only the pages written since. Nothing is
// serialized: a checkpoint is this State until it leaves the process.
func (s *Sim) Snapshot() *State {
	st := &State{Cycle: s.cycle, Finished: s.finished, Nodes: make([]NodeState, len(s.nodes))}
	for i, n := range s.nodes {
		ns := &st.Nodes[i]
		ns.Path, ns.ObjKey = n.Path, n.Obj.Key
		ns.Slots = append([]uint64(nil), n.Inst.Slots...)
		prev := s.base.node(i, n.Path)
		ns.Mems = make([]Mem, len(n.Inst.Mems))
		for mi, m := range n.Inst.Mems {
			var old Mem
			if prev != nil && mi < len(prev.Mems) && prev.Mems[mi].Len() == len(m) {
				old = prev.Mems[mi]
			}
			ns.Mems[mi] = capture(m, old)
		}
	}
	s.base = st
	return st
}

// Restore loads a snapshot taken from an identically-shaped hierarchy.
// Restoring across a code change goes through the register-transform
// rules instead (package xform); this is the fast path for same-version
// checkpoint reloads. Every node is checked before any is written, so a
// refused state leaves the simulation as it was.
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
		for mi, m := range ns.Mems {
			if m.Len() != len(n.Inst.Mems[mi]) {
				return fmt.Errorf("snapshot node %s memory %d depth mismatch", ns.Path, mi)
			}
		}
	}
	for i, n := range s.nodes {
		ns := &st.Nodes[i]
		copy(n.Inst.Slots, ns.Slots)
		for mi, m := range ns.Mems {
			m.CopyTo(n.Inst.Mems[mi])
		}
		n.Inst.Reset() // constants belong to the code, not the state
	}
	s.cycle = st.Cycle
	s.finished = st.Finished
	s.settled = false
	s.allDirty = true
	s.base = st
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
	s.base = st
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
