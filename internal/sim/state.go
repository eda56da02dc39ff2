package sim

import (
	"fmt"

	"livesim/internal/vm"
	"livesim/internal/xform"
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

// CopyTo copies the memory's words into dst, as far as dst reaches, and
// returns the number of words copied.
func (m Mem) CopyTo(dst []uint64) int {
	for i, p := range m {
		if i*PageWords >= len(dst) {
			return len(dst)
		}
		copy(dst[i*PageWords:], p)
	}
	return min(len(dst), m.Len())
}

// SamePage reports whether a and b are one page, shared by two States.
func SamePage(a, b []uint64) bool {
	return len(a) > 0 && len(a) == len(b) && &a[0] == &b[0]
}

// firstDiff returns the first word index below both depths at which
// a[i] != b[i]&mask, or -1 if there is none. A page that a and b share is
// not read: it holds the same words, each already masked to its memory's
// width by whatever wrote it.
func firstDiff(a, b Mem, mask uint64) int {
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
func (st *State) Bytes() int { return st.UnsharedBytes(nil) }

// UnsharedBytes is the size of st less the memory pages it shares with
// prev at the same node, memory and page index; prev may be nil.
func (st *State) UnsharedBytes(prev *State) int {
	n := 0
	for i := range st.Nodes {
		nd := &st.Nodes[i]
		n += 8 * len(nd.Slots)
		for mi, m := range nd.Mems {
			var pm Mem
			if prev != nil && i < len(prev.Nodes) && mi < len(prev.Nodes[i].Mems) {
				pm = prev.Nodes[i].Mems[mi]
			}
			for pi, page := range m {
				if pi >= len(pm) || !SamePage(page, pm[pi]) {
					n += 8 * len(page)
				}
			}
		}
	}
	return n
}

// byPath indexes st's nodes by path.
func (st *State) byPath() map[string]*NodeState {
	m := make(map[string]*NodeState, len(st.Nodes))
	for i := range st.Nodes {
		m[st.Nodes[i].Path] = &st.Nodes[i]
	}
	return m
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
	s.Sync()
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
// Restoring across a code change goes through RestoreAdapted, which
// carries each node by its xform.Plan; this is the fast path for
// same-version checkpoint reloads. Every node is checked before any is
// written, so a refused state leaves the simulation as it was.
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
		if err := shapeErr(n, ns); err != nil {
			return err
		}
	}
	s.load(st, func(i int, n *Node) { copyIn(n.Inst, &st.Nodes[i]) })
	return nil
}

// shapeErr says why ns does not fit n's instance slot for slot and word
// for word, or returns nil.
func shapeErr(n *Node, ns *NodeState) error {
	if len(ns.Slots) != len(n.Inst.Slots) || len(ns.Mems) != len(n.Inst.Mems) {
		return fmt.Errorf("snapshot node %s shape mismatch", ns.Path)
	}
	for mi, m := range ns.Mems {
		if m.Len() != len(n.Inst.Mems[mi]) {
			return fmt.Errorf("snapshot node %s memory %d depth mismatch", ns.Path, mi)
		}
	}
	return nil
}

// copyIn writes ns into inst, whose shape it has.
func copyIn(inst *vm.Instance, ns *NodeState) {
	copy(inst.Slots, ns.Slots)
	for mi, m := range ns.Mems {
		m.CopyTo(inst.Mems[mi])
	}
}

// load is the one end of every restore: put writes node i's state, then
// the node's constants go back in place and a $finish or memory write
// left over from the execution before is dropped (vm.Instance.Reset), and
// the simulation stands at st's cycle with every instance to evaluate.
func (s *Sim) load(st *State, put func(i int, n *Node)) {
	for i, n := range s.nodes {
		put(i, n)
		n.Inst.Reset()
	}
	s.cycle = st.Cycle
	s.finished = st.Finished
	s.settled = false
	s.allDirty = true
	s.stale = false // every slot was written
	s.base = st
}

// RestoreAdapted loads a snapshot that may have been captured under other
// versions of the code, matching nodes by hierarchical path. recorded
// holds the objects the captured nodes' keys named at capture. A node
// captured under its current object is copied as Restore copies it; any
// other is zeroed and then, if its recorded object is known, carried by
// the plan migrate returns for the two objects (nil: xform.Migrator(nil)).
// A node with no captured counterpart powers on at zero. This is the
// cross-version half of checkpoint reloading (Section III-E).
func (s *Sim) RestoreAdapted(st *State, recorded map[string]*vm.Object, migrate MigrateFunc) {
	byPath, plan := st.byPath(), planCache(migrate)
	s.load(st, func(_ int, n *Node) {
		ns := byPath[n.Path]
		var old *vm.Object
		if ns != nil {
			old = recorded[ns.ObjKey]
		}
		if old == n.Obj && shapeErr(n, ns) == nil {
			copyIn(n.Inst, ns)
			return
		}
		n.Inst.ZeroState()
		if old != nil {
			carry(plan(old, n.Obj), n.Inst, ns.Slots, len(ns.Mems), func(i int, dst []uint64) int {
				return ns.Mems[i].CopyTo(dst)
			})
		}
	})
}

// planCache returns migrate (nil: xform.Migrator(nil)) building each plan
// once per pair of objects.
func planCache(migrate MigrateFunc) MigrateFunc {
	if migrate == nil {
		migrate = xform.Migrator(nil)
	}
	plans := make(map[[2]*vm.Object]*xform.Plan)
	return func(oldObj, newObj *vm.Object) *xform.Plan {
		k := [2]*vm.Object{oldObj, newObj}
		p, ok := plans[k]
		if !ok {
			p = migrate(oldObj, newObj)
			plans[k] = p
		}
		return p
	}
}

// carry moves an old instance's state into nu, an instance of p's new
// object: slots is the old slot array, and copyMem copies old memory i,
// for i below nmems, into dst as far as both reach and returns the words
// copied. A source index past slots or nmems is skipped, so a decoded
// checkpoint cannot index out of range.
func carry(p *xform.Plan, nu *vm.Instance, slots []uint64, nmems int, copyMem func(i int, dst []uint64) int) {
	for _, ps := range [][]xform.Pair{p.Regs, p.Ins} {
		for _, r := range ps {
			if int(r.From) < len(slots) {
				nu.Slots[r.To] = slots[r.From] & r.Mask
			}
		}
	}
	for _, c := range p.Inits {
		nu.Slots[c.Slot] = c.Value
	}
	for _, m := range p.Mems {
		if int(m.From) < nmems {
			dst := nu.Mems[m.To]
			for i := range copyMem(int(m.From), dst) {
				dst[i] &= m.Mask
			}
		}
	}
}

// StateEqual compares two simulation states structurally, reporting the
// first differing signal or memory word. Memory pages the two states
// share are skipped, not compared.
func StateEqual(a, b *State) (bool, string) {
	if a.Cycle != b.Cycle {
		return false, fmt.Sprintf("cycle %d vs %d", a.Cycle, b.Cycle)
	}
	if len(a.Nodes) != len(b.Nodes) {
		return false, fmt.Sprintf("instance count %d vs %d", len(a.Nodes), len(b.Nodes))
	}
	for i := range a.Nodes {
		na, nb := &a.Nodes[i], &b.Nodes[i]
		if na.Path != nb.Path {
			return false, fmt.Sprintf("node %d path %q vs %q", i, na.Path, nb.Path)
		}
		if len(na.Slots) != len(nb.Slots) {
			return false, fmt.Sprintf("%s: slot count %d vs %d", na.Path, len(na.Slots), len(nb.Slots))
		}
		for j := range na.Slots {
			if na.Slots[j] != nb.Slots[j] {
				return false, fmt.Sprintf("%s slot %d: %#x vs %#x", na.Path, j, na.Slots[j], nb.Slots[j])
			}
		}
		if len(na.Mems) != len(nb.Mems) {
			return false, fmt.Sprintf("%s: memory count differs", na.Path)
		}
		for mi := range na.Mems {
			ma, mb := na.Mems[mi], nb.Mems[mi]
			if ma.Len() != mb.Len() {
				return false, fmt.Sprintf("%s mem %d: depth %d vs %d", na.Path, mi, ma.Len(), mb.Len())
			}
			if j := firstDiff(ma, mb, ^uint64(0)); j >= 0 {
				return false, fmt.Sprintf("%s mem %d[%d]: %#x vs %#x", na.Path, mi, j, ma.At(j), mb.At(j))
			}
		}
	}
	return true, ""
}

// CarriedEqual checks a replayed state against a recorded one, captured
// under possibly older objects, through each node's plan: plan returns
// the plan from the recorded node's object to the replayed node's, or nil
// to leave the node out. The carried registers and the memories are
// compared, masked to the new widths; a register the plan creates has no
// recorded value and is unconstrained, and a node recorded has no
// counterpart for is new. A page the two states share is skipped
// (firstDiff).
func CarriedEqual(replayed, recorded *State, plan func(rn, rec *NodeState) *xform.Plan) (bool, string) {
	recByPath := recorded.byPath()
	for i := range replayed.Nodes {
		rn := &replayed.Nodes[i]
		rec := recByPath[rn.Path]
		if rec == nil {
			continue
		}
		p := plan(rn, rec)
		if p == nil {
			continue
		}
		for _, r := range p.Regs {
			if int(r.From) >= len(rec.Slots) {
				continue
			}
			if int(r.To) >= len(rn.Slots) {
				return false, fmt.Sprintf("%s: reg %s slot out of range", rn.Path, r.Name)
			}
			if want := rec.Slots[r.From] & r.Mask; rn.Slots[r.To] != want {
				return false, fmt.Sprintf("%s reg %s: replayed %#x, recorded %#x", rn.Path, r.Name, rn.Slots[r.To], want)
			}
		}
		for _, m := range p.Mems {
			if int(m.From) >= len(rec.Mems) || int(m.To) >= len(rn.Mems) {
				continue
			}
			got, want := rn.Mems[m.To], rec.Mems[m.From]
			if j := firstDiff(got, want, m.Mask); j >= 0 {
				return false, fmt.Sprintf("%s mem %s[%d]: replayed %#x, recorded %#x",
					rn.Path, m.Name, j, got.At(j), want.At(j)&m.Mask)
			}
		}
	}
	return true, ""
}

// SetCycle overrides the cycle counter (used by session-level replay).
func (s *Sim) SetCycle(c uint64) { s.cycle = c }

// ---------------------------------------------------------------- reload

// Reload hot-swaps the object behind every instance whose specialization
// key is key: ReloadAll with one Swap.
func (s *Sim) Reload(key string, migrate MigrateFunc) (int, error) {
	return s.ReloadAll(Swap{key, migrate})
}

// Swap names one specialization key for ReloadAll and the MigrateFunc that
// carries the state of its instances (nil uses xform.Migrator(nil): the
// rules of Table V by name).
type Swap struct {
	Key     string
	Migrate MigrateFunc
}

// ReloadAll hot-swaps, for each swap, the object behind every instance
// whose specialization key is swap.Key, and returns how many instances it
// swapped. The resolver must already return the new object for every key.
// Children of swapped instances are reconciled by instance name and key:
// matching subtrees keep their state, new ones power on at zero. The
// schedule is compiled once, after the last swap: an edit that changes a
// child's ports and its parent's binds is consistent only when both are in.
//
// This is the kernel half of the paper's swapStage command: one compiled
// object replaces N instances' code without touching unrelated state.
func (s *Sim) ReloadAll(swaps ...Swap) (int, error) {
	s.Sync() // a plan may carry a transit slot
	count := 0
	for _, sw := range swaps {
		plan := planCache(sw.Migrate)
		newObj, err := s.resolver.Object(sw.Key)
		if err != nil {
			return count, err
		}
		s.place(newObj)
		var walk func(n *Node) error
		walk = func(n *Node) error {
			if n.Obj.Key == sw.Key && n.Obj != newObj {
				if err := s.swapNode(n, newObj, plan(n.Obj, newObj)); err != nil {
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
	}
	s.rebuildIndex()
	s.settled = false
	s.allDirty = true
	s.cReloads.Inc()
	s.cSwappedInsts.Add(uint64(count))
	return count, nil
}

func (s *Sim) swapNode(n *Node, newObj *vm.Object, plan *xform.Plan) error {
	old, newInst := n.Inst, s.newInstance(newObj)
	carry(plan, newInst, old.Slots, len(old.Mems), func(i int, dst []uint64) int {
		return copy(dst, old.Mems[i])
	})

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
