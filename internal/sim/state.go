package sim

import (
	"fmt"
	"math/bits"
	"slices"

	"livesim/internal/vm"
	"livesim/internal/xform"
)

// PageWords is the page size of a captured memory, in words: the unit a
// capture shares with the previous one or copies. Chosen with
// BenchmarkSnapshot (`make state`), when a capture still copied every
// slot and every all-zero page: on PGAS 4x4 running the compute
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

// zeroPage is the one all-zero page every State shares: a capture or a
// decode puts it, or a prefix of it for a memory's short last page,
// wherever a page holds nothing but zeros and no earlier page is shared.
var zeroPage = make([]uint64, PageWords)

// ZeroPage returns the shared all-zero page of n words, n at most
// PageWords.
func ZeroPage(n int) []uint64 { return zeroPage[:n:n] }

// isZeroPage reports whether page is the shared all-zero page.
func isZeroPage(page []uint64) bool { return len(page) > 0 && &page[0] == &zeroPage[0] }

// AllZero reports whether page holds nothing but zeros.
func AllZero(page []uint64) bool {
	return isZeroPage(page) || len(page) <= PageWords && equalWords(zeroPage[:len(page)], page)
}

// PagedMem copies words into new pages, all-zero ones shared.
func PagedMem(words []uint64) Mem { return capture(words, nil) }

// capture pages the live words of a memory, sharing each page of prev
// whose words are unchanged and the zero page wherever the words are all
// zero; prev is nil or a Mem of the same length.
func capture(live []uint64, prev Mem) Mem {
	if len(live) == 0 {
		return nil
	}
	m := make(Mem, (len(live)+PageWords-1)/PageWords)
	for i := range m {
		w := live[i*PageWords : min((i+1)*PageWords, len(live))]
		switch {
		case prev != nil && equalWords(prev[i], w):
			m[i] = prev[i]
		case AllZero(w):
			m[i] = ZeroPage(len(w))
		default:
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

// NodeState is the captured state of one instance: the slots Present
// names, their values in Slots in slot order, and every memory. A nil
// Present names every slot, and Slots is then the whole slot array;
// otherwise NumSlots is the instance's slot count. Snapshot captures the
// node's state slots (vm.Object.StateSlots, less the slots its
// hierarchy's binds alone write); whatever else the instance holds, the
// settle that ends a restore derives again. Present is shared by every capture of the
// node and never written.
type NodeState struct {
	Path     string
	ObjKey   string
	NumSlots int
	Present  vm.SlotSet
	Slots    []uint64
	Mems     []Mem
}

// SlotCount is the instance's slot count.
func (ns *NodeState) SlotCount() int {
	if ns.Present == nil {
		return len(ns.Slots)
	}
	return ns.NumSlots
}

// slot returns the captured value of slot x, or false if the state holds
// none.
func (ns *NodeState) slot(x uint32) (uint64, bool) {
	if ns.Present == nil {
		if int(x) < len(ns.Slots) {
			return ns.Slots[x], true
		}
		return 0, false
	}
	if int(x) >= ns.NumSlots || !ns.Present.Has(x) {
		return 0, false
	}
	i := bits.OnesCount64(ns.Present[x/64] & (1<<(x%64) - 1))
	for _, w := range ns.Present[:x/64] {
		i += bits.OnesCount64(w)
	}
	return ns.Slots[i], true
}

// each calls f with every slot the state holds and its value, in slot
// order.
func (ns *NodeState) each(f func(x uint32, v uint64)) {
	if ns.Present == nil {
		for x, v := range ns.Slots {
			f(uint32(x), v)
		}
		return
	}
	i := 0
	for w, word := range ns.Present {
		for ; word != 0; word &= word - 1 {
			f(uint32(w*64+bits.TrailingZeros64(word)), ns.Slots[i])
			i++
		}
	}
}

// layoutErr says why Present, NumSlots and Slots do not describe one
// another, or returns nil.
func (ns *NodeState) layoutErr() error {
	if ns.Present == nil {
		return nil
	}
	n := 0
	for _, w := range ns.Present {
		n += bits.OnesCount64(w)
	}
	switch {
	case len(ns.Present) != (ns.NumSlots+63)/64:
		return fmt.Errorf("snapshot node %s: %d present-slot words for %d slots", ns.Path, len(ns.Present), ns.NumSlots)
	case ns.NumSlots%64 != 0 && ns.Present[len(ns.Present)-1]>>(ns.NumSlots%64) != 0:
		return fmt.Errorf("snapshot node %s names a slot past its %d", ns.Path, ns.NumSlots)
	case n != len(ns.Slots):
		return fmt.Errorf("snapshot node %s: %d slots present, %d values", ns.Path, n, len(ns.Slots))
	}
	return nil
}

// State is a simulation snapshot — the payload of a checkpoint. The paper's
// checkpoint "consists of the entire state of the pipeline object"
// (Section III-E); this one holds what that state is derived from: each
// instance's state slots and memories, the cycle and the $finish flag.
// Its memory pages may be shared with other States; nothing writes a
// State once it is captured or decoded.
type State struct {
	Cycle    uint64
	Finished bool
	Nodes    []NodeState
}

// Bytes returns the logical size of the state: every captured slot and
// every memory word, shared pages included, less the shared zero page.
func (st *State) Bytes() int { return st.UnsharedBytes(nil) }

// UnsharedBytes is the size of st less the memory pages it shares with
// prev at the same node, memory and page index, and less the shared zero
// page; prev may be nil. A slot st does not hold costs nothing.
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
				if !isZeroPage(page) && (pi >= len(pm) || !SamePage(page, pm[pi])) {
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

// StateBytes is the live instances' footprint: every slot and memory
// word they hold, which is more than a capture of them holds. Callers
// must hold whatever lock serializes execution (the session worker
// does).
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

// Snapshot captures the simulation's state — what the paper's forked
// child would see, less what one settle derives again, with the kernel's
// copy-on-write done by comparison. Each node's state slots are copied.
// A memory page is shared with the state last captured or restored (same
// node path, memory index and length) when the live words equal it, with
// the shared zero page when they are all zero, and copied otherwise, so a
// capture reads every memory once and copies only the pages written
// since. Nothing is serialized: a checkpoint is this State until it
// leaves the process.
func (s *Sim) Snapshot() *State {
	st := &State{Cycle: s.cycle, Finished: s.finished, Nodes: make([]NodeState, len(s.nodes))}
	for i, n := range s.nodes {
		ns := &st.Nodes[i]
		ns.Path, ns.ObjKey = n.Path, n.Obj.Key
		if n.state == nil {
			ns.Slots = slices.Clone(n.Inst.Slots)
		} else {
			ns.NumSlots, ns.Present = len(n.Inst.Slots), n.state
			ns.Slots = make([]uint64, 0, n.nstate)
			for w, word := range n.state {
				for ; word != 0; word &= word - 1 {
					ns.Slots = append(ns.Slots, n.Inst.Slots[w*64+bits.TrailingZeros64(word)])
				}
			}
		}
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
// for word, or lacks one of the node's state slots, or returns nil.
func shapeErr(n *Node, ns *NodeState) error {
	if ns.SlotCount() != len(n.Inst.Slots) || len(ns.Mems) != len(n.Inst.Mems) {
		return fmt.Errorf("snapshot node %s shape mismatch", ns.Path)
	}
	if err := ns.layoutErr(); err != nil {
		return err
	}
	if ns.Present != nil {
		want := n.state
		if want == nil {
			want = n.Obj.StateSlots()
		}
		for w, word := range want {
			if miss := word &^ ns.Present[w]; miss != 0 {
				return fmt.Errorf("snapshot node %s holds no slot %d, which is state", ns.Path, w*64+bits.TrailingZeros64(miss))
			}
		}
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
	ns.each(func(x uint32, v uint64) { inst.Slots[x] = v })
	for mi, m := range ns.Mems {
		m.CopyTo(inst.Mems[mi])
	}
}

// load is the one end of every restore: put writes node i's state, then
// the node's constants go back in place and a $finish or memory write
// left over from the execution before is dropped (vm.Instance.Reset), the
// simulation stands at st's cycle, and one settle with every instance to
// evaluate derives every slot the state does not hold. The first Tick
// after a restore finds the simulation settled; if the settle fails, that
// Tick runs it again and reports the error.
func (s *Sim) load(st *State, put func(i int, n *Node)) {
	for i, n := range s.nodes {
		put(i, n)
		n.Inst.Reset()
	}
	s.cycle = st.Cycle
	s.finished = st.Finished
	s.settled = false
	s.allDirty = true
	s.base = st
	if s.settle(nil) != nil {
		s.allDirty = true
	}
}

// PowerOn puts the simulation back in the state New builds: every slot
// and memory word zero but the constants, at cycle 0, with every
// instance to evaluate at the first settle. Unlike a restore it does not
// settle: what a testbench writes at cycle 0 lands before the first
// evaluation, as it does on a fresh simulation.
func (s *Sim) PowerOn() {
	for _, n := range s.nodes {
		n.Inst.ZeroState()
	}
	s.cycle, s.finished, s.base = 0, false, nil
	s.settled, s.allDirty, s.stale = false, true, true
}

// RestoreAdapted loads a snapshot that may have been captured under other
// versions of the code, matching nodes by hierarchical path. recorded
// holds the objects the captured nodes' keys named at capture. A node
// captured under its current object, holding every one of its state
// slots, is copied as Restore copies it; any other is zeroed and then, if
// its recorded object is known, carried by the plan migrate returns for
// the two objects (nil: xform.Migrator(nil)). A node with no captured
// counterpart powers on at zero. This is the cross-version half of
// checkpoint reloading (Section III-E).
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
		if old != nil && ns.layoutErr() == nil {
			carry(plan(old, n.Obj), n.Inst, ns.slot, len(ns.Mems), func(i int, dst []uint64) int {
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
// object: slot returns the old value of a slot, or false if there is
// none, and copyMem copies old memory i, for i below nmems, into dst as
// far as both reach and returns the words copied. A source the old state
// does not hold is skipped, so a decoded checkpoint cannot index out of
// range.
func carry(p *xform.Plan, nu *vm.Instance, slot func(x uint32) (uint64, bool), nmems int, copyMem func(i int, dst []uint64) int) {
	for _, ps := range [][]xform.Pair{p.Regs, p.Ins} {
		for _, r := range ps {
			if v, ok := slot(r.From); ok {
				nu.Slots[r.To] = v & r.Mask
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
// first differing signal or memory word. Slots are compared where both
// states hold them. Memory pages the two states share are skipped, not
// compared.
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
		if na.SlotCount() != nb.SlotCount() {
			return false, fmt.Sprintf("%s: slot count %d vs %d", na.Path, na.SlotCount(), nb.SlotCount())
		}
		if detail := slotsDiffer(na, nb); detail != "" {
			return false, detail
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

// slotsDiffer describes the first slot both nodes hold with different
// values, or returns "".
func slotsDiffer(na, nb *NodeState) string {
	detail := ""
	na.each(func(x uint32, v uint64) {
		if w, ok := nb.slot(x); ok && w != v && detail == "" {
			detail = fmt.Sprintf("%s slot %d: %#x vs %#x", na.Path, x, v, w)
		}
	})
	return detail
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
			v, ok := rec.slot(r.From)
			if !ok {
				continue
			}
			got, ok := rn.slot(r.To)
			if !ok {
				return false, fmt.Sprintf("%s: reg %s slot out of range", rn.Path, r.Name)
			}
			if want := v & r.Mask; got != want {
				return false, fmt.Sprintf("%s reg %s: replayed %#x, recorded %#x", rn.Path, r.Name, got, want)
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
	live := &NodeState{Slots: old.Slots}
	carry(plan, newInst, live.slot, len(old.Mems), func(i int, dst []uint64) int {
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
