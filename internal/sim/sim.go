// Package sim is the LiveSim simulation kernel: it instantiates a
// hierarchy of vm.Objects, evaluates it cycle by cycle, snapshots and
// restores state, and — the paper's headline mechanism — hot-reloads a
// recompiled object underneath a running simulation while migrating the
// architectural state of every affected instance (Section III-D).
//
// The kernel keeps the paper's structure: objects are shared, instances
// hold only state, and module boundaries are preserved at run time (no
// cross-module inlining). Within a module the compiler has already
// levelized; combinational values that cross module boundaries are
// settled by a schedule compiled once per New and per Reload: every port
// bind becomes a copy that its source instance pushes right after it
// evaluates, a push that changes a slot the receiver's comb code reads marks
// the receiver dirty, and a worklist evaluates the dirty instances in order
// of the port-level dependencies between them (compileSchedule), so that
// an instance evaluates once its inputs have settled. When the worklist is
// empty every instance has evaluated on exactly the values its neighbours
// drive — the unique fixed point of acyclic combinational logic, whatever
// the order; a combinational loop through module boundaries has none and
// is reported as an error.
//
// A value crossing wiring-only levels is copied once, from the slot that
// produces it to each slot that consumes it. The bound slots in between —
// transit slots, which no code of their own instance touches — are not
// written while the simulation runs: Peek and Out read one through its
// producer, and Sync, which Nodes, Poke and Reload call first, fills them
// all, so whatever reads slots between calls sees what a copy at every
// level would have left; a capture holds none of them. A consumer slot
// that is also wired further carries the value on at once.
//
// At a clock edge an instance runs Seq and Commit only if that can change
// something: its comb code ran, a push changed a slot its Seq reads, or its
// last Commit changed its state; an instance whose Seq holds $display or
// $finish runs every cycle. A skipped instance's Seq would have computed
// the state it already holds. Once every instance has committed, each one
// whose state changed runs its object's edge program (vm.Object.EdgeFor)
// and pushes the outputs that depend on its state alone, so its neighbours
// find them in place when the settle starts; an instance whose edge
// program is its whole comb code is done for the cycle there. The edge
// program writes only what Comb would write from the same state, and the
// settle then runs only the rest of the comb code (vm.Edge.Rest). An input
// that every instance of its object has tied to a constant counts as state
// in that analysis.
//
// No cycle's work is done twice: a bind remembers the value it last wrote
// and writes its destination only when the value moves, and an instance
// whose edge program has run on its current state and inputs evaluates
// only the rest. Whatever else writes slots — Poke, Restore, Reload — has
// the next settle read every remembered value back and evaluate every
// instance whole; PokeMem, and a push that moves a tied input, have that
// instance evaluate whole.
//
// A capture (Snapshot) holds each instance's state slots — its object's
// StateSlots less the slots its hierarchy's binds drive — and memories,
// and a restore writes them and runs that settle at once, which derives
// every other slot; the first Tick after it finds the simulation settled.
//
// The package owns the slot layout of instance state: other packages hand
// it objects, transform ops and xform plans (Reload, RestoreAdapted,
// StateEqual, CarriedEqual, Signal) and do not index slots or memories
// themselves (TestOneOwnerOfTheSlotLayout).
package sim

import (
	"fmt"
	"io"
	"math/bits"
	"slices"
	"strings"

	"livesim/internal/obs"
	"livesim/internal/prof"
	"livesim/internal/vm"
	"livesim/internal/xform"
)

// Resolver supplies compiled objects by specialization key. The session's
// Object Library Table (Table II of the paper) implements this.
type Resolver interface {
	Object(key string) (*vm.Object, error)
}

// ResolverFunc adapts a function to the Resolver interface.
type ResolverFunc func(key string) (*vm.Object, error)

// Object calls f.
func (f ResolverFunc) Object(key string) (*vm.Object, error) { return f(key) }

// MigrateFunc returns the plan that carries the state of an instance of
// oldObj into an instance of newObj, for a hot reload or a cross-version
// restore; the kernel applies it. A nil MigrateFunc uses
// xform.Migrator(nil): the rules of Table V by name.
type MigrateFunc func(oldObj, newObj *vm.Object) *xform.Plan

// Node is one instance in the hierarchy.
type Node struct {
	Name     string // instance name within the parent
	Path     string // full hierarchical path, "." separated
	Obj      *vm.Object
	Inst     *vm.Instance
	Children []*Node
	parent   *Node

	// idx is the node's position in the pre-order index, maintained by
	// rebuildIndex; the activity profiler keys its per-instance counters
	// on it so the hot path never does a map lookup.
	idx int

	// The node's part of the settle schedule, rebuilt by rebuildIndex:
	// rank is its position in the worklist (Sim.order) and push its
	// compiled binds, sorted by source slot within two groups: first the
	// push[:nEdge] whose source slots the clock edge computes — its object's
	// edge program or its state — then the others.
	rank  int
	push  []copyOp
	nEdge int
	// edge is the object's edge program, with the inputs every instance of
	// the object has tied to a constant counted as state (compileSchedule).
	// When a Commit changes the node's state and atEdge is set, the clock
	// edge runs it and pushes push[:nEdge] once every instance has
	// committed; a node whose edge program is its whole comb code is not
	// marked for the settle.
	edge   *vm.Edge
	atEdge bool
	// full says the node's next settle evaluation runs its whole comb code,
	// not edge.Rest: its edge program may not have run on its current
	// state and inputs. Every node is full after whatever sets allDirty
	// (New, Poke, Restore, RestoreAdapted, Reload), a node is after
	// PokeMem, or a push that changed an input counted as state in edge; a
	// full evaluation clears it unless pinned.
	// pinned says the node's own code writes a slot that a bind or SetIn
	// writes too, which Rest would leave as the other writer left it.
	full, pinned bool

	// state is the set of slots a capture of the node holds: its object's
	// StateSlots, less the slots a bind alone or a fill entry writes, and
	// with those two writers share (stateSets); nil when that is every
	// slot.
	// A State captured from the node shares it, so it is never written
	// once set; nstate is its size.
	state  vm.SlotSet
	nstate int

	// seqDirty says the next clock edge must run the node's Seq and
	// Commit: its comb code ran, a push changed a slot its Seq reads, its
	// last Commit changed its state, or its Seq holds $display or $finish
	// (seqAlways).
	seqDirty, seqAlways bool
}

// copyOp is one compiled port bind, or a chain of binds through transit
// slots: slot src of the owning node is copied into dstSlot of dst, masked
// by every port on the way.
type copyOp struct {
	dst     *Node
	src     uint32
	dstSlot uint32
	mask    uint64
	// last is the value the bind last wrote, which dstSlot holds: nothing
	// else writes it but the writers that set allDirty, and the settle
	// after them reads it back. shared says something else may: another
	// bind, or dst's own code; the push then reads dstSlot instead.
	last uint64
	// dst.push[fwdLo:fwdHi] are the binds that carry dstSlot onwards from
	// a slot that dst's own code uses as well.
	fwdLo, fwdHi int32
	// wake says dst's comb program reads dstSlot, so dst must re-evaluate
	// when the value changes; seqWake says its Seq reads it, so dst's next
	// clock edge must run; full that dst's edge program counts dstSlot as
	// state, so dst must run its whole comb code.
	wake, seqWake, full, shared bool
}

// transit marks a transit slot in compileSchedule's driver counts.
const transit = 3

// hop is one port bind as written, out of the slot that holds its source:
// into slot of dst, masked by mask.
type hop struct {
	dst  *Node
	slot uint32
	mask uint64
}

// fillOp sets transit slot dstSlot of dst to what its chain of binds
// carries from slot srcSlot of src.
type fillOp struct {
	src, dst         *Node
	srcSlot, dstSlot uint32
	mask             uint64
}

// cmpSlot orders slots by node, then by slot: the order of Sim.fill.
func cmpSlot(a *Node, x uint32, b *Node, y uint32) int {
	if a.idx != b.idx {
		return a.idx - b.idx
	}
	return int(x) - int(y)
}

// Sim is a running hierarchical simulation.
type Sim struct {
	Root *Node

	// MaxSettle bounds the cross-module fixed-point; exceeding it means a
	// combinational loop through module boundaries.
	MaxSettle int

	// Stats accumulates executed-op counters across the whole run.
	Stats vm.Stats

	cycle    uint64
	finished bool
	settled  bool
	allDirty bool
	resolver Resolver
	output   io.Writer
	nodes    []*Node // pre-order

	// epoch counts hierarchy builds (New and every Reload): a Signal
	// found at another epoch is looked up again.
	epoch uint64

	// base is the state last captured or loaded: Snapshot shares each of
	// its memory pages whose words the live memory still holds.
	base *State

	// The settle schedule: order is the worklist, bit r of dirty says
	// order[r] saw an input or its own state change since it last
	// evaluated, and no word of dirty below low has a bit set. moved holds
	// the nodes a clock edge's commits changed that have work at the edge.
	order []*Node
	dirty []uint64
	low   int
	moved []*Node

	// fill has one entry per transit slot, sorted by node and slot. The
	// kernel does not write transit slots; stale says one may be behind
	// its producer, and Sync fills them all before slots are read.
	fill  []fillOp
	stale bool
	binds []copyOp // every node's push table, in one array

	copies, fills uint64 // see Counts

	codeBase uint64
	dataBase uint64

	// reorder, when set, permutes the worklist after compileSchedule ranks
	// it; the order-independence test sets it (SetOrder in export_test.go).
	reorder func(order []*Node)

	// sp is the attached activity profiler; nil means off, and every
	// instrumented site below pays exactly one nil check.
	sp *prof.Profiler

	// Cached registry instruments (nil when metrics are disabled; every
	// method on a nil instrument is a no-op, so the hot path below pays
	// exactly one predictable branch per batch update).
	cTicks        *obs.Counter
	cSettleCalls  *obs.Counter
	cSettlePasses *obs.Counter
	cReloads      *obs.Counter
	cSwappedInsts *obs.Counter
}

// Option configures a Sim.
type Option func(*Sim)

// WithOutput directs $display text to w.
func WithOutput(w io.Writer) Option { return func(s *Sim) { s.output = w } }

// WithMetrics reports kernel activity (sim_ticks, sim_settle_calls,
// sim_settle_passes, sim_reloads, sim_swapped_instances) into reg.
// sim_settle_passes counts worklist scans: one per settle, and one more
// each time an evaluation marks an instance ranked before the one that
// evaluated. A nil registry keeps the hot path at its uninstrumented cost.
func WithMetrics(reg *obs.Registry) Option {
	return func(s *Sim) {
		if reg == nil {
			return
		}
		s.cTicks = reg.Counter("sim_ticks")
		s.cSettleCalls = reg.Counter("sim_settle_calls")
		s.cSettlePasses = reg.Counter("sim_settle_passes")
		s.cReloads = reg.Counter("sim_reloads")
		s.cSwappedInsts = reg.Counter("sim_swapped_instances")
	}
}

// New builds the instance hierarchy for topKey.
func New(r Resolver, topKey string, opts ...Option) (*Sim, error) {
	s := &Sim{
		MaxSettle: 64,
		resolver:  r,
		codeBase:  0x10000,
		dataBase:  0x100000000,
	}
	for _, o := range opts {
		o(s)
	}
	root, err := s.build(topKey, "top", nil)
	if err != nil {
		return nil, err
	}
	s.Root = root
	s.rebuildIndex()
	s.allDirty = true
	return s, nil
}

func (s *Sim) build(key, name string, parent *Node) (*Node, error) {
	obj, err := s.resolver.Object(key)
	if err != nil {
		return nil, err
	}
	s.place(obj)
	n := &Node{Name: name, Obj: obj, Inst: s.newInstance(obj), parent: parent}
	if parent != nil {
		n.Path = parent.Path + "." + name
	} else {
		n.Path = name
	}
	for _, c := range obj.Children {
		cn, err := s.build(c.ObjectKey, c.InstName, n)
		if err != nil {
			return nil, err
		}
		n.Children = append(n.Children, cn)
	}
	return n, nil
}

// place gives obj its modeled load address the first time a simulation
// loads it.
func (s *Sim) place(obj *vm.Object) {
	if obj.AssignBase(s.codeBase) {
		s.codeBase += uint64(obj.CodeBytes()+4095) &^ 4095
	}
}

// newInstance creates an instance with modeled data addresses assigned.
func (s *Sim) newInstance(obj *vm.Object) *vm.Instance {
	inst := vm.NewInstance(obj)
	inst.Output = s.output
	inst.DataBase = s.dataBase
	s.dataBase += uint64(obj.NumSlots*8+63) &^ 63
	for i := range inst.Mems {
		inst.MemBases = append(inst.MemBases, s.dataBase)
		s.dataBase += uint64(len(inst.Mems[i])*8+63) &^ 63
	}
	return inst
}

func (s *Sim) rebuildIndex() {
	s.epoch++
	s.nodes = s.nodes[:0]
	var walk func(n *Node)
	walk = func(n *Node) {
		n.idx = len(s.nodes)
		s.nodes = append(s.nodes, n)
		for _, c := range n.Children {
			walk(c)
		}
	}
	walk(s.Root)
	s.compileSchedule()
	if s.sp != nil {
		s.bindProfiler()
	}
}

// compileSchedule turns the hierarchy's port binds into per-node push
// tables and ranks the nodes for the settle worklist by dependency level.
// A bind source's level is 0 if the clock edge computes it (vm.Edge.Deps
// is empty, or the edge program is the whole comb code) and otherwise one
// more than the highest level among the sources that drive the slots it
// depends on; a slot no bind drives, such as a root input, is level 0. A
// node ranks at the lowest level among its sources that some consumer's
// comb code reads and the edge does not compute, and a node without one
// just after the inputs its comb code reads; ties go to the shorter comb
// program. A node then evaluates once its inputs have settled, unless it
// drives outputs of different levels. A combinational loop is cut where
// the walk finds it; the settle reports it.
//
// A transit slot — driven by one bind, carried on by others, and neither
// read nor written by its own instance's code — gets no copy: each bind
// into it is replaced by the binds out of it, so a value goes from the
// slot that produces it straight to the slots that consume it, and the
// transit slot gets a fill entry instead.
func (s *Sim) compileSchedule() {
	// Slot x of node i is slot off[i]+x of the hierarchy. The binds as
	// written, counting-sorted by source slot: raw[start[g]:start[g+1]]
	// read slot g. Only the collapsed tables built from raw are kept.
	off := make([]int, len(s.nodes)+1)
	widest := 0
	for i, n := range s.nodes {
		off[i+1] = off[i] + int(n.Obj.NumSlots)
		widest = max(widest, int(n.Obj.NumSlots))
	}
	start := make([]int32, off[len(s.nodes)]+1)
	// drivers counts the binds into each slot, capped at 2, or is transit.
	drivers := make([]uint8, off[len(s.nodes)])
	s.eachBind(func(from *Node, op copyOp) {
		start[off[from.idx]+int(op.src)+1]++
		if d := &drivers[off[op.dst.idx]+int(op.dstSlot)]; *d < 2 {
			*d++
		}
	})
	var sum int32
	for g, c := range start {
		sum += c
		start[g] = sum
	}
	raw := make([]hop, start[len(start)-1])
	next := append([]int32(nil), start...)
	s.eachBind(func(from *Node, op copyOp) {
		at := &next[off[from.idx]+int(op.src)]
		raw[*at] = hop{op.dst, op.dstSlot, op.mask}
		*at++
	})

	// Mark the transit slots in drivers (one bind drives each, so each is
	// found once) and number them in slot order: transit slot g gets fill
	// entry next[g], which the counting sort no longer needs.
	nFill := 0
	for _, r := range raw {
		g := off[r.dst.idx] + int(r.slot)
		if drivers[g] == 1 && start[g] < start[g+1] && !r.dst.Obj.UsedSlots().Has(r.slot) {
			drivers[g] = transit
			nFill++
		}
	}
	s.fill = slices.Grow(s.fill[:0], nFill)[:nFill]
	clear(s.fill)
	nFill = 0
	for g, d := range drivers {
		if d == transit {
			next[g] = int32(nFill)
			nFill++
		}
	}

	// Every other bind ends one chain, so the collapsed tables fit in
	// len(raw)-nFill entries; they share one array, the last compile's
	// when it is large enough.
	all := s.binds[:0]
	if cap(all) < len(raw)-nFill {
		all = make([]copyOp, 0, len(raw)-nFill)
	}
	var carry func(from *Node, src uint32, r hop)
	carry = func(from *Node, src uint32, r hop) {
		g := off[r.dst.idx] + int(r.slot)
		if drivers[g] != transit {
			all = append(all, copyOp{dst: r.dst, src: src, dstSlot: r.slot, mask: r.mask})
			return
		}
		s.fill[next[g]] = fillOp{src: from, dst: r.dst, srcSlot: src, dstSlot: r.slot, mask: r.mask}
		for _, o := range raw[start[g]:start[g+1]] {
			carry(from, src, hop{o.dst, o.slot, r.mask & o.mask})
		}
	}
	s.tieInputs(off, start, drivers, raw)
	later := make([]int32, 0, widest) // the node's source slots the edge does not compute
	for i, n := range s.nodes {
		lo := len(all)
		later = later[:0]
		for g := off[i]; g < off[i+1]; g++ {
			if drivers[g] == transit || start[g] == start[g+1] {
				continue
			}
			if !n.edge.Computes.Has(uint32(g - off[i])) {
				later = append(later, int32(g))
				continue
			}
			for _, r := range raw[start[g]:start[g+1]] {
				carry(n, uint32(g-off[i]), r)
			}
		}
		n.nEdge = len(all) - lo
		for _, g := range later {
			for _, r := range raw[start[g]:start[g+1]] {
				carry(n, uint32(int(g)-off[i]), r)
			}
		}
		n.push = all[lo:len(all):len(all)]
		n.atEdge = len(n.edge.Code) > 0 || n.nEdge > 0
	}
	s.binds = all
	// A loop of wiring alone has no producer to reach it: its slots keep
	// their values and get no fill entry.
	s.fill = slices.DeleteFunc(s.fill, func(f fillOp) bool { return f.dst == nil })

	// The collapsed tables are sorted by source slot too: reuse start and
	// next to delimit, in the table of node i, the binds that read slot g.
	clear(start)
	clear(next)
	for i, n := range s.nodes {
		for j := len(n.push) - 1; j >= 0; j-- {
			g := off[i] + int(n.push[j].src)
			start[g], next[g] = int32(j), max(next[g], int32(j+1))
		}
	}
	for _, n := range s.nodes {
		n.seqAlways = slices.ContainsFunc(n.Obj.Seq, func(in vm.Instr) bool {
			return in.Op == vm.OpDisplay || in.Op == vm.OpFinish
		})
		n.pinned = false
	}
	for _, p := range s.Root.Obj.Ports {
		if p.Dir == vm.In && s.Root.Obj.Writes().Has(p.Slot) {
			s.Root.pinned = true // SetIn writes it
		}
	}
	for _, n := range s.nodes {
		for i := range n.push {
			op := &n.push[i]
			d := op.dst
			g := off[d.idx] + int(op.dstSlot)
			op.fwdLo, op.fwdHi = start[g], next[g]
			op.wake = d.Obj.CombReads().Has(op.dstSlot)
			op.seqWake = d.Obj.SeqReads().Has(op.dstSlot)
			op.full = op.wake && d.edge.Known != nil && d.edge.Known.Has(op.dstSlot)
			written := d.Obj.Writes().Has(op.dstSlot)
			op.shared = drivers[g] > 1 || written
			d.pinned = d.pinned || written
		}
	}
	s.stateSets()
	s.rank(off, start[:len(start)-1], next[:len(next)-1])
	s.order = append(s.order[:0], s.nodes...)
	slices.SortStableFunc(s.order, func(a, b *Node) int {
		if a.rank != b.rank {
			return a.rank - b.rank
		}
		return len(a.Obj.Comb) - len(b.Obj.Comb)
	})
	if s.reorder != nil {
		s.reorder(s.order)
	}
	for r, n := range s.order {
		n.rank = r
	}
	s.dirty = make([]uint64, (len(s.order)+63)/64)
	s.low = 0
}

// stateSets sets each node's state: its object's StateSlots, less the
// destination of every bind that nothing else writes and every transit
// slot with a fill entry, which the settle after a restore writes again
// from their producers, and with the destination of every shared bind,
// whose value depends on which writer came last. A node keeps sharing its
// object's set until it changes a slot.
func (s *Sim) stateSets() {
	owned := make([]bool, len(s.nodes))
	for _, n := range s.nodes {
		n.state = n.Obj.StateSlots()
	}
	set := func(n *Node, x uint32, in bool) {
		if n.state.Has(x) == in {
			return
		}
		if !owned[n.idx] {
			n.state, owned[n.idx] = slices.Clone(n.state), true
		}
		n.state[x/64] ^= 1 << (x % 64)
	}
	for i := range s.binds {
		op := &s.binds[i]
		set(op.dst, op.dstSlot, op.shared)
	}
	for i := range s.fill {
		set(s.fill[i].dst, s.fill[i].dstSlot, false)
	}
	for _, n := range s.nodes {
		n.nstate = 0
		for _, w := range n.state {
			n.nstate += bits.OnesCount64(w)
		}
		if n.nstate == int(n.Obj.NumSlots) {
			n.state = nil
		}
	}
}

// tieInputs sets each node's edge program (vm.Object.EdgeFor), counting
// as state the input ports that every instance of its object has tied to
// a constant: driven by binds, through transit slots, from a Consts slot
// that no code writes, or from an input port so tied. Such an input holds
// its value from one clock edge to the next; a push that changes one, as
// the settle after a reload or a restore may, has the node evaluate its
// whole comb code. The arguments are compileSchedule's: slot offsets, the
// binds as written by source slot, and the driver counts.
func (s *Sim) tieInputs(off []int, start []int32, drivers []uint8, raw []hop) {
	tied := make([]uint64, (off[len(s.nodes)]+63)/64) // by slot of the hierarchy
	has := func(g int) bool { return tied[g>>6]&(1<<(g&63)) != 0 }
	var tie func(g int)
	tie = func(g int) {
		for _, r := range raw[start[g]:start[g+1]] {
			h := off[r.dst.idx] + int(r.slot)
			switch {
			case drivers[h] == transit:
				tie(h)
			case drivers[h] == 1 && !has(h) && isInput(r.dst.Obj, r.slot):
				tied[h>>6] |= 1 << (h & 63)
				tie(h)
			}
		}
	}
	for i, n := range s.nodes {
		for _, c := range n.Obj.Consts {
			if g := off[i] + int(c.Slot); start[g] < start[g+1] && !n.Obj.Writes().Has(c.Slot) {
				tie(g)
			}
		}
	}
	// The tied inputs of each object are those tied in every instance.
	type object struct {
		tied vm.SlotSet
		edge *vm.Edge
	}
	objs := make(map[*vm.Object]*object)
	of := make([]*object, len(s.nodes))
	for i, n := range s.nodes {
		o := objs[n.Obj]
		first := o == nil
		if first {
			o = &object{tied: make(vm.SlotSet, (n.Obj.NumSlots+63)/64)}
			objs[n.Obj] = o
		}
		of[i] = o
		for _, p := range n.Obj.Ports {
			switch x := p.Slot; {
			case p.Dir != vm.In:
			case first && has(off[i]+int(x)):
				o.tied[x/64] |= 1 << (x % 64)
			case !first && !has(off[i]+int(x)):
				o.tied[x/64] &^= 1 << (x % 64)
			}
		}
	}
	for obj, o := range objs {
		o.edge = obj.EdgeFor(o.tied)
	}
	for i, n := range s.nodes {
		n.edge = of[i].edge
	}
}

// isInput reports whether slot is an input port of o.
func isInput(o *vm.Object, slot uint32) bool {
	return slices.ContainsFunc(o.Ports, func(p vm.Port) bool { return p.Dir == vm.In && p.Slot == slot })
}

// rank sets each node's rank to its dependency level, as compileSchedule
// describes, in one memoised walk over the bound slots. Slot x of node i is
// slot off[i]+x of the hierarchy; drv and lvl, one entry per slot, are
// scratch space.
func (s *Sim) rank(off []int, drv, lvl []int32) {
	// drv[g]-1 is the slot whose push writes slot g; 0 is none. lvl[g]-2
	// is the level of source slot g; 0 is not yet known, 1 being found.
	clear(drv)
	clear(lvl)
	for i, n := range s.nodes {
		for _, op := range n.push {
			drv[off[op.dst.idx]+int(op.dstSlot)] = int32(off[i]+int(op.src)) + 1
		}
	}
	var find func(g int) int32
	level := func(g int) int32 {
		if l := lvl[g]; l > 1 {
			return l - 2
		}
		return find(g)
	}
	find = func(g int) int32 {
		if lvl[g] == 1 {
			return 0 // a combinational loop
		}
		lvl[g] = 1
		var l int32
		if d := drv[g]; d > 0 {
			l = level(int(d - 1)) // a slot that carries a neighbour's value on
		} else {
			i, _ := slices.BinarySearch(off, g+1)
			n, x := s.nodes[i-1], uint32(g-off[i-1])
			if !n.edge.Computes.Has(x) {
				for _, y := range n.edge.Deps(x) {
					if d := drv[off[i-1]+int(y)]; d > 0 {
						l = max(l, 1+level(int(d-1)))
					} else {
						l = max(l, 1)
					}
				}
			}
		}
		lvl[g] = l + 2
		return l
	}
	var read func(op *copyOp) bool // some consumer's comb code reads op's value
	read = func(op *copyOp) bool {
		for j := op.fwdLo; j < op.fwdHi; j++ {
			if fwd := &op.dst.push[j]; fwd.wake || read(fwd) {
				return true
			}
		}
		return false
	}
	for i, n := range s.nodes {
		n.rank = -1
		for j := n.nEdge; j < len(n.push); j++ {
			op := &n.push[j]
			if g := off[i] + int(op.src); drv[g] == 0 && (op.wake || read(op)) {
				if l := int(level(g)); n.rank < 0 || l < n.rank {
					n.rank = l
				}
			}
		}
	}
	// A node that drives no such output ranks just after the inputs its
	// comb code reads: until the end, its rank is -1-m for m the highest
	// level among them plus one.
	for i, n := range s.nodes {
		for j := range n.push {
			op := &n.push[j]
			if !op.wake || op.dst.rank >= 0 {
				continue
			}
			l := 0
			if j >= n.nEdge {
				l = int(level(off[i] + int(op.src)))
			}
			op.dst.rank = min(op.dst.rank, -2-l)
		}
	}
	for _, n := range s.nodes {
		if n.rank < 0 {
			n.rank = -1 - n.rank
		}
	}
}

// eachBind calls f for every port bind of the hierarchy, as the copy it
// compiles to and with the node whose slot the copy reads.
func (s *Sim) eachBind(f func(from *Node, op copyOp)) {
	for _, n := range s.nodes {
		for ci, spec := range n.Obj.Children {
			child := n.Children[ci]
			for _, b := range spec.Binds {
				port := &child.Obj.Ports[b.ChildPort]
				if port.Dir == vm.In {
					f(n, copyOp{dst: child, src: b.ParentSlot, dstSlot: port.Slot, mask: port.Mask})
				} else {
					f(child, copyOp{dst: n, src: port.Slot, dstSlot: b.ParentSlot, mask: ^uint64(0)})
				}
			}
		}
	}
}

// mark schedules n for combinational re-evaluation.
func (s *Sim) mark(n *Node) {
	w := n.rank >> 6
	s.dirty[w] |= 1 << (n.rank & 63)
	if w < s.low {
		s.low = w
	}
}

// push copies the source slots of ops, binds of n, to their destinations.
// A destination whose value changed is marked if its comb program reads
// the slot and due for a clock edge if its Seq does, and the binds that
// carry the slot onwards are pushed in turn. A bind compares the value
// with the one it last wrote, and writes the destination only when that
// moved.
func (s *Sim) push(n *Node, ops []copyOp) {
	s.copies += uint64(len(ops))
	src := n.Inst.Slots
	for i := range ops {
		op := &ops[i]
		v := src[op.src] & op.mask
		d := op.dst
		if op.shared {
			op.last = d.Inst.Slots[op.dstSlot]
		}
		if v != op.last {
			op.last = v
			d.Inst.Slots[op.dstSlot] = v
			if op.wake {
				s.mark(d)
				if op.full {
					d.full = true
				}
			}
			if op.seqWake {
				d.seqDirty = true
			}
			if op.fwdLo < op.fwdHi {
				s.push(d, d.push[op.fwdLo:op.fwdHi])
			}
		}
	}
}

// SetProfiler attaches (or, with nil, detaches) the activity profiler.
// The profiler is rebound automatically when a hot reload restructures
// the hierarchy, carrying per-instance statistics across the swap. Must
// not be called concurrently with Tick/Settle — the session worker
// serializes both.
func (s *Sim) SetProfiler(p *prof.Profiler) {
	s.sp = p
	if p != nil {
		s.bindProfiler()
	}
}

// Profiler returns the attached activity profiler (nil when off).
func (s *Sim) Profiler() *prof.Profiler { return s.sp }

// bindProfiler hands the profiler the current pre-order topology.
func (s *Sim) bindProfiler() {
	metas := make([]prof.InstMeta, len(s.nodes))
	for i, n := range s.nodes {
		m := prof.InstMeta{Path: n.Path, Key: n.Obj.Key, Parent: -1}
		if n.parent != nil {
			m.Parent = n.parent.idx
			m.Depth = metas[n.parent.idx].Depth + 1
		}
		metas[i] = m
	}
	s.sp.Bind(metas, s.cycle)
}

// Cycle returns the current simulation cycle.
func (s *Sim) Cycle() uint64 { return s.cycle }

// Finished reports whether any instance executed $finish.
func (s *Sim) Finished() bool { return s.finished }

// NumInstances returns the number of instances in the hierarchy.
func (s *Sim) NumInstances() int { return len(s.nodes) }

// Nodes returns the instances in pre-order, after Sync. The slice is owned
// by the Sim.
func (s *Sim) Nodes() []*Node {
	s.Sync()
	return s.nodes
}

// Sync brings every slot current: a slot that only carries a value across
// a wiring level, which the kernel does not write while it runs, is set to
// what its producer drives. A reader that keeps nodes across Ticks, as a
// tracer does, calls it before reading their slots.
func (s *Sim) Sync() {
	if !s.stale {
		return
	}
	for i := range s.fill {
		f := &s.fill[i]
		f.dst.Inst.Slots[f.dstSlot] = f.src.Inst.Slots[f.srcSlot] & f.mask
	}
	s.fills += uint64(len(s.fill))
	s.stale = false
}

// read returns slot x of n as Nodes would show it, without filling the
// other transit slots.
func (s *Sim) read(n *Node, x uint32) uint64 {
	if s.stale {
		if i, ok := slices.BinarySearchFunc(s.fill, n, func(f fillOp, n *Node) int {
			return cmpSlot(f.dst, f.dstSlot, n, x)
		}); ok {
			f := &s.fill[i]
			return f.src.Inst.Slots[f.srcSlot] & f.mask
		}
	}
	return n.Inst.Slots[x]
}

// Counts is the slot traffic of the kernel besides VM instructions, since
// New: Copies counts the bind copies pushed, producer slot to consumer
// slot; Fills the transit slots Sync wrote.
type Counts struct {
	Copies, Fills uint64
}

// Counts returns the kernel's counts.
func (s *Sim) Counts() Counts { return Counts{Copies: s.copies, Fills: s.fills} }

// Settle runs the combinational fixed point. It must be called after
// changing root inputs if outputs are read before the next Tick.
func (s *Sim) Settle() error { return s.settle(nil) }

// settle runs the compiled schedule until no instance is dirty. The
// invariant is that every bind is pushed after the last change of its
// source slot: an instance pushes all its binds right after it evaluates,
// or after Rest those the clock edge does not compute, which Rest leaves;
// a slot a neighbour's push wrote is pushed onwards at once and marks its
// instance if comb code reads it; whatever else writes a slot (Commit,
// SetIn, PokeMem; Poke, Restore and Reload dirty everything) marks the
// written instance, which then evaluates and pushes again — except that a
// Commit of an instance whose edge program is its whole comb code runs it
// and pushes at the clock edge instead. An evaluation runs the whole comb
// code when the node is full, and the rest after its edge program
// otherwise. Evaluations are bounded by MaxSettle per instance, which only
// a combinational loop through module boundaries exceeds.
func (s *Sim) settle(vp vm.Profiler) error {
	if s.settled {
		return nil
	}
	s.cSettleCalls.Inc()
	s.stale = true
	if s.allDirty {
		for _, n := range s.order {
			s.mark(n)
			n.full = true
		}
		for i := range s.binds {
			op := &s.binds[i]
			op.last = op.dst.Inst.Slots[op.dstSlot]
		}
		s.allDirty = false
	}
	plain := s.sp == nil && vp == nil
	budget := s.MaxSettle * len(s.order)
	scans := uint64(1) // times the worklist started moving up the ranks
	for s.low < len(s.dirty) {
		w := s.low
		word := s.dirty[w]
		if word == 0 {
			s.low++
			continue
		}
		if budget--; budget < 0 {
			return fmt.Errorf("combinational settle did not converge after %d evaluations per instance (cross-module loop?)", s.MaxSettle)
		}
		bit := word & -word
		s.dirty[w] = word &^ bit
		n := s.order[w<<6|bits.TrailingZeros64(word)]
		// Rest leaves the sources the clock edge computes as they were
		// when last pushed.
		ops := n.push[n.nEdge:]
		if n.full {
			ops = n.push
		}
		switch {
		case !plain:
			s.combInstrumented(n, vp)
		case n.full:
			n.Inst.RunComb(&s.Stats)
			n.full = n.pinned
		default:
			n.Inst.RunRest(n.edge, &s.Stats)
		}
		n.seqDirty = true
		s.push(n, ops)
		if s.low < w || s.dirty[w]&(bit-1) != 0 {
			scans++
		}
	}
	s.cSettlePasses.Add(scans)
	s.settled = true
	return nil
}

// combInstrumented is the settle's evaluation of n, its whole comb code or
// the rest of it, with the activity profiler, the instruction-stream
// profiler, or both attached.
func (s *Sim) combInstrumented(n *Node, vp vm.Profiler) {
	var t0 int64
	if s.sp != nil {
		t0 = s.sp.SampleStart()
	}
	if n.full {
		n.Inst.RunCombProfiled(&s.Stats, vp)
		n.full = n.pinned
	} else {
		n.Inst.RunRestProfiled(n.edge, &s.Stats, vp)
	}
	if s.sp != nil {
		s.sp.CombDone(n.idx, t0)
	}
}

// Tick advances the simulation n cycles.
func (s *Sim) Tick(n int) error { return s.tick(n, nil) }

// TickProfiled advances n cycles feeding the profiler (host cache model).
func (s *Sim) TickProfiled(n int, prof vm.Profiler) error { return s.tick(n, prof) }

func (s *Sim) tick(n int, vp vm.Profiler) error {
	start := s.cycle
	plain := s.sp == nil && vp == nil
	var err error
	for i := 0; i < n; i++ {
		if err = s.settle(vp); err != nil {
			break
		}
		if plain {
			s.clockEdge()
		} else {
			s.clockEdgeInstrumented(vp)
		}
		s.settled = false
		s.cycle++
		if s.finished {
			break
		}
	}
	s.cTicks.Add(s.cycle - start)
	if err == nil {
		// Leave the simulation settled so ports and probes reflect the
		// state after the final clock edge.
		err = s.settle(vp)
	}
	if err != nil {
		return fmt.Errorf("cycle %d: %w", s.cycle, err)
	}
	return nil
}

// clockEdge runs Seq and Commit on every instance that is due for it; an
// instance whose registers or memories changed is dirty for the next
// settle and due at the next edge. RunSeq reads and writes only its own
// instance, so each instance can commit right after its own Seq. Then the
// edge pass runs, once every Seq has read its inputs.
func (s *Sim) clockEdge() {
	for _, nd := range s.nodes {
		if nd.seqDirty {
			nd.Inst.RunSeq(&s.Stats)
			s.commit(nd)
		}
	}
	s.edgePass(nil)
}

// commit completes nd's clock edge after its Seq ran and reports whether
// its state changed.
func (s *Sim) commit(nd *Node) bool {
	changed := nd.Inst.Commit()
	if changed {
		if !nd.edge.Whole {
			s.mark(nd)
		}
		if nd.atEdge {
			s.moved = append(s.moved, nd)
		}
	}
	nd.seqDirty = changed || nd.seqAlways
	if nd.Inst.FinishReq {
		s.finished = true
	}
	return changed
}

// edgePass runs the edge program of each node whose state the clock edge
// changed and pushes the binds of the slots the edge computes, so that
// the settle finds the outputs that depend on state alone already in
// place. It must follow every commit: a push before a neighbour's Seq
// would change what that Seq reads.
func (s *Sim) edgePass(vp vm.Profiler) {
	sp := s.sp
	for _, nd := range s.moved {
		switch {
		case len(nd.edge.Code) == 0:
		case sp == nil && vp == nil:
			nd.Inst.RunEdge(nd.edge, &s.Stats)
		case sp == nil:
			nd.Inst.RunEdgeProfiled(nd.edge, &s.Stats, vp)
		default:
			t0 := sp.SampleStart()
			nd.Inst.RunEdgeProfiled(nd.edge, &s.Stats, vp)
			sp.EdgeDone(nd.idx, nd.edge.Whole, t0)
		}
		s.push(nd, nd.push[:nd.nEdge])
	}
	s.moved = s.moved[:0]
}

// clockEdgeInstrumented is clockEdge with the activity profiler, the
// instruction-stream profiler, or both attached. A skipped instance is
// reported as a commit that changed nothing, with no Seq evaluation.
func (s *Sim) clockEdgeInstrumented(vp vm.Profiler) {
	sp := s.sp
	for _, nd := range s.nodes {
		changed := false
		if nd.seqDirty {
			if sp == nil {
				nd.Inst.RunSeqProfiled(&s.Stats, vp)
			} else {
				t0 := sp.SampleStart()
				nd.Inst.RunSeqProfiled(&s.Stats, vp)
				sp.SeqDone(nd.idx, t0)
			}
			changed = s.commit(nd)
		}
		if sp != nil {
			sp.Commit(nd.idx, changed)
		}
	}
	s.edgePass(vp)
	if sp != nil {
		sp.EndCycle(s.cycle)
	}
}

// ---------------------------------------------------------------- access

// SetIn drives a root input port.
func (s *Sim) SetIn(port string, v uint64) error {
	i := s.Root.Obj.PortIndex(port)
	if i < 0 || s.Root.Obj.Ports[i].Dir != vm.In {
		return fmt.Errorf("no input port %q on %s", port, s.Root.Obj.Key)
	}
	p := s.Root.Obj.Ports[i]
	if s.Root.Inst.Slots[p.Slot] != v&p.Mask {
		s.Root.Inst.Slots[p.Slot] = v & p.Mask
		s.settled = false
		s.mark(s.Root)
	}
	return nil
}

// Out reads a root output port (after Settle or Tick).
func (s *Sim) Out(port string) (uint64, error) {
	i := s.Root.Obj.PortIndex(port)
	if i < 0 {
		return 0, fmt.Errorf("no port %q on %s", port, s.Root.Obj.Key)
	}
	return s.read(s.Root, s.Root.Obj.Ports[i].Slot), nil
}

// FindNode resolves a hierarchical instance path relative to the root,
// e.g. "top.core0.ex". "top" alone returns the root.
func (s *Sim) FindNode(path string) (*Node, error) {
	parts := strings.Split(path, ".")
	if len(parts) == 0 || parts[0] != s.Root.Name {
		return nil, fmt.Errorf("path %q must start with %q", path, s.Root.Name)
	}
	n := s.Root
outer:
	for _, p := range parts[1:] {
		for _, c := range n.Children {
			if c.Name == p {
				n = c
				continue outer
			}
		}
		return nil, fmt.Errorf("no instance %q under %q", p, n.Path)
	}
	return n, nil
}

// Peek reads a named signal at a hierarchical path "inst.path.signal".
func (s *Sim) Peek(path string) (uint64, error) {
	node, sig, err := s.splitSignalPath(path)
	if err != nil {
		return 0, err
	}
	if d := debugSym(node, sig); d != nil {
		return s.read(node, d.Slot), nil
	}
	return 0, fmt.Errorf("no signal %q in %s", sig, node.Path)
}

// debugSym returns n's named signal, or nil.
func debugSym(n *Node, name string) *vm.SlotDebug {
	for i := range n.Obj.Debug {
		if n.Obj.Debug[i].Name == name {
			return &n.Obj.Debug[i]
		}
	}
	return nil
}

// Signal is a named signal of one instance, held by instance path and
// signal name: Read finds it again after a Reload, which may have moved it
// to another slot or removed it.
type Signal struct {
	Path, Name string

	node  *Node
	slot  uint32
	found bool
	epoch uint64 // s.epoch when found; the zero value is never current
}

// Read returns the signal's value as Peek would, or false if the current
// hierarchy has no such signal. Only the first Read after New or a Reload
// looks the signal up; a reader of many signals calls Sync first.
func (s *Sim) Read(sig *Signal) (uint64, bool) {
	if sig.epoch != s.epoch {
		sig.epoch, sig.found = s.epoch, false
		if n, err := s.FindNode(sig.Path); err == nil {
			if d := debugSym(n, sig.Name); d != nil {
				sig.node, sig.slot, sig.found = n, d.Slot, true
			}
		}
	}
	if !sig.found {
		return 0, false
	}
	return s.read(sig.node, sig.slot), true
}

// Poke writes a named register or wire at a hierarchical path. A poke of
// a wire or port its instance drives lasts until the next settle drives it
// again. Codegen points a wire or port that only copies a register, an
// input port or a constant at that slot (tidy's aliasing); the next settle
// would drive it back as well, and writing the slot would change the
// register, input or constant instead, so such a poke writes nothing.
func (s *Sim) Poke(path string, v uint64) error {
	node, sig, err := s.splitSignalPath(path)
	if err != nil {
		return err
	}
	d := debugSym(node, sig)
	if d == nil {
		return fmt.Errorf("no signal %q in %s", sig, node.Path)
	}
	if aliased(node.Obj, d) {
		return nil
	}
	s.Sync()
	node.Inst.Slots[d.Slot] = v & vm.Mask(d.Bits)
	s.settled = false
	// The poked slot's driver may sit any number of wiring levels away,
	// where the schedule copies straight from producer to consumer: have
	// every instance evaluate and push again, so the poke is overwritten
	// as a driven wire's is. Poke is off the hot path.
	s.allDirty = true
	return nil
}

// aliased reports whether d names a slot that holds another signal's
// state: a register's current or next value, an input port or a constant.
func aliased(o *vm.Object, d *vm.SlotDebug) bool {
	for _, r := range o.Regs {
		if r.Cur == d.Slot || r.Next == d.Slot {
			return r.Name != d.Name
		}
	}
	for _, p := range o.Ports {
		if p.Dir == vm.In && p.Slot == d.Slot {
			return p.Name != d.Name
		}
	}
	return slices.ContainsFunc(o.Consts, func(c vm.ConstInit) bool { return c.Slot == d.Slot })
}

// PeekMem reads one memory word.
func (s *Sim) PeekMem(path string, addr uint64) (uint64, error) {
	node, name, err := s.splitSignalPath(path)
	if err != nil {
		return 0, err
	}
	m := node.Obj.MemByName(name)
	if m == nil {
		return 0, fmt.Errorf("no memory %q in %s", name, node.Path)
	}
	if addr >= uint64(m.Depth) {
		return 0, fmt.Errorf("address %d out of range for %s (depth %d)", addr, path, m.Depth)
	}
	return node.Inst.Mems[m.Index][addr], nil
}

// PokeMem writes one memory word (used by testbenches to load programs).
func (s *Sim) PokeMem(path string, addr, v uint64) error {
	node, name, err := s.splitSignalPath(path)
	if err != nil {
		return err
	}
	m := node.Obj.MemByName(name)
	if m == nil {
		return fmt.Errorf("no memory %q in %s", name, node.Path)
	}
	if addr >= uint64(m.Depth) {
		return fmt.Errorf("address %d out of range for %s (depth %d)", addr, path, m.Depth)
	}
	node.Inst.Mems[m.Index][addr] = v & m.Mask
	s.settled = false
	s.mark(node)
	node.full = true
	return nil
}

func (s *Sim) splitSignalPath(path string) (*Node, string, error) {
	i := strings.LastIndex(path, ".")
	if i < 0 {
		return nil, "", fmt.Errorf("signal path %q must be instance.signal", path)
	}
	node, err := s.FindNode(path[:i])
	if err != nil {
		return nil, "", err
	}
	return node, path[i+1:], nil
}
