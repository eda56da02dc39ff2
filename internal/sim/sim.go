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
// evaluates, a value that lands on a slot wired further is carried on at
// once, a push that changes a slot the receiver's comb code reads marks the
// receiver dirty, and a worklist evaluates the dirty instances, cheapest
// comb program first. When the worklist is empty every instance has
// evaluated on exactly the values its neighbours drive — the unique fixed
// point of acyclic combinational logic; a combinational loop through
// module boundaries has none and is reported as an error.
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

// MigrateFunc transfers architectural state from an instance of the old
// object to an instance of the new one during hot reload. A nil MigrateFunc
// uses xform.Migrator(nil): the rules of Table V by name.
type MigrateFunc func(oldObj *vm.Object, old *vm.Instance, newObj *vm.Object, nu *vm.Instance) error

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
	// compiled binds, sorted by source slot.
	rank int
	push []copyOp
}

// copyOp is one compiled port bind: slot src of the owning node — an
// out-port, or a slot wired to a child's in-port — is copied into dstSlot
// of the parent or child dst.
type copyOp struct {
	dst     *Node
	src     uint32
	dstSlot uint32
	mask    uint64
	// dst.push[fwdLo:fwdHi] are the binds that carry dstSlot onwards: a
	// value crosses a wiring-only level without an evaluation of dst.
	fwdLo, fwdHi int32
	// wake says dst's comb program reads dstSlot, so dst must re-evaluate
	// when the value changes; a port that feeds Seq only is just stored.
	wake bool
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

	// base is the state last captured or loaded: Snapshot shares each of
	// its memory pages whose words the live memory still holds.
	base *State

	// The settle schedule: order is the worklist, bit r of dirty says
	// order[r] saw an input or its own state change since it last
	// evaluated, and no word of dirty below low has a bit set.
	order []*Node
	dirty []uint64
	low   int

	codeBase uint64
	dataBase uint64

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
// sim_settle_passes, sim_reloads, sim_swapped_instances) into reg. A nil
// registry keeps the hot path at its uninstrumented cost.
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
// tables and ranks the nodes for the settle worklist: instances whose comb
// program reads no bound port first — nothing that happens during a settle
// can make them evaluate twice — then cheapest first, so that the
// expensive instances wait until their inputs have stopped moving.
func (s *Sim) compileSchedule() {
	// A counting sort by source slot: start[off[i]+x] and the entry after
	// it delimit, in the push table of node i, the binds that read slot x.
	off := make([]int, len(s.nodes)+1)
	for i, n := range s.nodes {
		off[i+1] = off[i] + int(n.Obj.NumSlots) + 1
	}
	start := make([]int32, off[len(s.nodes)])
	s.eachBind(func(from *Node, op copyOp) { start[off[from.idx]+int(op.src)+1]++ })
	for i, n := range s.nodes {
		seg := start[off[i]:off[i+1]]
		for x := 1; x < len(seg); x++ {
			seg[x] += seg[x-1]
		}
		n.push = append(n.push[:0], make([]copyOp, seg[len(seg)-1])...)
	}
	next := append([]int32(nil), start...)
	woken := make([]bool, len(s.nodes)) // by idx: some bind wakes the node
	s.eachBind(func(from *Node, op copyOp) {
		d := off[op.dst.idx] + int(op.dstSlot)
		op.fwdLo, op.fwdHi = start[d], start[d+1]
		op.wake = op.dst.Obj.CombReads()[op.dstSlot]
		woken[op.dst.idx] = woken[op.dst.idx] || op.wake
		at := &next[off[from.idx]+int(op.src)]
		from.push[*at] = op
		*at++
	})

	s.order = append(s.order[:0], s.nodes...)
	slices.SortStableFunc(s.order, func(a, b *Node) int {
		if woken[a.idx] != woken[b.idx] {
			if woken[b.idx] {
				return -1
			}
			return 1
		}
		return len(a.Obj.Comb) - len(b.Obj.Comb)
	})
	for r, n := range s.order {
		n.rank = r
	}
	s.dirty = make([]uint64, (len(s.order)+63)/64)
	s.low = 0
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
// the slot, and the binds that carry the slot onwards are pushed in turn.
func (s *Sim) push(n *Node, ops []copyOp) {
	src := n.Inst.Slots
	for i := range ops {
		op := &ops[i]
		v := src[op.src] & op.mask
		d := op.dst
		if p := &d.Inst.Slots[op.dstSlot]; *p != v {
			*p = v
			if op.wake {
				s.mark(d)
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

// Nodes returns the instances in pre-order. The slice is owned by the Sim.
func (s *Sim) Nodes() []*Node { return s.nodes }

// Settle runs the combinational fixed point. It must be called after
// changing root inputs if outputs are read before the next Tick.
func (s *Sim) Settle() error { return s.settle(nil) }

// SettleProfiled is Settle with an instruction-stream profiler attached
// — the settle-path counterpart of TickProfiled, so a profiled session
// never has to fall back to the unprofiled fixed point.
func (s *Sim) SettleProfiled(prof vm.Profiler) error { return s.settle(prof) }

// settle runs the compiled schedule until no instance is dirty. The
// invariant is that every bind is pushed after the last change of its
// source slot: an instance pushes all its binds right after it evaluates;
// a slot a neighbour's push wrote is pushed onwards at once and marks its
// instance if comb code reads it; whatever else writes a slot (Commit,
// SetIn, Poke, PokeMem; Restore and Reload dirty everything) marks the
// written instance, which then evaluates and pushes again. Evaluations are
// bounded by MaxSettle per instance, which only a combinational loop
// through module boundaries exceeds.
func (s *Sim) settle(vp vm.Profiler) error {
	if s.settled {
		return nil
	}
	s.cSettleCalls.Inc()
	if s.allDirty {
		for _, n := range s.order {
			s.mark(n)
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
		if plain {
			n.Inst.RunComb(&s.Stats)
		} else {
			s.combInstrumented(n, vp)
		}
		s.push(n, n.push)
		if s.low < w || s.dirty[w]&(bit-1) != 0 {
			scans++
		}
	}
	s.cSettlePasses.Add(scans)
	s.settled = true
	return nil
}

// combInstrumented is RunComb with the activity profiler, the
// instruction-stream profiler, or both attached.
func (s *Sim) combInstrumented(n *Node, vp vm.Profiler) {
	if s.sp == nil {
		n.Inst.RunCombProfiled(&s.Stats, vp)
		return
	}
	t0 := s.sp.SampleStart()
	n.Inst.RunCombProfiled(&s.Stats, vp)
	s.sp.CombDone(n.idx, t0)
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

// clockEdge evaluates every instance's sequential program and commits it;
// an instance whose registers or memories changed is dirty for the next
// settle.
func (s *Sim) clockEdge() {
	for _, nd := range s.nodes {
		nd.Inst.RunSeq(&s.Stats)
	}
	for _, nd := range s.nodes {
		if nd.Inst.Commit() {
			s.mark(nd)
		}
		if nd.Inst.FinishReq {
			s.finished = true
		}
	}
}

// clockEdgeInstrumented is clockEdge with the activity profiler, the
// instruction-stream profiler, or both attached.
func (s *Sim) clockEdgeInstrumented(vp vm.Profiler) {
	sp := s.sp
	for _, nd := range s.nodes {
		if sp == nil {
			nd.Inst.RunSeqProfiled(&s.Stats, vp)
			continue
		}
		t0 := sp.SampleStart()
		nd.Inst.RunSeqProfiled(&s.Stats, vp)
		sp.SeqDone(nd.idx, t0)
	}
	for _, nd := range s.nodes {
		changed := nd.Inst.Commit()
		if changed {
			s.mark(nd)
		}
		if sp != nil {
			sp.Commit(nd.idx, changed)
		}
		if nd.Inst.FinishReq {
			s.finished = true
		}
	}
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
	return s.Root.Inst.Slots[s.Root.Obj.Ports[i].Slot], nil
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
	for _, d := range node.Obj.Debug {
		if d.Name == sig {
			return node.Inst.Slots[d.Slot], nil
		}
	}
	return 0, fmt.Errorf("no signal %q in %s", sig, node.Path)
}

// Poke writes a named register or wire at a hierarchical path.
func (s *Sim) Poke(path string, v uint64) error {
	node, sig, err := s.splitSignalPath(path)
	if err != nil {
		return err
	}
	for _, d := range node.Obj.Debug {
		if d.Name == sig {
			node.Inst.Slots[d.Slot] = v & vm.Mask(d.Bits)
			s.settled = false
			// A neighbour may drive the poked slot: have the neighbours
			// push again, so the poke is overwritten as a driven wire's is.
			s.mark(node)
			if node.parent != nil {
				s.mark(node.parent)
			}
			for _, c := range node.Children {
				s.mark(c)
			}
			return nil
		}
	}
	return fmt.Errorf("no signal %q in %s", sig, node.Path)
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
