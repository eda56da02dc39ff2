// Package codegen lowers elaborated LiveHDL modules to vm.Objects — the
// bytecode equivalents of the per-module shared libraries the paper's
// LiveCompiler produces.
//
// Two code generation styles are supported, matching the comparison in
// Section V-A of the paper:
//
//   - StyleGrouped (LiveSim): conditional constructs that share a condition
//     are lowered to if/else branch regions. This trades extra branches for
//     fewer data accesses — the paper reports a higher BR MPKI but a more
//     slowly growing D$ MPKI for LiveSim.
//   - StyleMux (Verilator-like): all conditionals become branch-free mux
//     chains, the shape Verilator's generated C++ takes after inlining.
//
// The compiler performs constant folding and value-numbering CSE during
// emission (scoped so values computed under a condition never leak), full
// combinational levelization with cycle reporting, and latch detection for
// always @(*) blocks. There is one lowering and one code form: a construct
// becomes the op that means it (a replication is one op, not a shift-or
// chain), and tidy, the one pass over the finished code, removes the copies
// between a fresh temporary and the named signal next to it.
package codegen

import (
	"fmt"
	"sort"

	"livesim/internal/hdl/ast"
	"livesim/internal/hdl/elab"
	"livesim/internal/vm"
)

// Style selects the lowering strategy for conditionals.
type Style uint8

// Codegen styles.
const (
	// StyleGrouped lowers conditionals to if/else branch regions (LiveSim).
	StyleGrouped Style = iota
	// StyleMux lowers conditionals to branch-free muxes (Verilator-like).
	StyleMux
)

func (s Style) String() string {
	if s == StyleGrouped {
		return "grouped"
	}
	return "mux"
}

// Options configures compilation.
type Options struct {
	Style Style
	// SrcPath is recorded on the object as its code-path (Table II).
	SrcPath string
}

// Version names the code generator's output for a given input. Whoever
// keeps compiled objects beyond the process (livecompiler's object
// directory) keys them on it; bump it with every change to what Compile
// emits, so an object written by an older binary is recompiled, not served.
const Version = 2

// Compile lowers one elaborated module specialization to an object.
func Compile(m *elab.Module, opts Options) (*vm.Object, error) {
	obj, err := lower(m, opts)
	if err != nil {
		return nil, fmt.Errorf("module %s: %w", m.Key, err)
	}
	tidy(obj)
	if err := obj.Validate(); err != nil {
		return nil, fmt.Errorf("module %s: internal codegen error: %w", m.Key, err)
	}
	return obj, nil
}

// lower emits the object's tables and code; tidy has not run on it.
func lower(m *elab.Module, opts Options) (*vm.Object, error) {
	c := &compiler{
		m: m,
		obj: &vm.Object{
			Key:     m.Key,
			ModName: m.Name,
			SrcPath: opts.SrcPath,
		},
		style:    opts.Style,
		slots:    make(map[string]uint32),
		nextSlot: make(map[string]uint32),
		memIdx:   make(map[string]uint32),
		consts:   make(map[uint64]uint32),
	}
	if err := c.run(); err != nil {
		return nil, err
	}
	return c.obj, nil
}

// driverKind classifies how a signal is driven.
type driverKind uint8

const (
	undriven driverKind = iota
	combDriven
	seqDriven
	childDriven
)

// combNode is one schedulable combinational definition.
type combNode struct {
	defs  []string // signals this node defines
	reads []string // comb-driven signals this node reads
	emit  func(e *emitter) error
	what  string // for diagnostics
}

type compiler struct {
	m     *elab.Module
	obj   *vm.Object
	style Style

	slots    map[string]uint32 // signal -> current-value slot
	nextSlot map[string]uint32 // reg -> next-value slot
	memIdx   map[string]uint32
	consts   map[uint64]uint32
	nslots   uint32

	drivers map[string]driverKind
	nodes   []*combNode
	constOf map[uint32]uint64 // reverse constant pool, for folding
	// extra holds compiler-synthesized glue signals for instance
	// connections that are expressions rather than plain nets.
	extra map[string]*elab.Signal
}

func (c *compiler) alloc() uint32 {
	s := c.nslots
	c.nslots++
	return s
}

// constSlot returns the slot holding constant v, materializing it in the
// object's constant pool on first use. Constant-pool slots are initialized
// at instance reset, so the hot loop never executes OpConst.
func (c *compiler) constSlot(v uint64) uint32 {
	if s, ok := c.consts[v]; ok {
		return s
	}
	s := c.alloc()
	c.consts[v] = s
	if c.constOf == nil {
		c.constOf = make(map[uint32]uint64)
	}
	c.constOf[s] = v
	c.obj.Consts = append(c.obj.Consts, vm.ConstInit{Slot: s, Value: v})
	return s
}

// constValue reports whether slot holds a compile-time constant.
func (c *compiler) constValue(slot uint32) (uint64, bool) {
	v, ok := c.constOf[slot]
	return v, ok
}

func (c *compiler) sig(name string) *elab.Signal {
	if s, ok := c.m.SigByName[name]; ok {
		return s
	}
	return c.extra[name]
}

func (c *compiler) run() error {
	m := c.m

	// 1. Allocate slots: ports first (in order), then internal signals,
	// then memories get indices.
	for _, p := range m.Ports {
		c.slots[p.Name] = c.alloc()
	}
	for _, s := range m.Signals {
		if s.IsPort {
			continue
		}
		if s.Kind == elab.Memory {
			idx := uint32(len(c.obj.Mems))
			c.memIdx[s.Name] = idx
			c.obj.Mems = append(c.obj.Mems, vm.Mem{
				Name: s.Name, Index: idx, Depth: uint32(s.Depth), Mask: vm.Mask(s.Width),
			})
			continue
		}
		c.slots[s.Name] = c.alloc()
	}

	// 2. Ports table.
	for _, p := range m.Ports {
		dir := vm.In
		if p.PortDir == ast.Output {
			dir = vm.Out
		}
		c.obj.Ports = append(c.obj.Ports, vm.Port{
			Name: p.Name, Dir: dir, Slot: c.slots[p.Name], Mask: vm.Mask(p.Width),
		})
	}

	// 3. Driver analysis.
	if err := c.analyzeDrivers(); err != nil {
		return err
	}

	// 4. Allocate next slots for true registers and build the Regs table.
	var regNames []string
	for name, k := range c.drivers {
		if k == seqDriven {
			if s := c.sig(name); s != nil && s.Kind != elab.Memory {
				regNames = append(regNames, name)
			}
		}
	}
	sort.Strings(regNames)
	for _, name := range regNames {
		s := c.sig(name)
		ns := c.alloc()
		c.nextSlot[name] = ns
		c.obj.Regs = append(c.obj.Regs, vm.Reg{
			Name: name, Cur: c.slots[name], Next: ns, Mask: vm.Mask(s.Width),
		})
	}

	// 5. Build comb nodes from continuous assigns, comb always blocks and
	// child connection glue, then levelize and emit.
	if err := c.prepareChildren(); err != nil {
		return err
	}
	if err := c.buildCombNodes(); err != nil {
		return err
	}
	order, err := c.levelize()
	if err != nil {
		return err
	}
	combEmitter := &emitter{c: c}
	combEmitter.pushScope()
	for _, n := range order {
		if err := n.emit(combEmitter); err != nil {
			return err
		}
	}
	c.obj.Comb = combEmitter.code

	// 6. Emit sequential blocks. The seq emitter inherits the comb value
	// table: comb temporaries hold settled values when Seq runs.
	seqEmitter := &emitter{c: c, vn: combEmitter.topScopeCopy()}
	for _, blk := range m.Always {
		if blk.Edge != ast.Posedge {
			continue
		}
		if err := c.emitSeqBlock(seqEmitter, blk); err != nil {
			return err
		}
	}
	c.obj.Seq = seqEmitter.code

	// 7. Debug map.
	for _, s := range m.Signals {
		if s.Kind == elab.Memory {
			continue
		}
		c.obj.Debug = append(c.obj.Debug, vm.SlotDebug{
			Name: s.Name, Slot: c.slots[s.Name], Bits: s.Width,
		})
	}

	c.obj.NumSlots = c.nslots
	return nil
}

// analyzeDrivers classifies every signal's driver and rejects conflicts.
// Each non-memory signal has exactly one driver: a continuous assign, one
// always block, or a child instance output.
func (c *compiler) analyzeDrivers() error {
	c.drivers = make(map[string]driverKind)
	claim := func(name string, k driverKind, what string) error {
		s := c.sig(name)
		if s == nil {
			return fmt.Errorf("%s: unknown signal %q", what, name)
		}
		if s.IsPort && s.PortDir == ast.Input {
			return fmt.Errorf("%s: input port %q cannot be driven", what, name)
		}
		if c.drivers[name] != undriven {
			return fmt.Errorf("%s: signal %q has multiple drivers", what, name)
		}
		c.drivers[name] = k
		return nil
	}

	for _, a := range c.m.Assigns {
		targets, err := lhsTargets(a.LHS)
		if err != nil {
			return fmt.Errorf("assign: %w", err)
		}
		for _, name := range targets {
			if s := c.sig(name); s != nil && s.Kind == elab.Memory {
				return fmt.Errorf("assign: continuous assignment to memory %q", name)
			}
			if err := claim(name, combDriven, "assign"); err != nil {
				return err
			}
		}
	}
	for _, blk := range c.m.Always {
		kind, what := combDriven, "always @(*)"
		if blk.Edge == ast.Posedge {
			kind, what = seqDriven, "always @(posedge)"
		}
		names, err := stmtTargets(blk.Body)
		if err != nil {
			return fmt.Errorf("%s: %w", what, err)
		}
		for _, n := range names {
			s := c.sig(n)
			if s == nil {
				return fmt.Errorf("%s: unknown signal %q", what, n)
			}
			if s.Kind == elab.Memory {
				if kind == combDriven {
					return fmt.Errorf("%s: memory %q written combinationally", what, n)
				}
				continue // memories are not slot-driven
			}
			if kind == seqDriven && s.Kind != elab.Reg {
				return fmt.Errorf("%s: %q assigned in clocked block but not declared reg", what, n)
			}
			if err := claim(n, kind, what); err != nil {
				return err
			}
		}
	}
	for _, inst := range c.m.Instances {
		for _, conn := range inst.Conns {
			if conn.Port.PortDir != ast.Output {
				continue
			}
			id := conn.Expr.(*ast.Ident)
			if err := claim(id.Name, childDriven, "instance "+inst.Name); err != nil {
				return err
			}
		}
	}
	return nil
}
