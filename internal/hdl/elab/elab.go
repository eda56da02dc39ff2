// Package elab elaborates parsed LiveHDL modules: it binds parameters,
// folds constant expressions, resolves signal widths, and specializes the
// design hierarchy.
//
// Elaboration is where the paper's "each module is only compiled once"
// property is established (Section III-B): the unit of compilation is a
// *specialization* — a (module, parameter binding) pair identified by Key —
// and a 16x16 PGAS mesh with 256 identical cores yields exactly one
// specialization per stage module, no matter how many instances exist.
// In Verilog, parameters are decided per instance (Section III-C), so the
// elaborator must visit every instantiation to discover which
// specializations exist.
package elab

import (
	"fmt"
	"sort"
	"strings"

	"livesim/internal/hdl/ast"
)

// MaxWidth is the widest supported vector. Every signal fits a uint64.
const MaxWidth = 64

// SignalKind classifies elaborated signals.
type SignalKind uint8

// Signal kinds.
const (
	Wire SignalKind = iota
	Reg
	Memory
)

// Signal is one elaborated net, register or memory.
type Signal struct {
	Name   string
	Kind   SignalKind
	Width  int // element width in bits
	Depth  int // >0 for memories
	Signed bool

	IsPort  bool
	PortDir ast.Dir
	PortIdx int // position in the module port list
}

// Conn is a resolved instance port connection.
type Conn struct {
	Port *Signal // the child's port signal
	Expr ast.Expr
}

// InstanceRef is a resolved child instantiation.
type InstanceRef struct {
	Name     string
	ChildKey string // elaborated specialization key
	Child    *Module
	Conns    []Conn
}

// Module is an elaborated specialization of a source module.
type Module struct {
	Name   string            // source module name
	Key    string            // specialization key, e.g. "fifo#D=16,W=8"
	Params map[string]uint64 // bound parameter values

	Signals   []*Signal
	SigByName map[string]*Signal
	Ports     []*Signal // in declaration order

	// Consts contains parameters and localparams for constant evaluation.
	Consts map[string]uint64

	// Assigns are continuous assignments (including wire-init sugar).
	Assigns []*ast.ContAssign
	// Always are the processes.
	Always []*ast.AlwaysBlock
	// Instances are resolved child instantiations.
	Instances []*InstanceRef

	// Clock is the sensitivity signal shared by all posedge blocks
	// ("" when the module is purely combinational).
	Clock string

	src *ast.Module
}

// Design is a fully elaborated hierarchy.
type Design struct {
	TopKey  string
	Modules map[string]*Module // by specialization key
	// Order lists specialization keys children-first (topological), so
	// compiling in Order always finds child objects ready.
	Order []string
	// Elaborated counts the specializations this design elaborated itself;
	// the others were carried over from an Elaborator's previous design.
	Elaborated int
}

// Top returns the elaborated top module.
func (d *Design) Top() *Module { return d.Modules[d.TopKey] }

// Key builds a specialization key from a module name and parameter binding.
func Key(name string, params map[string]uint64) string {
	if len(params) == 0 {
		return name
	}
	names := make([]string, 0, len(params))
	for k := range params {
		names = append(names, k)
	}
	sort.Strings(names)
	var sb strings.Builder
	sb.WriteString(name)
	sb.WriteByte('#')
	for i, k := range names {
		if i > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, "%s=%d", k, params[k])
	}
	return sb.String()
}

// Elaborate specializes the hierarchy rooted at top. srcs maps module names
// to their ASTs; overrides optionally rebinds top-level parameters.
func Elaborate(srcs map[string]*ast.Module, top string, overrides map[string]uint64) (*Design, error) {
	return new(Elaborator).Elaborate(srcs, top, overrides)
}

// Elaborator elaborates successive versions of one design and keeps the
// last design it produced. A specialization of that design is carried into
// the next one as it is — the same *Module — when the module's AST is the
// identical *ast.Module and the same holds for every specialization below
// it; a specialization is a function of its parameter binding (part of its
// key) and of those ASTs and nothing else. Everything else — the changed
// module and the specializations on the path from it to the top, whose
// instance references point into it — is elaborated afresh. Reuse is
// decided by pointer identity, so it is as sound as the caller's promise
// that a parsed AST is never written to. The zero value is ready to use.
type Elaborator struct {
	prev *Design
}

// Elaborate is the package-level Elaborate that reuses what it can of the
// previous successful call's design. Modules of the result may be shared
// with that design: treat them as read-only.
func (el *Elaborator) Elaborate(srcs map[string]*ast.Module, top string, overrides map[string]uint64) (*Design, error) {
	e := &elaborator{
		srcs:  srcs,
		d:     &Design{Modules: make(map[string]*Module)},
		prev:  el.prev,
		fresh: make(map[*Module]bool),
	}
	key, err := e.instantiate(top, overrides, nil)
	if err != nil {
		return nil, err
	}
	e.d.TopKey = key
	el.prev = e.d
	return e.d, nil
}

type elaborator struct {
	srcs map[string]*ast.Module
	d    *Design
	// prev is the design specializations may be carried over from (nil:
	// none); fresh memoises, per module of prev, whether it can be.
	prev  *Design
	fresh map[*Module]bool
	// connected is addInstance's scratch space.
	connected []bool
}

// reusable reports whether m, a specialization of the previous design, is
// what elaborating its key against srcs would produce again.
func (e *elaborator) reusable(m *Module) bool {
	ok, seen := e.fresh[m]
	if seen {
		return ok
	}
	ok = e.srcs[m.Name] == m.src
	for i := 0; ok && i < len(m.Instances); i++ {
		ok = e.reusable(m.Instances[i].Child)
	}
	e.fresh[m] = ok
	return ok
}

// carry puts a reusable specialization and everything below it into the
// design, children first — the order elaborating it would have appended.
func (e *elaborator) carry(m *Module) {
	if _, done := e.d.Modules[m.Key]; done {
		return
	}
	for _, inst := range m.Instances {
		e.carry(inst.Child)
	}
	e.d.Modules[m.Key] = m
	e.d.Order = append(e.d.Order, m.Key)
}

// instantiate elaborates one specialization (memoized by key).
func (e *elaborator) instantiate(name string, params map[string]uint64, stack []string) (string, error) {
	src, ok := e.srcs[name]
	if !ok {
		return "", fmt.Errorf("module %q not found (instantiated from %s)", name, stackStr(stack))
	}

	// Bind parameters: defaults, then overrides. A mesh top comes through
	// here once per instance only to find the key already elaborated, so a
	// module without parameters gets its (empty) maps when it is declared.
	var bound, consts map[string]uint64
	if len(src.Params) > 0 {
		bound = make(map[string]uint64, len(src.Params))
		consts = make(map[string]uint64, len(src.Params))
	}
	for _, p := range src.Params {
		v := uint64(0)
		if p.Default != nil {
			var err error
			v, err = EvalConst(p.Default, consts)
			if err != nil {
				return "", fmt.Errorf("module %s: parameter %s default: %w", name, p.Name, err)
			}
		}
		if ov, ok := params[p.Name]; ok {
			v = ov
		}
		bound[p.Name] = v
		consts[p.Name] = v
	}
	for pn := range params { // overrides of parameters the module does not have
		if _, ok := consts[pn]; !ok {
			return "", fmt.Errorf("module %s: unknown parameter %q overridden", name, pn)
		}
	}

	key := Key(name, bound)
	if _, done := e.d.Modules[key]; done {
		return key, nil
	}
	var pm *Module // the previous design's specialization of this key
	if e.prev != nil {
		pm = e.prev.Modules[key]
	}
	if pm != nil && e.reusable(pm) {
		e.carry(pm)
		return key, nil
	}
	for _, s := range stack {
		if s == key {
			return "", fmt.Errorf("recursive instantiation of %s (%s)", key, stackStr(append(stack, key)))
		}
	}

	// A module's signals, constants and processes are a function of its
	// own AST and binding alone. When only something below it changed, the
	// previous specialization's are shared and just the instance
	// references, which point into the children, are resolved again.
	var m *Module
	var was []*InstanceRef // of the same AST: one per instance item, in order
	if pm != nil && pm.src == src {
		cp := *pm
		m = &cp
		was, m.Instances = pm.Instances, nil
	} else {
		if consts == nil {
			bound, consts = map[string]uint64{}, map[string]uint64{}
		}
		m = &Module{
			Name:      name,
			Key:       key,
			Params:    bound,
			SigByName: make(map[string]*Signal),
			Consts:    consts,
			src:       src,
		}
		if err := m.declare(); err != nil {
			return "", fmt.Errorf("module %s: %w", name, err)
		}
	}
	for _, it := range src.Items {
		if inst, ok := it.(*ast.Instance); ok {
			var old *InstanceRef
			if was != nil {
				old = was[len(m.Instances)]
			}
			if err := e.addInstance(m, inst, old, stack, key); err != nil {
				return "", fmt.Errorf("module %s: %w", name, err)
			}
		}
	}

	e.d.Modules[key] = m
	e.d.Order = append(e.d.Order, key) // children were appended first
	e.d.Elaborated++
	return key, nil
}

// declare elaborates everything of m that does not depend on other
// modules: localparams, ports, nets, assigns and processes.
func (m *Module) declare() error {
	// First pass: localparams (they may be used in declarations below).
	for _, it := range m.src.Items {
		lp, ok := it.(*ast.LocalParam)
		if !ok {
			continue
		}
		v, err := EvalConst(lp.Value, m.Consts)
		if err != nil {
			return fmt.Errorf("localparam %s: %w", lp.Name, err)
		}
		m.Consts[lp.Name] = v
	}

	// Ports.
	for i, p := range m.src.Ports {
		w, err := rangeWidth(p.Range, m.Consts)
		if err != nil {
			return fmt.Errorf("port %s: %w", p.Name, err)
		}
		kind := Wire
		if p.IsReg {
			kind = Reg
		}
		sig := &Signal{
			Name: p.Name, Kind: kind, Width: w, Signed: p.Signed,
			IsPort: true, PortDir: p.Dir, PortIdx: i,
		}
		if p.Dir == ast.Inout {
			return fmt.Errorf("inout port %s not supported", p.Name)
		}
		if err := m.addSignal(sig); err != nil {
			return err
		}
		m.Ports = append(m.Ports, sig)
	}

	// Declarations and items.
	for _, it := range m.src.Items {
		switch d := it.(type) {
		case *ast.NetDecl:
			if err := m.addDecl(d); err != nil {
				return err
			}
		case *ast.ContAssign:
			m.Assigns = append(m.Assigns, d)
		case *ast.AlwaysBlock:
			switch d.Edge {
			case ast.Posedge:
				if m.Clock != "" && m.Clock != d.Clock {
					return fmt.Errorf("multiple clocks (%s and %s) not supported", m.Clock, d.Clock)
				}
				m.Clock = d.Clock
			case ast.Negedge:
				return fmt.Errorf("negedge processes not supported")
			}
			m.Always = append(m.Always, d)
		}
	}
	return nil
}

func (m *Module) addDecl(d *ast.NetDecl) error {
	w, err := rangeWidth(d.Range, m.Consts)
	if err != nil {
		return fmt.Errorf("signal %s: %w", d.Name, err)
	}
	sig := &Signal{Name: d.Name, Signed: d.Signed, Width: w}
	switch {
	case d.Array != nil:
		if d.Kind != ast.Reg {
			return fmt.Errorf("memory %s must be declared reg", d.Name)
		}
		lo, err := EvalConst(d.Array.MSB, m.Consts)
		if err != nil {
			return fmt.Errorf("memory %s bounds: %w", d.Name, err)
		}
		hi, err := EvalConst(d.Array.LSB, m.Consts)
		if err != nil {
			return fmt.Errorf("memory %s bounds: %w", d.Name, err)
		}
		if lo > hi {
			lo, hi = hi, lo
		}
		if lo != 0 {
			return fmt.Errorf("memory %s must start at index 0", d.Name)
		}
		if hi >= 1<<28 {
			return fmt.Errorf("memory %s too deep (%d)", d.Name, hi+1)
		}
		sig.Kind = Memory
		sig.Depth = int(hi) + 1
	case d.Kind == ast.Reg:
		sig.Kind = Reg
	case d.Kind == ast.Integer:
		sig.Kind = Reg
		sig.Width = 32
		sig.Signed = true
	default:
		sig.Kind = Wire
	}

	// Port signals may be re-declared in the body (non-ANSI style); merge.
	if exist, ok := m.SigByName[d.Name]; ok {
		if !exist.IsPort {
			return fmt.Errorf("signal %s declared twice", d.Name)
		}
		if exist.Width != sig.Width && sig.Width != 1 {
			return fmt.Errorf("port %s redeclared with different width", d.Name)
		}
		if sig.Kind == Reg {
			exist.Kind = Reg
		}
	} else if err := m.addSignal(sig); err != nil {
		return err
	}

	if d.Init != nil {
		m.Assigns = append(m.Assigns, &ast.ContAssign{
			LHS: &ast.Ident{Name: d.Name, Pos: d.Pos},
			RHS: d.Init,
			Pos: d.Pos,
		})
	}
	return nil
}

// addInstance resolves one instantiation in m. old is what the same
// instance item resolved to in the previous design (nil: nothing to go
// by). It is kept when the child it points to is still the child, and its
// connections are kept when the child is a new specialization that shares
// its port signals with the old one (see instantiate): they were checked
// against, and point at, those very signals.
func (e *elaborator) addInstance(m *Module, inst *ast.Instance, old *InstanceRef, stack []string, selfKey string) error {
	childSrc, ok := e.srcs[inst.ModName]
	if !ok {
		return fmt.Errorf("instance %s: module %q not found", inst.Name, inst.ModName)
	}

	// Resolve parameter overrides in the parent's constant context.
	var overrides map[string]uint64
	if len(inst.Params) > 0 {
		overrides = make(map[string]uint64, len(inst.Params))
	}
	for i, pc := range inst.Params {
		pname := pc.Name
		if pname == "" {
			if i >= len(childSrc.Params) {
				return fmt.Errorf("instance %s: too many positional parameters", inst.Name)
			}
			pname = childSrc.Params[i].Name
		}
		v, err := EvalConst(pc.Expr, m.Consts)
		if err != nil {
			return fmt.Errorf("instance %s: parameter %s: %w", inst.Name, pname, err)
		}
		overrides[pname] = v
	}

	childKey, err := e.instantiate(inst.ModName, overrides, append(stack, selfKey))
	if err != nil {
		return err
	}
	child := e.d.Modules[childKey]
	switch {
	case old == nil:
	case old.Child == child:
		m.Instances = append(m.Instances, old)
		return nil
	case len(child.Ports) > 0 && len(old.Child.Ports) > 0 && child.Ports[0] == old.Child.Ports[0]:
		m.Instances = append(m.Instances, &InstanceRef{Name: inst.Name, ChildKey: childKey, Child: child, Conns: old.Conns})
		return nil
	}

	ref := &InstanceRef{Name: inst.Name, ChildKey: childKey, Child: child,
		Conns: make([]Conn, 0, len(inst.Conns))}
	// connected[i] is set once port i of the child has a connection; the
	// slice is scratch space shared by all instances of one elaboration (a
	// mesh top makes thousands of connections).
	if cap(e.connected) < len(child.Ports) {
		e.connected = make([]bool, len(child.Ports))
	}
	connected := e.connected[:len(child.Ports)]
	for i := range connected {
		connected[i] = false
	}
	for i, c := range inst.Conns {
		var port *Signal
		if c.Name == "" {
			if i >= len(child.Ports) {
				return fmt.Errorf("instance %s: too many positional connections", inst.Name)
			}
			port = child.Ports[i]
		} else {
			port = child.SigByName[c.Name]
			if port == nil || !port.IsPort {
				return fmt.Errorf("instance %s: no port %q on module %s", inst.Name, c.Name, inst.ModName)
			}
		}
		if connected[port.PortIdx] {
			return fmt.Errorf("instance %s: port %q connected twice", inst.Name, port.Name)
		}
		connected[port.PortIdx] = true
		if c.Expr == nil {
			continue // explicitly unconnected
		}
		if port.PortDir == ast.Output {
			if _, ok := c.Expr.(*ast.Ident); !ok {
				return fmt.Errorf("instance %s: output port %q must connect to a plain signal", inst.Name, port.Name)
			}
		}
		ref.Conns = append(ref.Conns, Conn{Port: port, Expr: c.Expr})
	}
	m.Instances = append(m.Instances, ref)
	return nil
}

func (m *Module) addSignal(s *Signal) error {
	if _, dup := m.SigByName[s.Name]; dup {
		return fmt.Errorf("signal %s declared twice", s.Name)
	}
	if _, isConst := m.Consts[s.Name]; isConst {
		return fmt.Errorf("name %s is both a parameter and a signal", s.Name)
	}
	if s.Width <= 0 || s.Width > MaxWidth {
		return fmt.Errorf("signal %s: width %d out of range 1..%d", s.Name, s.Width, MaxWidth)
	}
	m.Signals = append(m.Signals, s)
	m.SigByName[s.Name] = s
	return nil
}

// rangeWidth computes the bit width of a declared range; nil means 1 bit.
func rangeWidth(r *ast.Range, consts map[string]uint64) (int, error) {
	if r == nil {
		return 1, nil
	}
	msb, err := EvalConst(r.MSB, consts)
	if err != nil {
		return 0, err
	}
	lsb, err := EvalConst(r.LSB, consts)
	if err != nil {
		return 0, err
	}
	if lsb != 0 {
		return 0, fmt.Errorf("ranges must be [msb:0], got [%d:%d]", msb, lsb)
	}
	w := int(msb) + 1
	if w <= 0 || w > MaxWidth {
		return 0, fmt.Errorf("width %d out of range 1..%d", w, MaxWidth)
	}
	return w, nil
}

func stackStr(stack []string) string {
	if len(stack) == 0 {
		return "<top>"
	}
	return strings.Join(stack, " -> ")
}
