// Package flatsim is the Verilator-style baseline simulator the paper
// compares against: the whole design hierarchy is flattened into a single
// module — every instance gets its own copy of its module's logic — and
// compiled as one object with whole-program optimization and branch-free
// (mux) code.
//
// This reproduces both sides of Verilator's trade-off as the paper
// describes it (Section III-B, Figure 4(b-c), Table VII):
//
//   - small designs: cross-module optimization and a single levelized
//     evaluation pass make it fast;
//   - large designs: code is replicated per instance, so the generated
//     footprint grows with the instance count and compilation cost grows
//     superlinearly, while the executing code thrashes the host's caches.
package flatsim

import (
	"fmt"
	"strings"

	"livesim/internal/codegen"
	"livesim/internal/hdl/ast"
	"livesim/internal/hdl/elab"
	"livesim/internal/vm"
)

// Flatten inlines the elaborated hierarchy into one module. Signals of an
// instance at hierarchical path a.b.c are renamed a__b__c__name; port
// connections become continuous assigns between parent and child copies.
func Flatten(d *elab.Design) (*elab.Module, error) {
	top := d.Top()
	flat := &elab.Module{
		Name:      top.Name + "_flat",
		Key:       top.Key + "_flat",
		Params:    top.Params,
		SigByName: make(map[string]*elab.Signal),
		Consts:    make(map[string]uint64),
		Clock:     top.Clock,
	}
	if err := inline(d, top, "", flat); err != nil {
		return nil, err
	}
	return flat, nil
}

// inline copies module m's contents into flat with the given name prefix
// and recurses into its instances.
func inline(d *elab.Design, m *elab.Module, prefix string, flat *elab.Module) error {
	rename := func(name string) string { return prefix + name }

	// Constants (parameters + localparams) become prefixed constants.
	for k, v := range m.Consts {
		flat.Consts[rename(k)] = v
	}

	// Signals.
	for _, s := range m.Signals {
		ns := &elab.Signal{
			Name:   rename(s.Name),
			Kind:   s.Kind,
			Width:  s.Width,
			Depth:  s.Depth,
			Signed: s.Signed,
		}
		if prefix == "" && s.IsPort {
			ns.IsPort = true
			ns.PortDir = s.PortDir
			ns.PortIdx = s.PortIdx
		}
		if _, dup := flat.SigByName[ns.Name]; dup {
			return fmt.Errorf("flatten: duplicate signal %s", ns.Name)
		}
		flat.Signals = append(flat.Signals, ns)
		flat.SigByName[ns.Name] = ns
		if ns.IsPort {
			flat.Ports = append(flat.Ports, ns)
		}
	}

	sub := func(e ast.Expr) ast.Expr { return renameExpr(e, rename) }

	for _, a := range m.Assigns {
		flat.Assigns = append(flat.Assigns, &ast.ContAssign{
			LHS: sub(a.LHS), RHS: sub(a.RHS), Pos: a.Pos,
		})
	}
	for _, blk := range m.Always {
		flat.Always = append(flat.Always, &ast.AlwaysBlock{
			Edge:  blk.Edge,
			Clock: rename(blk.Clock),
			Body:  renameStmt(blk.Body, rename),
			Pos:   blk.Pos,
		})
	}

	// Instances: recurse, then glue ports with assigns.
	for _, inst := range m.Instances {
		childPrefix := prefix + inst.Name + "__"
		if err := inline(d, inst.Child, childPrefix, flat); err != nil {
			return err
		}
		for _, conn := range inst.Conns {
			childSig := childPrefix + conn.Port.Name
			if conn.Port.PortDir == ast.Output {
				id := conn.Expr.(*ast.Ident)
				flat.Assigns = append(flat.Assigns, &ast.ContAssign{
					LHS: &ast.Ident{Name: rename(id.Name)},
					RHS: &ast.Ident{Name: childSig},
				})
			} else {
				flat.Assigns = append(flat.Assigns, &ast.ContAssign{
					LHS: &ast.Ident{Name: childSig},
					RHS: sub(conn.Expr),
				})
			}
		}
	}
	return nil
}

// renameExpr rewrites identifier references through rename.
func renameExpr(e ast.Expr, rename func(string) string) ast.Expr {
	switch x := e.(type) {
	case nil:
		return nil
	case *ast.Ident:
		return &ast.Ident{Name: rename(x.Name), Pos: x.Pos}
	case *ast.Number:
		return x
	case *ast.Unary:
		return &ast.Unary{Op: x.Op, X: renameExpr(x.X, rename), Pos: x.Pos}
	case *ast.Binary:
		return &ast.Binary{Op: x.Op, X: renameExpr(x.X, rename), Y: renameExpr(x.Y, rename), Pos: x.Pos}
	case *ast.Ternary:
		return &ast.Ternary{
			Cond: renameExpr(x.Cond, rename),
			Then: renameExpr(x.Then, rename),
			Else: renameExpr(x.Else, rename),
		}
	case *ast.Index:
		return &ast.Index{X: renameExpr(x.X, rename), Index: renameExpr(x.Index, rename), Pos: x.Pos}
	case *ast.PartSelect:
		return &ast.PartSelect{X: renameExpr(x.X, rename), MSB: renameExpr(x.MSB, rename), LSB: renameExpr(x.LSB, rename), Pos: x.Pos}
	case *ast.Concat:
		parts := make([]ast.Expr, len(x.Parts))
		for i, p := range x.Parts {
			parts[i] = renameExpr(p, rename)
		}
		return &ast.Concat{Parts: parts, Pos: x.Pos}
	case *ast.Repl:
		return &ast.Repl{Count: renameExpr(x.Count, rename), Value: renameExpr(x.Value, rename), Pos: x.Pos}
	case *ast.SysFunc:
		args := make([]ast.Expr, len(x.Args))
		for i, a := range x.Args {
			args[i] = renameExpr(a, rename)
		}
		return &ast.SysFunc{Name: x.Name, Args: args, Pos: x.Pos}
	default:
		return e
	}
}

// renameStmt rewrites a statement tree through rename.
func renameStmt(s ast.Stmt, rename func(string) string) ast.Stmt {
	switch x := s.(type) {
	case nil:
		return nil
	case *ast.Block:
		out := &ast.Block{Pos: x.Pos}
		for _, st := range x.Stmts {
			out.Stmts = append(out.Stmts, renameStmt(st, rename))
		}
		return out
	case *ast.If:
		return &ast.If{
			Cond: renameExpr(x.Cond, rename),
			Then: renameStmt(x.Then, rename),
			Else: renameStmt(x.Else, rename),
			Pos:  x.Pos,
		}
	case *ast.Case:
		out := &ast.Case{Subject: renameExpr(x.Subject, rename), Casez: x.Casez, Pos: x.Pos}
		for _, it := range x.Items {
			var exprs []ast.Expr
			for _, e := range it.Exprs {
				exprs = append(exprs, renameExpr(e, rename))
			}
			out.Items = append(out.Items, ast.CaseItem{Exprs: exprs, Body: renameStmt(it.Body, rename)})
		}
		return out
	case *ast.Assign:
		return &ast.Assign{
			LHS:         renameExpr(x.LHS, rename),
			RHS:         renameExpr(x.RHS, rename),
			NonBlocking: x.NonBlocking,
			Pos:         x.Pos,
		}
	case *ast.SysCall:
		// Keep the format string argument unrenamed (it is an Ident
		// carrying the quoted literal).
		out := &ast.SysCall{Name: x.Name, Pos: x.Pos}
		for i, a := range x.Args {
			if id, ok := a.(*ast.Ident); ok && i == 0 && strings.HasPrefix(id.Name, "\"") {
				out.Args = append(out.Args, id)
				continue
			}
			out.Args = append(out.Args, renameExpr(a, rename))
		}
		return out
	default:
		return s
	}
}

// Compile flattens and compiles a design into one monolithic object,
// using branch-free mux code like Verilator's generated C++.
func Compile(d *elab.Design, style codegen.Style) (*vm.Object, error) {
	flat, err := Flatten(d)
	if err != nil {
		return nil, err
	}
	obj, err := codegen.Compile(flat, codegen.Options{Style: style, SrcPath: "(flattened)"})
	if err != nil {
		return nil, err
	}
	return obj, nil
}

// Sim is a running flattened simulation: a single instance, a single
// levelized evaluation pass per cycle.
type Sim struct {
	Obj  *vm.Object
	Inst *vm.Instance

	Stats vm.Stats

	cycle    uint64
	finished bool
}

// NewSim instantiates a compiled flat object.
func NewSim(obj *vm.Object) *Sim {
	inst := vm.NewInstance(obj)
	inst.DataBase = 0x100000000
	for range inst.Mems {
		inst.MemBases = append(inst.MemBases, 0)
	}
	base := uint64(0x200000000)
	for i := range inst.Mems {
		inst.MemBases[i] = base
		base += uint64(len(inst.Mems[i])*8+63) &^ 63
	}
	obj.BaseAddr = 0x10000
	return &Sim{Obj: obj, Inst: inst}
}

// Cycle returns the current cycle.
func (s *Sim) Cycle() uint64 { return s.cycle }

// Tick advances n cycles.
func (s *Sim) Tick(n int) {
	for i := 0; i < n && !s.finished; i++ {
		s.Inst.RunComb(&s.Stats)
		s.Inst.RunSeq(&s.Stats)
		s.Inst.Commit()
		if s.Inst.FinishReq {
			s.finished = true
		}
		s.cycle++
	}
}

// TickProfiled advances n cycles feeding the host cache model.
func (s *Sim) TickProfiled(n int, prof vm.Profiler) {
	for i := 0; i < n && !s.finished; i++ {
		s.Inst.RunCombProfiled(&s.Stats, prof)
		s.Inst.RunSeqProfiled(&s.Stats, prof)
		s.Inst.Commit()
		if s.Inst.FinishReq {
			s.finished = true
		}
		s.cycle++
	}
}

// Peek reads a flattened signal by its hierarchical name (a.b.sig or the
// flattened a__b__sig form).
func (s *Sim) Peek(path string) (uint64, error) {
	name := strings.ReplaceAll(path, ".", "__")
	for _, d := range s.Obj.Debug {
		if d.Name == name {
			return s.Inst.Slots[d.Slot], nil
		}
	}
	return 0, fmt.Errorf("no signal %q", name)
}

// PeekMem reads a word of a flattened memory.
func (s *Sim) PeekMem(path string, addr uint64) (uint64, error) {
	name := strings.ReplaceAll(path, ".", "__")
	m := s.Obj.MemByName(name)
	if m == nil {
		return 0, fmt.Errorf("no memory %q", name)
	}
	if addr >= uint64(m.Depth) {
		return 0, fmt.Errorf("address %d out of range", addr)
	}
	return s.Inst.Mems[m.Index][addr], nil
}

// PokeMem writes a word of a flattened memory.
func (s *Sim) PokeMem(path string, addr, v uint64) error {
	name := strings.ReplaceAll(path, ".", "__")
	m := s.Obj.MemByName(name)
	if m == nil {
		return fmt.Errorf("no memory %q", name)
	}
	if addr >= uint64(m.Depth) {
		return fmt.Errorf("address %d out of range", addr)
	}
	s.Inst.Mems[m.Index][addr] = v & m.Mask
	return nil
}
