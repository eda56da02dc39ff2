// Package xform implements the Register Transform History of the paper
// (Section III-E, Tables V and VI): the machinery that lets a checkpoint
// taken under one version of the design be loaded into a patched version
// whose register topology changed.
//
// A History is a tree of versions (branching is explicitly supported —
// "designed to support branching so that developers are not limited to a
// linear sequence of changes"). Each version carries the operations that
// translate the previous version's register state into its own:
//
//	create R        new register, initialized to a constant (default 0)
//	delete R        register removed; checkpoint data dropped
//	rename A, B     register A's data loads into B
//
// When LiveSim cannot unambiguously infer the mapping it "makes its best
// guess based on the similarities of names and types" — implemented here
// by BestGuess — and the user may edit the history manually.
//
// A Plan is the rules of Table V resolved for one pair of object
// versions and one op list. Hot reload (Migrator), the cross-version
// checkpoint restore and the consistency check all carry state by it;
// internal/sim, which owns the slot layout, applies and compares it.
package xform

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"livesim/internal/vm"
)

// OpKind enumerates transform operations.
type OpKind uint8

// Transform operation kinds (Table VI "Operations" column).
const (
	Create OpKind = iota
	Delete
	Rename
)

func (k OpKind) String() string {
	switch k {
	case Create:
		return "create"
	case Delete:
		return "delete"
	default:
		return "rename"
	}
}

// Op is one register transform operation.
type Op struct {
	Kind OpKind
	// Name is the register affected (for Rename: the old name).
	Name string
	// NewName is the post-rename name (Rename only).
	NewName string
	// Init is the initial value of a created register (Table V allows "0
	// or other value").
	Init uint64
}

func (o Op) String() string {
	switch o.Kind {
	case Rename:
		return fmt.Sprintf("rename %s, %s", o.Name, o.NewName)
	case Create:
		if o.Init != 0 {
			return fmt.Sprintf("create %s = %#x", o.Name, o.Init)
		}
		return "create " + o.Name
	default:
		return "delete " + o.Name
	}
}

// History is the Register Transform History table (Table VI): a tree of
// design versions, each carrying per-object ops that translate its
// parent's register state into its own. Branching is supported —
// checking out an old version and editing from there adds a sibling.
type History struct {
	parents map[string]string
	ops     map[string]map[string][]Op // version -> object key -> ops
	order   []string
}

// NewHistory creates a history rooted at root (no ops).
func NewHistory(root string) *History {
	return &History{
		parents: map[string]string{root: ""},
		ops:     map[string]map[string][]Op{root: nil},
		order:   []string{root},
	}
}

// Add records a version derived from parent with per-object ops.
func (h *History) Add(id, parent string, ops map[string][]Op) error {
	if _, dup := h.ops[id]; dup {
		return fmt.Errorf("version %q already exists", id)
	}
	if _, ok := h.ops[parent]; !ok {
		return fmt.Errorf("parent version %q not found", parent)
	}
	h.parents[id] = parent
	h.ops[id] = ops
	h.order = append(h.order, id)
	return nil
}

// PathOps returns one object's ops along the path from version from to
// its descendant to, oldest first. The history is a tree, so the path is
// unique.
func (h *History) PathOps(module, from, to string) ([]Op, error) {
	if _, ok := h.ops[from]; !ok {
		return nil, fmt.Errorf("version %q not found", from)
	}
	var chain []string
	for cur := to; cur != from; cur = h.parents[cur] {
		if _, ok := h.ops[cur]; !ok {
			return nil, fmt.Errorf("version %q not found", cur)
		}
		if h.parents[cur] == "" {
			return nil, fmt.Errorf("version %q is not an ancestor of %q", from, to)
		}
		chain = append(chain, cur)
	}
	var out []Op
	for i := len(chain) - 1; i >= 0; i-- {
		out = append(out, h.ops[chain[i]][module]...)
	}
	return out, nil
}

// Remove deletes a childless non-root version — the version-table half
// of a transactional rollback: a version created for a change that failed
// to commit must not survive as a phantom branch.
func (h *History) Remove(id string) error {
	parent, ok := h.parents[id]
	if !ok {
		return fmt.Errorf("version %q not found", id)
	}
	if parent == "" {
		return fmt.Errorf("cannot remove root version %q", id)
	}
	for v, p := range h.parents {
		if p == id {
			return fmt.Errorf("version %q still has child %q", id, v)
		}
	}
	delete(h.parents, id)
	delete(h.ops, id)
	h.order = slices.DeleteFunc(h.order, func(v string) bool { return v == id })
	return nil
}

// Versions lists version ids in creation order, the root first.
func (h *History) Versions() []string { return slices.Clone(h.order) }

// Describe renders the history like Table VI of the paper.
func (h *History) Describe() string {
	var b strings.Builder
	b.WriteString("Version | Operations | Parent\n")
	for _, id := range h.order {
		parent := h.parents[id]
		if parent == "" {
			parent = "null"
		}
		mods := make([]string, 0, len(h.ops[id]))
		for m := range h.ops[id] {
			mods = append(mods, m)
		}
		sort.Strings(mods)
		var ops []string
		for _, m := range mods {
			for _, op := range h.ops[id][m] {
				ops = append(ops, m+": "+op.String())
			}
		}
		if len(ops) == 0 {
			ops = []string{"-"}
		}
		fmt.Fprintf(&b, "%s | %s | %s\n", id, strings.Join(ops, "; "), parent)
	}
	return b.String()
}

// ---------------------------------------------------------------- guess

// BestGuess infers the transform ops between two compiled versions of a
// module by comparing their register tables. Exact name matches map
// directly; remaining registers are paired by name/width similarity
// (renames); leftovers become deletes and creates. The result is the
// "best guess based on the similarities of names and types" the paper
// describes; it is meant to be reviewed and editable.
func BestGuess(oldObj, newObj *vm.Object) []Op {
	oldRegs := make(map[string]vm.Reg)
	for _, r := range oldObj.Regs {
		oldRegs[r.Name] = r
	}
	newRegs := make(map[string]vm.Reg)
	for _, r := range newObj.Regs {
		newRegs[r.Name] = r
	}

	// Pass 1: exact matches drop out.
	var oldOnly, newOnly []vm.Reg
	for _, r := range oldObj.Regs {
		if _, ok := newRegs[r.Name]; !ok {
			oldOnly = append(oldOnly, r)
		}
	}
	for _, r := range newObj.Regs {
		if _, ok := oldRegs[r.Name]; !ok {
			newOnly = append(newOnly, r)
		}
	}
	sort.Slice(oldOnly, func(i, j int) bool { return oldOnly[i].Name < oldOnly[j].Name })
	sort.Slice(newOnly, func(i, j int) bool { return newOnly[i].Name < newOnly[j].Name })

	// Pass 2: greedy similarity pairing for renames.
	var ops []Op
	usedNew := make([]bool, len(newOnly))
	for _, or := range oldOnly {
		best, bestScore := -1, 0.0
		for ni, nr := range newOnly {
			if usedNew[ni] {
				continue
			}
			score := similarity(or.Name, nr.Name)
			if or.Mask == nr.Mask {
				score += 0.25 // same type/width is strong evidence
			}
			if score > bestScore {
				best, bestScore = ni, score
			}
		}
		if best >= 0 && bestScore >= 0.6 {
			usedNew[best] = true
			ops = append(ops, Op{Kind: Rename, Name: or.Name, NewName: newOnly[best].Name})
			continue
		}
		ops = append(ops, Op{Kind: Delete, Name: or.Name})
	}
	for ni, nr := range newOnly {
		if !usedNew[ni] {
			ops = append(ops, Op{Kind: Create, Name: nr.Name})
		}
	}
	return ops
}

// similarity scores two identifiers in [0,1] using normalized edit
// distance.
func similarity(a, b string) float64 {
	if a == b {
		return 1
	}
	d := editDistance(a, b)
	max := len(a)
	if len(b) > max {
		max = len(b)
	}
	if max == 0 {
		return 1
	}
	return 1 - float64(d)/float64(max)
}

func editDistance(a, b string) int {
	la, lb := len(a), len(b)
	prev := make([]int, lb+1)
	cur := make([]int, lb+1)
	for j := 0; j <= lb; j++ {
		prev[j] = j
	}
	for i := 1; i <= la; i++ {
		cur[0] = i
		for j := 1; j <= lb; j++ {
			cost := 1
			if a[i-1] == b[j-1] {
				cost = 0
			}
			m := prev[j] + 1
			if cur[j-1]+1 < m {
				m = cur[j-1] + 1
			}
			if prev[j-1]+cost < m {
				m = prev[j-1] + cost
			}
			cur[j] = m
		}
		prev, cur = cur, prev
	}
	return prev[lb]
}

// ---------------------------------------------------------------- plan

// Plan is Table V applied to one pair of object versions: where each
// piece of a new instance's state comes from in an instance of the old
// one. Its indices are the objects' own slot and memory numbers, so the
// kernel that applies it (internal/sim) only copies.
type Plan struct {
	Regs  []Pair // carried registers: slot to slot
	Inits []Init // created registers
	Mems  []Pair // memories by name: memory index to memory index
	Ins   []Pair // input ports by name: slot to slot
}

// Pair carries one old slot or memory into the new instance, masked to
// the new width. Name is the new version's name for it.
type Pair struct {
	Name     string
	From, To uint32
	Mask     uint64
}

// Init is a created register's slot and its (masked) initial value.
type Init struct {
	Slot  uint32
	Value uint64
}

// NewPlan derives the plan from oldObj to newObj through ops. It is the
// one place the reload rules of Table V are written:
//
//   - a register's value flows through the ops (rename maps it, delete
//     drops it), then lands on the new register of the same name, masked
//     to the new width;
//   - a created register gets its Init; a new register that no op creates
//     and no old value reaches keeps its power-on value;
//   - a memory is carried by name, up to the smaller depth, masked;
//   - an input port is carried by name when it is an input in both.
func NewPlan(oldObj, newObj *vm.Object, ops []Op) *Plan {
	// src is where a register's value comes from: an old register's slot,
	// or (created) an initial value.
	type src struct {
		slot    uint32
		created bool
		init    uint64
	}
	vals := make(map[string]src, len(oldObj.Regs))
	for _, r := range oldObj.Regs {
		vals[r.Name] = src{slot: r.Cur}
	}
	for _, op := range ops {
		switch op.Kind {
		case Create:
			vals[op.Name] = src{created: true, init: op.Init}
		case Delete:
			delete(vals, op.Name)
		case Rename:
			if v, ok := vals[op.Name]; ok {
				delete(vals, op.Name)
				vals[op.NewName] = v
			}
		}
	}
	p := &Plan{}
	for _, r := range newObj.Regs {
		if v, ok := vals[r.Name]; ok && v.created {
			p.Inits = append(p.Inits, Init{r.Cur, v.init & r.Mask})
		} else if ok {
			p.Regs = append(p.Regs, Pair{r.Name, v.slot, r.Cur, r.Mask})
		}
	}
	for _, m := range newObj.Mems {
		if om := oldObj.MemByName(m.Name); om != nil {
			p.Mems = append(p.Mems, Pair{m.Name, om.Index, m.Index, m.Mask})
		}
	}
	for _, pt := range newObj.Ports {
		if oi := oldObj.PortIndex(pt.Name); pt.Dir == vm.In && oi >= 0 && oldObj.Ports[oi].Dir == vm.In {
			p.Ins = append(p.Ins, Pair{pt.Name, oldObj.Ports[oi].Slot, pt.Slot, pt.Mask})
		}
	}
	return p
}

// Migrator returns the plan builder hot reloads use: the Plan from the
// old object to the new one through ops (sim.MigrateFunc).
func Migrator(ops []Op) func(oldObj, newObj *vm.Object) *Plan {
	return func(oldObj, newObj *vm.Object) *Plan { return NewPlan(oldObj, newObj, ops) }
}
