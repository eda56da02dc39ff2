package vm

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"sort"
	"sync"
)

// PortDir is a compiled port direction.
type PortDir uint8

// Port directions.
const (
	In PortDir = iota
	Out
)

// Port describes one port of a compiled module.
type Port struct {
	Name string
	Dir  PortDir
	Slot uint32
	Mask uint64
}

// Reg describes one architectural register: its current-value slot, the
// shadow slot its next value is computed into, and its width mask.
// Name is retained for the checkpoint register-transform rules (Table V of
// the paper): state migration across hot reloads matches registers by name.
type Reg struct {
	Name string
	Cur  uint32
	Next uint32
	Mask uint64
}

// Mem describes one memory (reg array).
type Mem struct {
	Name  string
	Index uint32
	Depth uint32
	Mask  uint64 // element width mask
}

// ConstInit is a constant materialized into a slot at instance reset.
type ConstInit struct {
	Slot  uint32
	Value uint64
}

// Display is a $display record referenced by OpDisplay.
type Display struct {
	Format string
	Args   []uint32
}

// ChildBind connects a parent slot to a child port.
type ChildBind struct {
	ParentSlot uint32
	ChildPort  uint32 // index into the child Object's Ports
}

// Child is an instantiation of another compiled object. The kernel resolves
// ObjectKey against its object table at instantiation time, which is what
// makes piecemeal hot swap possible: the parent object never embeds child
// code (Figure 4(d) of the paper).
type Child struct {
	InstName  string
	ObjectKey string
	Binds     []ChildBind
}

// SlotDebug maps a slot to its source-level name for tracing and the
// register-transform engine.
type SlotDebug struct {
	Name string
	Slot uint32
	Bits int
}

// Object is one compiled module: the hot-swappable unit.
type Object struct {
	// Key identifies the specialization: "module" or "module#W=8,D=4".
	Key string
	// ModName is the source module name.
	ModName string
	// SrcPath is the code-path (Table II of the paper).
	SrcPath string

	NumSlots uint32
	Ports    []Port
	Regs     []Reg
	Mems     []Mem
	Consts   []ConstInit
	Displays []Display
	Children []Child

	// Comb computes all combinational values from inputs and register
	// currents. Seq computes register next values and buffered memory
	// writes. Both must leave slots other than their targets untouched.
	Comb []Instr
	Seq  []Instr

	// Debug names slots for tracing and state transforms.
	Debug []SlotDebug

	// BaseAddr is the modeled load address of this object's code, assigned
	// by the loader. It stands in for where the dynamic linker would have
	// mapped the shared library; the host I-cache model keys on it. Not
	// part of the content hash.
	BaseAddr uint64

	hash string

	baseMu        sync.Mutex // orders AssignBase between loaders
	combReadsOnce sync.Once
	combReads     []bool
}

// AssignBase places the object at base unless a loader already placed it,
// and reports whether it did. Simulations that share an object (the
// session's pipes, concurrent verification replays) may load it at the
// same time; the first one wins and the others see its address.
func (o *Object) AssignBase(base uint64) bool {
	o.baseMu.Lock()
	defer o.baseMu.Unlock()
	if o.BaseAddr != 0 {
		return false
	}
	o.BaseAddr = base
	return true
}

// CombReads reports, per slot, whether any Comb instruction reads it. The
// kernel compiles it into its settle schedule: a port that feeds only Seq
// can change without the instance's combinational outputs moving. Derived
// from Comb on first use and cached; not part of the content hash.
func (o *Object) CombReads() []bool {
	o.combReadsOnce.Do(func() {
		o.combReads = make([]bool, o.NumSlots)
		for i := range o.Comb {
			o.Comb[i].Reads(o, func(slot uint32) { o.combReads[slot] = true })
		}
	})
	return o.combReads
}

// PortIndex returns the index of the named port, or -1.
func (o *Object) PortIndex(name string) int {
	for i := range o.Ports {
		if o.Ports[i].Name == name {
			return i
		}
	}
	return -1
}

// RegByName returns the register spec with the given name, or nil.
func (o *Object) RegByName(name string) *Reg {
	for i := range o.Regs {
		if o.Regs[i].Name == name {
			return &o.Regs[i]
		}
	}
	return nil
}

// MemByName returns the memory spec with the given name, or nil.
func (o *Object) MemByName(name string) *Mem {
	for i := range o.Mems {
		if o.Mems[i].Name == name {
			return &o.Mems[i]
		}
	}
	return nil
}

// CodeBytes returns the size in bytes of the object's code, as the host
// cache model sees it. Each instruction occupies InstrBytes.
func (o *Object) CodeBytes() int { return (len(o.Comb) + len(o.Seq)) * InstrBytes }

// InstrBytes is the modeled encoded size of one instruction as the host
// cache model sees it. Native simulator code averages a handful of bytes
// per machine instruction (the paper's Verilator emits dense C++), so the
// model charges 8 bytes per VM op rather than the Go struct's in-memory
// size.
const InstrBytes = 8

// Hash returns the content hash of the object. LiveCompiler compares
// hashes against its cache to decide whether a recompiled module actually
// changed and needs to be swapped into the simulation (Section III-C).
func (o *Object) Hash() string {
	if o.hash == "" {
		o.hash = hex.EncodeToString(o.encodeForHash())
	}
	return o.hash
}

// encodeForHash produces a deterministic digest of all semantic fields.
func (o *Object) encodeForHash() []byte {
	h := sha256.New()
	w := func(vals ...interface{}) {
		for _, v := range vals {
			switch x := v.(type) {
			case string:
				var n [4]byte
				binary.LittleEndian.PutUint32(n[:], uint32(len(x)))
				h.Write(n[:])
				h.Write([]byte(x))
			case uint32:
				var n [4]byte
				binary.LittleEndian.PutUint32(n[:], x)
				h.Write(n[:])
			case uint64:
				var n [8]byte
				binary.LittleEndian.PutUint64(n[:], x)
				h.Write(n[:])
			case uint8:
				h.Write([]byte{x})
			case int:
				var n [8]byte
				binary.LittleEndian.PutUint64(n[:], uint64(x))
				h.Write(n[:])
			default:
				panic(fmt.Sprintf("encodeForHash: %T", v))
			}
		}
	}
	w(o.ModName, o.NumSlots)
	w(len(o.Ports))
	for _, p := range o.Ports {
		w(p.Name, uint8(p.Dir), p.Slot, p.Mask)
	}
	w(len(o.Regs))
	for _, r := range o.Regs {
		w(r.Name, r.Cur, r.Next, r.Mask)
	}
	w(len(o.Mems))
	for _, m := range o.Mems {
		w(m.Name, m.Index, m.Depth, m.Mask)
	}
	w(len(o.Consts))
	for _, c := range o.Consts {
		w(c.Slot, c.Value)
	}
	w(len(o.Displays))
	for _, d := range o.Displays {
		w(d.Format, len(d.Args))
		for _, a := range d.Args {
			w(a)
		}
	}
	w(len(o.Children))
	for _, c := range o.Children {
		w(c.InstName, c.ObjectKey, len(c.Binds))
		for _, b := range c.Binds {
			w(b.ParentSlot, b.ChildPort)
		}
	}
	for _, code := range [][]Instr{o.Comb, o.Seq} {
		w(len(code))
		for _, in := range code {
			w(uint8(in.Op), in.W, in.Dst, in.A, in.B, in.C, in.Imm)
		}
	}
	return h.Sum(nil)[:16]
}

// Validate checks internal consistency: slot indices in range, jump targets
// in range, memory indices valid. Codegen bugs surface here instead of as
// runtime panics.
func (o *Object) Validate() error {
	checkSlot := func(s uint32, what string) error {
		if s >= o.NumSlots {
			return fmt.Errorf("object %s: %s slot %d out of range (%d slots)", o.Key, what, s, o.NumSlots)
		}
		return nil
	}
	for _, p := range o.Ports {
		if err := checkSlot(p.Slot, "port "+p.Name); err != nil {
			return err
		}
	}
	for _, r := range o.Regs {
		if err := checkSlot(r.Cur, "reg "+r.Name); err != nil {
			return err
		}
		if err := checkSlot(r.Next, "reg next "+r.Name); err != nil {
			return err
		}
	}
	for i, m := range o.Mems {
		if m.Index != uint32(i) {
			return fmt.Errorf("object %s: mem %s index %d != position %d", o.Key, m.Name, m.Index, i)
		}
		if m.Depth == 0 {
			return fmt.Errorf("object %s: mem %s has zero depth", o.Key, m.Name)
		}
	}
	for _, c := range o.Consts {
		if err := checkSlot(c.Slot, "const"); err != nil {
			return err
		}
	}
	for name, code := range map[string][]Instr{"comb": o.Comb, "seq": o.Seq} {
		for pc, in := range code {
			if in.Op >= opCount {
				return fmt.Errorf("object %s: %s pc %d: bad opcode %d", o.Key, name, pc, in.Op)
			}
			switch in.Op {
			case OpJmp, OpJz, OpJnz:
				if int(in.B) > len(code) {
					return fmt.Errorf("object %s: %s pc %d: jump target %d out of range", o.Key, name, pc, in.B)
				}
			case OpMemRd, OpMemWr:
				if int(in.B) >= len(o.Mems) {
					return fmt.Errorf("object %s: %s pc %d: memory %d out of range", o.Key, name, pc, in.B)
				}
			case OpDisplay:
				if int(in.Imm) >= len(o.Displays) {
					return fmt.Errorf("object %s: %s pc %d: display %d out of range", o.Key, name, pc, in.Imm)
				}
			}
		}
	}
	return nil
}

// SortedDebug returns debug entries sorted by name, for deterministic
// iteration in state transforms.
func (o *Object) SortedDebug() []SlotDebug {
	out := make([]SlotDebug, len(o.Debug))
	copy(out, o.Debug)
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}
