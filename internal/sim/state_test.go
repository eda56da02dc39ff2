package sim

import (
	"slices"
	"testing"

	"livesim/internal/vm"
)

func TestStateEqualDetails(t *testing.T) {
	a := &State{Cycle: 1, Nodes: []NodeState{{Path: "top", Slots: []uint64{1, 2}, Mems: []Mem{{{5}}}}}}
	same := &State{Cycle: 1, Nodes: []NodeState{{Path: "top", Slots: []uint64{1, 2}, Mems: []Mem{{{5}}}}}}
	if ok, _ := StateEqual(a, same); !ok {
		t.Error("identical states unequal")
	}
	cases := []*State{
		{Cycle: 2, Nodes: same.Nodes},
		{Cycle: 1, Nodes: []NodeState{}},
		{Cycle: 1, Nodes: []NodeState{{Path: "other", Slots: []uint64{1, 2}, Mems: []Mem{{{5}}}}}},
		{Cycle: 1, Nodes: []NodeState{{Path: "top", Slots: []uint64{1, 3}, Mems: []Mem{{{5}}}}}},
		{Cycle: 1, Nodes: []NodeState{{Path: "top", Slots: []uint64{1, 2}, Mems: []Mem{{{6}}}}}},
		{Cycle: 1, Nodes: []NodeState{{Path: "top", Slots: []uint64{1, 2}, Mems: []Mem{{{5, 6}}}}}},
	}
	for i, b := range cases {
		if ok, detail := StateEqual(a, b); ok || detail == "" {
			t.Errorf("case %d: ok=%v detail=%q", i, ok, detail)
		}
	}
}

// deepCopy copies a state into pages it shares with nothing.
func deepCopy(st *State) *State {
	out := &State{Cycle: st.Cycle, Finished: st.Finished}
	for _, n := range st.Nodes {
		c := NodeState{Path: n.Path, ObjKey: n.ObjKey, NumSlots: n.NumSlots, Present: n.Present, Slots: append([]uint64(nil), n.Slots...)}
		for _, m := range n.Mems {
			flat := make([]uint64, m.Len())
			m.CopyTo(flat)
			c.Mems = append(c.Mems, PagedMem(flat))
		}
		out.Nodes = append(out.Nodes, c)
	}
	return out
}

// TestComparisonsSkipSharedPages: StateEqual does not read a page two
// states share, and gives the verdict and the first-difference message it
// gives on unshared copies of the same states.
func TestComparisonsSkipSharedPages(t *testing.T) {
	words := make([]uint64, 3*PageWords+7)
	for i := range words {
		words[i] = uint64(i) * 3
	}
	a := &State{Cycle: 4, Nodes: []NodeState{{Path: "top", ObjKey: "m", Slots: []uint64{1}, Mems: []Mem{PagedMem(words)}}}}
	// variant shares every page of a but page p, which differs at word w.
	variant := func(p, w int) *State {
		b := &State{Cycle: 4, Nodes: []NodeState{{Path: "top", ObjKey: "m", Slots: []uint64{1}}}}
		m := append(Mem(nil), a.Nodes[0].Mems[0]...)
		if p >= 0 {
			m[p] = append([]uint64(nil), m[p]...)
			m[p][w] ^= 0x40
		}
		b.Nodes[0].Mems = []Mem{m}
		return b
	}
	for _, c := range []struct {
		name  string
		b     *State
		equal bool
	}{
		{"all pages shared", variant(-1, 0), true},
		{"first word", variant(0, 0), false},
		{"last word of a full page", variant(1, PageWords-1), false},
		{"last word of the short page", variant(3, 6), false},
	} {
		ok, detail := StateEqual(a, c.b)
		dok, ddetail := StateEqual(deepCopy(a), deepCopy(c.b))
		if ok != c.equal || ok != dok || detail != ddetail {
			t.Errorf("%s: StateEqual shared (%v, %q), unshared (%v, %q), want equal=%v", c.name, ok, detail, dok, ddetail, c.equal)
		}
	}
}

// TestStateSetsFollowTheBinds: a node's captured slots are its object's
// StateSlots less what a bind alone or a fill entry writes, and with what
// a bind shares with another writer. top's z is written by top's own
// code and by two children, so its value depends on who wrote last; mid
// is wiring only, its two slots transit; the leaves' inputs are bound
// and their outputs derived.
func TestStateSetsFollowTheBinds(t *testing.T) {
	const mask = 0xff
	leaf := &vm.Object{
		Key: "leaf", NumSlots: 2,
		Ports: []vm.Port{{Name: "a", Dir: vm.In, Slot: 0, Mask: mask}, {Name: "y", Dir: vm.Out, Slot: 1, Mask: mask}},
		Comb:  []vm.Instr{{Op: vm.OpMove, Dst: 1, A: 0}},
	}
	mid := &vm.Object{
		Key: "mid", NumSlots: 2,
		Ports:    []vm.Port{{Name: "p", Dir: vm.In, Slot: 0, Mask: mask}, {Name: "q", Dir: vm.Out, Slot: 1, Mask: mask}},
		Children: []vm.Child{{InstName: "u", ObjectKey: "leaf", Binds: []vm.ChildBind{{ParentSlot: 0, ChildPort: 0}, {ParentSlot: 1, ChildPort: 1}}}},
	}
	top := &vm.Object{
		Key: "top", NumSlots: 3,
		Ports: []vm.Port{{Name: "x", Dir: vm.In, Slot: 0, Mask: mask}, {Name: "z", Dir: vm.Out, Slot: 1, Mask: mask}},
		Comb:  []vm.Instr{{Op: vm.OpMove, Dst: 2, A: 0}, {Op: vm.OpMove, Dst: 1, A: 2}},
		Children: []vm.Child{
			{InstName: "m", ObjectKey: "mid", Binds: []vm.ChildBind{{ParentSlot: 0, ChildPort: 0}, {ParentSlot: 1, ChildPort: 1}}},
			{InstName: "v", ObjectKey: "leaf", Binds: []vm.ChildBind{{ParentSlot: 0, ChildPort: 0}, {ParentSlot: 1, ChildPort: 1}}},
		},
	}
	s, err := New(tableResolver(map[string]*vm.Object{"leaf": leaf, "mid": mid, "top": top}), "top")
	if err != nil {
		t.Fatal(err)
	}
	want := map[string][]uint32{"top": {0, 1}, "top.m": {}, "top.m.u": {}, "top.v": {}}
	for _, n := range s.Nodes() {
		got := []uint32{}
		for x := range n.Obj.NumSlots {
			if n.state == nil || n.state.Has(x) {
				got = append(got, x)
			}
		}
		if !slices.Equal(got, want[n.Path]) {
			t.Errorf("%s captures slots %v, want %v", n.Path, got, want[n.Path])
		}
	}
}
