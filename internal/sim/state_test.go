package sim

import "testing"

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
		c := NodeState{Path: n.Path, ObjKey: n.ObjKey, Slots: append([]uint64(nil), n.Slots...)}
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
