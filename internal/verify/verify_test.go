package verify

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"livesim/internal/checkpoint"
	"livesim/internal/sim"
)

// mkCp builds a checkpoint whose single node carries value v at cycle c.
func mkCp(c, v uint64) *checkpoint.Checkpoint {
	st := &sim.State{
		Cycle: c,
		Nodes: []sim.NodeState{{Path: "top", ObjKey: "m", Slots: []uint64{v}}},
	}
	store := checkpoint.NewStore()
	return store.Add(st, "v1", 0)
}

// chain builds checkpoints at cycles 0,10,20,... where the recorded value
// follows value(c) — a stand-in for deterministic simulation.
func chain(n int, value func(cycle uint64) uint64) []*checkpoint.Checkpoint {
	cps := make([]*checkpoint.Checkpoint, n)
	for i := range cps {
		c := uint64(i * 10)
		cps[i] = mkCp(c, value(c))
	}
	return cps
}

// replayWith simulates the new code's behaviour: starting from the source
// checkpoint's value, advance to toCycle using step().
func replayWith(step func(cycle, v uint64) uint64) ReplayFn {
	return func(from *checkpoint.Checkpoint, toCycle uint64) (*sim.State, error) {
		v := from.State.Nodes[0].Slots[0]
		for c := from.Cycle; c < toCycle; c++ {
			v = step(c, v)
		}
		return &sim.State{
			Cycle: toCycle,
			Nodes: []sim.NodeState{{Path: "top", ObjKey: "m", Slots: []uint64{v}}},
		}, nil
	}
}

func TestAllConsistent(t *testing.T) {
	// Recorded: value = cycle. Replay: +1 per cycle. Identical behaviour.
	cps := chain(8, func(c uint64) uint64 { return c })
	res, err := Run(cps, replayWith(func(c, v uint64) uint64 { return v + 1 }), Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Consistent() {
		t.Fatalf("divergence at %d: %+v", res.FirstDivergence, res.Segments[res.FirstDivergence])
	}
	for i, sr := range res.Segments {
		if sr.Skipped || !sr.Consistent {
			t.Errorf("segment %d: %+v", i, sr)
		}
	}
}

func TestEarliestDivergenceFound(t *testing.T) {
	// Recorded behaviour: +1/cycle. New behaviour: +1 until cycle 35,
	// then +2 — segments covering cycles >= 35 diverge; earliest is
	// segment 3 (30..40).
	cps := chain(8, func(c uint64) uint64 { return c })
	res, err := Run(cps, replayWith(func(c, v uint64) uint64 {
		if c >= 35 {
			return v + 2
		}
		return v + 1
	}), Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.Consistent() {
		t.Fatal("expected divergence")
	}
	if res.FirstDivergence != 3 {
		t.Errorf("first divergence %d want 3", res.FirstDivergence)
	}
	for i := 0; i < 3; i++ {
		if !res.Segments[i].Consistent {
			t.Errorf("segment %d should be consistent", i)
		}
	}
	if res.Segments[3].Detail == "" {
		t.Error("missing divergence detail")
	}
}

func TestSerialAndParallelAgree(t *testing.T) {
	cps := chain(16, func(c uint64) uint64 { return c * 3 })
	step := func(c, v uint64) uint64 {
		if c >= 77 {
			return v + 5
		}
		return v + 3
	}
	serial, err := Run(cps, replayWith(step), Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := Run(cps, replayWith(step), Options{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	if serial.FirstDivergence != parallel.FirstDivergence {
		t.Errorf("serial %d parallel %d", serial.FirstDivergence, parallel.FirstDivergence)
	}
}

func TestReplayErrorPropagates(t *testing.T) {
	cps := chain(4, func(c uint64) uint64 { return c })
	boom := errors.New("boom")
	_, err := Run(cps, func(from *checkpoint.Checkpoint, to uint64) (*sim.State, error) {
		return nil, boom
	}, Options{Workers: 2})
	if err == nil {
		t.Fatal("want error")
	}
}

func TestTooFewCheckpoints(t *testing.T) {
	res, err := Run(nil, nil, Options{})
	if err != nil || !res.Consistent() {
		t.Fatalf("%v %v", res, err)
	}
	res, err = Run(chain(1, func(c uint64) uint64 { return c }), nil, Options{})
	if err != nil || !res.Consistent() {
		t.Fatalf("%v %v", res, err)
	}
}

func TestParallelismActuallyUsed(t *testing.T) {
	cps := chain(9, func(c uint64) uint64 { return c })
	var inflight, maxInflight int64
	rendezvous := make(chan struct{})
	var closeOnce int64
	replay := func(from *checkpoint.Checkpoint, to uint64) (*sim.State, error) {
		cur := atomic.AddInt64(&inflight, 1)
		for {
			old := atomic.LoadInt64(&maxInflight)
			if cur <= old || atomic.CompareAndSwapInt64(&maxInflight, old, cur) {
				break
			}
		}
		if cur >= 2 && atomic.CompareAndSwapInt64(&closeOnce, 0, 1) {
			close(rendezvous) // two replays are provably concurrent
		}
		select {
		case <-rendezvous:
		case <-time.After(200 * time.Millisecond):
		}
		atomic.AddInt64(&inflight, -1)
		return replayWith(func(c, v uint64) uint64 { return v + 1 })(from, to)
	}
	res, err := Run(cps, replay, Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.Workers != 4 {
		t.Errorf("workers %d", res.Workers)
	}
	if atomic.LoadInt64(&maxInflight) < 2 {
		t.Errorf("max inflight %d; expected overlap", maxInflight)
	}
}

func TestStateEqualDetails(t *testing.T) {
	a := &sim.State{Cycle: 1, Nodes: []sim.NodeState{{Path: "top", Slots: []uint64{1, 2}, Mems: []sim.Mem{{{5}}}}}}
	same := &sim.State{Cycle: 1, Nodes: []sim.NodeState{{Path: "top", Slots: []uint64{1, 2}, Mems: []sim.Mem{{{5}}}}}}
	if ok, _ := StateEqual(a, same); !ok {
		t.Error("identical states unequal")
	}
	cases := []*sim.State{
		{Cycle: 2, Nodes: same.Nodes},
		{Cycle: 1, Nodes: []sim.NodeState{}},
		{Cycle: 1, Nodes: []sim.NodeState{{Path: "other", Slots: []uint64{1, 2}, Mems: []sim.Mem{{{5}}}}}},
		{Cycle: 1, Nodes: []sim.NodeState{{Path: "top", Slots: []uint64{1, 3}, Mems: []sim.Mem{{{5}}}}}},
		{Cycle: 1, Nodes: []sim.NodeState{{Path: "top", Slots: []uint64{1, 2}, Mems: []sim.Mem{{{6}}}}}},
		{Cycle: 1, Nodes: []sim.NodeState{{Path: "top", Slots: []uint64{1, 2}, Mems: []sim.Mem{{{5, 6}}}}}},
	}
	for i, b := range cases {
		if ok, detail := StateEqual(a, b); ok || detail == "" {
			t.Errorf("case %d: ok=%v detail=%q", i, ok, detail)
		}
	}
}

func TestRegsEqual(t *testing.T) {
	a := &sim.State{Nodes: []sim.NodeState{{Path: "top", ObjKey: "m", Slots: []uint64{1, 99}}}}
	b := &sim.State{Nodes: []sim.NodeState{{Path: "top", ObjKey: "m", Slots: []uint64{1, 42}}}}
	// Slot 1 is a wire: comparing only reg slot 0 passes.
	if ok, _ := RegsEqual(a, b, map[string][]uint32{"m": {0}}); !ok {
		t.Error("reg-only compare should pass")
	}
	if ok, _ := RegsEqual(a, b, map[string][]uint32{"m": {0, 1}}); ok {
		t.Error("reg compare including slot 1 should fail")
	}
}

// deepCopy copies a state into pages it shares with nothing.
func deepCopy(st *sim.State) *sim.State {
	out := &sim.State{Cycle: st.Cycle, Finished: st.Finished}
	for _, n := range st.Nodes {
		c := sim.NodeState{Path: n.Path, ObjKey: n.ObjKey, Slots: append([]uint64(nil), n.Slots...)}
		for _, m := range n.Mems {
			flat := make([]uint64, m.Len())
			m.CopyTo(flat)
			c.Mems = append(c.Mems, sim.PagedMem(flat))
		}
		out.Nodes = append(out.Nodes, c)
	}
	return out
}

// TestComparisonsSkipSharedPages: StateEqual and RegsEqual do not read a
// page two states share, and give the verdict and the first-difference
// message they give on unshared copies of the same states.
func TestComparisonsSkipSharedPages(t *testing.T) {
	words := make([]uint64, 3*sim.PageWords+7)
	for i := range words {
		words[i] = uint64(i) * 3
	}
	a := &sim.State{Cycle: 4, Nodes: []sim.NodeState{{Path: "top", ObjKey: "m", Slots: []uint64{1}, Mems: []sim.Mem{sim.PagedMem(words)}}}}
	// variant shares every page of a but page p, which differs at word w.
	variant := func(p, w int) *sim.State {
		b := &sim.State{Cycle: 4, Nodes: []sim.NodeState{{Path: "top", ObjKey: "m", Slots: []uint64{1}}}}
		m := append(sim.Mem(nil), a.Nodes[0].Mems[0]...)
		if p >= 0 {
			m[p] = append([]uint64(nil), m[p]...)
			m[p][w] ^= 0x40
		}
		b.Nodes[0].Mems = []sim.Mem{m}
		return b
	}
	regs := map[string][]uint32{"m": {0}}
	for _, c := range []struct {
		name  string
		b     *sim.State
		equal bool
	}{
		{"all pages shared", variant(-1, 0), true},
		{"first word", variant(0, 0), false},
		{"last word of a full page", variant(1, sim.PageWords-1), false},
		{"last word of the short page", variant(3, 6), false},
	} {
		ok, detail := StateEqual(a, c.b)
		dok, ddetail := StateEqual(deepCopy(a), deepCopy(c.b))
		if ok != c.equal || ok != dok || detail != ddetail {
			t.Errorf("%s: StateEqual shared (%v, %q), unshared (%v, %q), want equal=%v", c.name, ok, detail, dok, ddetail, c.equal)
		}
		ok, detail = RegsEqual(a, c.b, regs)
		dok, ddetail = RegsEqual(deepCopy(a), deepCopy(c.b), regs)
		if ok != c.equal || ok != dok || detail != ddetail {
			t.Errorf("%s: RegsEqual shared (%v, %q), unshared (%v, %q), want equal=%v", c.name, ok, detail, dok, ddetail, c.equal)
		}
	}
}
