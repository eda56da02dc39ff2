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

// stateEqual compares a replayed state with a recorded checkpoint's, as
// the session's comparator does once it has adapted the recorded state.
func stateEqual(replayed *sim.State, recorded *checkpoint.Checkpoint) (bool, string) {
	return sim.StateEqual(replayed, recorded.State)
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
	res, err := Run(cps, replayWith(func(c, v uint64) uint64 { return v + 1 }), stateEqual)
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
	}), stateEqual)
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
	restore := setPoolSize(1)
	serial, err := Run(cps, replayWith(step), stateEqual)
	restore()
	if err != nil {
		t.Fatal(err)
	}
	defer setPoolSize(8)()
	parallel, err := Run(cps, replayWith(step), stateEqual)
	if err != nil {
		t.Fatal(err)
	}
	if serial.Workers != 1 || parallel.Workers != 8 {
		t.Errorf("pools of %d and %d workers, want 1 and 8", serial.Workers, parallel.Workers)
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
	}, stateEqual)
	if err == nil {
		t.Fatal("want error")
	}
}

func TestTooFewCheckpoints(t *testing.T) {
	res, err := Run(nil, nil, stateEqual)
	if err != nil || !res.Consistent() {
		t.Fatalf("%v %v", res, err)
	}
	res, err = Run(chain(1, func(c uint64) uint64 { return c }), nil, stateEqual)
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
	defer setPoolSize(4)()
	res, err := Run(cps, replay, stateEqual)
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
