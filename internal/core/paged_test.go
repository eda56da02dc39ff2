package core

import (
	"os"
	"path/filepath"
	"sync"
	"testing"

	"livesim/internal/checkpoint"
	"livesim/internal/liveparser"
	"livesim/internal/sim"
)

// TestLoadCheckpointRefusesMisfitLastNode: a checkpoint file whose last
// node carries more slots than the running object fails the load before
// any node is written, so the pipe keeps exactly the state it had.
func TestLoadCheckpointRefusesMisfitLastNode(t *testing.T) {
	s := newAccSession(t, accDesign)
	if _, err := s.InstPipe("p0"); err != nil {
		t.Fatal(err)
	}
	if err := s.Run("tb0", "p0", 25); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "cp.lscp")
	if err := s.SaveCheckpoint("p0", path); err != nil {
		t.Fatal(err)
	}
	if err := s.Run("tb0", "p0", 25); err != nil {
		t.Fatal(err)
	}
	fc, _, err := checkpoint.LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	last := &fc.State.Nodes[len(fc.State.Nodes)-1]
	if last.Present == nil {
		last.Slots = append(last.Slots, 0, 0)
	} else {
		last.NumSlots += 2
	}
	cp := &checkpoint.Checkpoint{Version: fc.Version, HistoryPos: fc.HistoryPos, State: fc.State, Aux: fc.Aux}
	if err := os.WriteFile(path, checkpoint.EncodeFile(cp), 0o644); err != nil {
		t.Fatal(err)
	}

	pre := printSession(s)
	if err := s.LoadCheckpoint("p0", path); err == nil {
		t.Fatalf("LoadCheckpoint of a state with two more slots in %s succeeded", last.Path)
	}
	requireIdentical(t, pre, printSession(s))
}

const memDesign = `
module mem_stage (input clk, input [15:0] d, output reg [31:0] cyc);
  reg [15:0] ram [0:1023];
  always @(posedge clk) begin
    cyc <= cyc + 1;
    ram[cyc[9:0]] <= d + cyc[15:0];
  end
endmodule
module mem_top (input clk, input [15:0] d, output [31:0] cyc);
  mem_stage u0 (.clk(clk), .d(d), .cyc(cyc));
endmodule
`

// newMemSession runs memDesign in pipe p0, checkpointing every 10 cycles.
func newMemSession(t *testing.T) *Session {
	t.Helper()
	s := NewSession("mem_top", Config{CheckpointEvery: 10, Lookback: 10})
	if _, err := s.LoadDesign(liveparser.Source{Files: map[string]string{"mem.v": memDesign}}); err != nil {
		t.Fatal(err)
	}
	s.RegisterTestbench("tb0", NewStatelessTB(func(d *Driver, cycle uint64) error {
		return d.SetIn("d", uint64(cycle%7))
	}))
	if _, err := s.InstPipe("p0"); err != nil {
		t.Fatal(err)
	}
	return s
}

// unsharedState copies a state into pages it shares with nothing.
func unsharedState(st *sim.State) *sim.State {
	out := &sim.State{Cycle: st.Cycle, Finished: st.Finished}
	for _, n := range st.Nodes {
		c := sim.NodeState{Path: n.Path, ObjKey: n.ObjKey, NumSlots: n.NumSlots, Present: n.Present, Slots: append([]uint64(nil), n.Slots...)}
		for _, m := range n.Mems {
			flat := make([]uint64, m.Len())
			m.CopyTo(flat)
			c.Mems = append(c.Mems, sim.PagedMem(flat))
		}
		out.Nodes = append(out.Nodes, c)
	}
	return out
}

// TestCompareToRecordedSkipsSharedPages: a replayed state that shares
// pages with the recorded checkpoint gets the verdict and the message an
// unshared copy of it gets, wherever the first difference lies.
func TestCompareToRecordedSkipsSharedPages(t *testing.T) {
	s := newMemSession(t)
	if err := s.Run("tb0", "p0", 30); err != nil {
		t.Fatal(err)
	}
	recorded, err := s.Checkpoint("p0")
	if err != nil {
		t.Fatal(err)
	}
	node := len(recorded.State.Nodes) - 1
	if got := len(recorded.State.Nodes[node].Mems[0]); got < 2 {
		t.Fatalf("ram has %d pages, the test needs two or more", got)
	}
	// variant shares every page of the recorded state but page p, which
	// differs at word w.
	variant := func(p, w int) *sim.State {
		st := unsharedState(recorded.State)
		for i := range st.Nodes {
			st.Nodes[i].Mems = recorded.State.Nodes[i].Mems
		}
		if p >= 0 {
			m := append(sim.Mem(nil), st.Nodes[node].Mems[0]...)
			m[p] = append([]uint64(nil), m[p]...)
			m[p][w] ^= 0x40
			st.Nodes[node].Mems = []sim.Mem{m}
		}
		return st
	}
	unshared := &checkpoint.Checkpoint{Version: recorded.Version, State: unsharedState(recorded.State)}
	for _, c := range []struct {
		name       string
		replayed   *sim.State
		consistent bool
	}{
		{"all pages shared", variant(-1, 0), true},
		{"first word", variant(0, 0), false},
		{"last word of a page", variant(0, sim.PageWords-1), false},
		{"last word of the memory", variant(len(recorded.State.Nodes[node].Mems[0])-1, 1023%sim.PageWords), false},
	} {
		ok, detail := s.compareToRecorded(c.replayed, recorded)
		dok, ddetail := s.compareToRecorded(unsharedState(c.replayed), unshared)
		if ok != c.consistent || ok != dok || detail != ddetail {
			t.Errorf("%s: shared (%v, %q), unshared (%v, %q), want consistent=%v", c.name, ok, detail, dok, ddetail, c.consistent)
		}
	}
}

// TestConcurrentReplaysShareOneState: verification replays restore the
// same checkpoint on several goroutines while the session keeps running
// and capturing (run under -race). Each replay shares the pages it did
// not write with that checkpoint and reaches the state the session
// recorded next.
func TestConcurrentReplaysShareOneState(t *testing.T) {
	s := newMemSession(t)
	if err := s.Run("tb0", "p0", 40); err != nil {
		t.Fatal(err)
	}
	p := mustPipe(t, s, "p0")
	cps := p.Checkpoints.Before(40)
	if len(cps) < 3 {
		t.Fatalf("%d checkpoints", len(cps))
	}
	from, to := cps[1], cps[2]
	replayed := make([]*sim.State, 4)
	errs := make([]error, len(replayed))
	var wg sync.WaitGroup
	for g := range replayed {
		wg.Add(1)
		go func() {
			defer wg.Done()
			replayed[g], errs[g] = s.verifyReplay(p, from, to.Cycle)
		}()
	}
	if err := s.Run("tb0", "p0", 50); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	for g, st := range replayed {
		if errs[g] != nil {
			t.Fatal(errs[g])
		}
		if ok, detail := s.compareToRecorded(st, to); !ok {
			t.Errorf("replay %d: %s", g, detail)
		}
		shared := 0
		for i, n := range st.Nodes {
			for mi, m := range n.Mems {
				for pi, page := range m {
					if sim.SamePage(page, from.State.Nodes[i].Mems[mi][pi]) {
						shared++
					}
				}
			}
		}
		if shared == 0 {
			t.Errorf("replay %d shares no page with the checkpoint it started from", g)
		}
	}
}
