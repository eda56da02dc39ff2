package sim

import (
	"fmt"
	"strings"
	"testing"

	"livesim/internal/codegen"
	"livesim/internal/prof"
	"livesim/internal/vm"
)

// stallSrc is a counter that saturates: u_cnt's q advances 0..5 and then
// holds, so its commits are state-changing for exactly 5 cycles and
// quiescent forever after — a known ground truth for toggle/quiescence
// accounting. The top module has no registers, so every one of its
// commits is quiescent.
const stallSrc = `
module satcnt (input clk, output reg [3:0] q);
  always @(posedge clk) if (q != 4'd5) q <= q + 1;
endmodule
module stall (input clk, input [3:0] in, output [3:0] sum);
  wire [3:0] a;
  satcnt u_cnt (.clk(clk), .q(a));
  assign sum = a + in;
endmodule
`

func TestProfilerQuiescenceAccounting(t *testing.T) {
	objs, top := buildDesign(t, stallSrc, "stall", codegen.StyleGrouped)
	s, err := New(tableResolver(objs), top)
	if err != nil {
		t.Fatal(err)
	}
	p := prof.New()
	s.SetProfiler(p)
	if s.Profiler() != p {
		t.Fatal("profiler not attached")
	}

	const cycles = 20
	if err := s.Tick(cycles); err != nil {
		t.Fatal(err)
	}
	snap := p.Snapshot()
	if snap.Instances != s.NumInstances() {
		t.Fatalf("snapshot instances %d, sim has %d", snap.Instances, s.NumInstances())
	}
	// A clock edge runs only where it can change something: u_cnt's on
	// cycles 0..5 (after the first settle, then after each commit that
	// moved q), top's on the same cycles (its comb code reads a). From
	// cycle 6 on both are skipped and counted as quiescent commits.
	if snap.Cycles != cycles || snap.SeqEvals != 12 {
		t.Fatalf("cycles %d seqEvals %d, want %d/12", snap.Cycles, snap.SeqEvals, cycles)
	}

	byPath := map[string]prof.InstStat{}
	for _, st := range snap.Insts {
		byPath[st.Path] = st
	}
	cnt, ok := byPath["top.u_cnt"]
	if !ok {
		t.Fatalf("no top.u_cnt in %v", pathsOf(snap))
	}
	// q changes on cycles 0..4 (0->1 .. 4->5), then saturates.
	if cnt.Toggles != 5 || cnt.QuiescentEvals != cycles-5 {
		t.Errorf("u_cnt toggles %d quiescent %d, want 5/%d", cnt.Toggles, cnt.QuiescentEvals, cycles-5)
	}
	if !cnt.EverActive || cnt.LastActiveCycle != 4 {
		t.Errorf("u_cnt everActive %v lastActive %d, want true/4", cnt.EverActive, cnt.LastActiveCycle)
	}
	if cnt.QuietStreak != cycles-5 || cnt.MaxQuietStreak != cycles-5 {
		t.Errorf("u_cnt streak %d/%d, want %d", cnt.QuietStreak, cnt.MaxQuietStreak, cycles-5)
	}
	if cnt.SeqEvals != 6 || cnt.CombEvals == 0 {
		t.Errorf("u_cnt seq %d comb %d, want 6 seq evals", cnt.SeqEvals, cnt.CombEvals)
	}
	topStat := byPath["top"]
	if topStat.EverActive || topStat.Toggles != 0 || topStat.QuiescentEvals != cycles {
		t.Errorf("top should be fully quiescent: %+v", topStat)
	}
	// The design-wide quiescent fraction: all instance-evals except
	// u_cnt's first five changed nothing.
	wantQ := uint64(cycles*s.NumInstances() - 5)
	if snap.QuiescentEvals != wantQ {
		t.Errorf("quiescent %d want %d", snap.QuiescentEvals, wantQ)
	}
}

func TestProfilerDetachStopsRecording(t *testing.T) {
	objs, top := buildDesign(t, stallSrc, "stall", codegen.StyleGrouped)
	s, err := New(tableResolver(objs), top)
	if err != nil {
		t.Fatal(err)
	}
	p := prof.New()
	s.SetProfiler(p)
	if err := s.Tick(4); err != nil {
		t.Fatal(err)
	}
	s.SetProfiler(nil)
	if s.Profiler() != nil {
		t.Fatal("still attached")
	}
	before := p.Snapshot()
	if err := s.Tick(16); err != nil {
		t.Fatal(err)
	}
	after := p.Snapshot()
	if after.SeqEvals != before.SeqEvals || after.Cycles != before.Cycles {
		t.Errorf("detached profiler kept recording: %d -> %d evals", before.SeqEvals, after.SeqEvals)
	}
	// Reattaching resumes into the same statistics, and the cycle-range
	// bookkeeping absorbs the gap.
	s.SetProfiler(p)
	if err := s.Tick(2); err != nil {
		t.Fatal(err)
	}
	final := p.Snapshot()
	if final.Cycles != before.Cycles+2 {
		t.Errorf("cycles %d want %d", final.Cycles, before.Cycles+2)
	}
}

func TestProfilerSurvivesReload(t *testing.T) {
	objs, top := buildDesign(t, stallSrc, "stall", codegen.StyleGrouped)
	objs2, _ := buildDesign(t, stallSrc, "stall", codegen.StyleGrouped)
	current := objs
	s, err := New(ResolverFunc(func(key string) (*vm.Object, error) {
		if o, ok := current[key]; ok {
			return o, nil
		}
		return nil, fmt.Errorf("no object %q", key)
	}), top)
	if err != nil {
		t.Fatal(err)
	}
	p := prof.New()
	s.SetProfiler(p)
	if err := s.Tick(8); err != nil {
		t.Fatal(err)
	}
	pre := p.Snapshot()

	// Hot-reload the counter stage with a recompiled object (Reload
	// rebuilds the node index, which must rebind the profiler with stats
	// carried over by path).
	var cntKey string
	for k := range objs {
		if strings.HasPrefix(k, "satcnt") {
			cntKey = k
		}
	}
	current = objs2
	if n, err := s.Reload(cntKey, nil); err != nil {
		t.Fatal(err)
	} else if n != 1 {
		t.Fatalf("reloaded %d instances, want 1", n)
	}
	if err := s.Tick(4); err != nil {
		t.Fatal(err)
	}
	post := p.Snapshot()
	if post.Instances != pre.Instances {
		t.Fatalf("instances %d -> %d across reload", pre.Instances, post.Instances)
	}
	var preCnt, postCnt prof.InstStat
	for _, st := range pre.Insts {
		if st.Path == "top.u_cnt" {
			preCnt = st
		}
	}
	for _, st := range post.Insts {
		if st.Path == "top.u_cnt" {
			postCnt = st
		}
	}
	// Every cycle commits or skips as quiescent; the reload marks every
	// instance, so u_cnt's clock edge runs once after it and is skipped
	// again once q holds 5.
	commits := func(st prof.InstStat) uint64 { return st.Toggles + st.QuiescentEvals }
	if commits(postCnt) != commits(preCnt)+4 || postCnt.SeqEvals != preCnt.SeqEvals+1 {
		t.Errorf("u_cnt commits %d -> %d, seq evals %d -> %d, want +4/+1 carried across reload",
			commits(preCnt), commits(postCnt), preCnt.SeqEvals, postCnt.SeqEvals)
	}
}

// TestProfilerComposesWithVMProfiler drives both profiling seams at
// once: the instance-level activity profiler and the instruction-level
// vm.Profiler.
func TestProfilerComposesWithVMProfiler(t *testing.T) {
	objs, top := buildDesign(t, stallSrc, "stall", codegen.StyleGrouped)
	s, err := New(tableResolver(objs), top)
	if err != nil {
		t.Fatal(err)
	}
	p := prof.New()
	s.SetProfiler(p)
	vp := &countProfiler{}
	if err := s.TickProfiled(10, vp); err != nil {
		t.Fatal(err)
	}
	if vp.instrs == 0 {
		t.Error("vm profiler saw no instructions")
	}
	// The profiled path skips the same clock edges as the plain one (see
	// TestProfilerQuiescenceAccounting) and accounts every instance-cycle.
	if tot := p.Totals(); tot.Toggles+tot.QuiescentEvals != uint64(10*s.NumInstances()) || tot.SeqEvals != 12 {
		t.Errorf("activity profiler missed profiled ticks: %d commits, %d seq evals", tot.Toggles+tot.QuiescentEvals, tot.SeqEvals)
	}
}

type countProfiler struct{ instrs, datas int }

func (c *countProfiler) Instr(uint64, bool, bool) { c.instrs++ }
func (c *countProfiler) Data(uint64, bool)        { c.datas++ }

func pathsOf(s *prof.Snapshot) []string {
	out := make([]string, len(s.Insts))
	for i, st := range s.Insts {
		out[i] = st.Path
	}
	return out
}
