// Package verify implements the checkpoint consistency verification of
// Sections III-F and Figure 6 of the paper.
//
// After a hot patch, old checkpoints may describe states the new code can
// never reach. Rather than re-running the whole simulation from cycle 0,
// LiveSim verifies checkpoint-to-checkpoint: each segment [cp_i, cp_i+1]
// is replayed under the new code starting from cp_i's (transformed) state,
// and the result is compared with cp_i+1. Segments are independent, so
// they verify in parallel — "this operation can be easily made parallel
// and can scale to a large number of cores (as many as checkpoints before
// the current cycle)". The earliest diverging segment tells the session
// where its fast estimate stops being trustworthy, and is itself a useful
// debugging fact ("identifying at which checkpoint the divergence
// occurred").
package verify

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"livesim/internal/checkpoint"
	"livesim/internal/sim"
)

// ReplayFn re-executes the simulation under the *current* code from the
// given checkpoint's state up to toCycle, returning the resulting state.
// The session supplies this; it encapsulates state transformation and
// testbench-history replay.
type ReplayFn func(from *checkpoint.Checkpoint, toCycle uint64) (*sim.State, error)

// CompareFn decides whether a replayed state is consistent with a
// recorded checkpoint. detail describes the first difference found.
type CompareFn func(replayed *sim.State, recorded *checkpoint.Checkpoint) (consistent bool, detail string)

// SegmentResult reports one verified segment.
type SegmentResult struct {
	FromCycle, ToCycle uint64
	Consistent         bool
	Skipped            bool // canceled because an earlier divergence was found
	Detail             string
	Err                error
	Elapsed            time.Duration
}

// Result is the outcome of a verification run.
type Result struct {
	Segments []SegmentResult
	// FirstDivergence is the index of the earliest inconsistent segment,
	// or -1 when every checked segment was consistent.
	FirstDivergence int
	// Workers is the parallelism actually used.
	Workers int
	Elapsed time.Duration
}

// Consistent reports whether all segments verified clean.
func (r *Result) Consistent() bool { return r.FirstDivergence < 0 }

// Options configures a verification run.
type Options struct {
	// Workers is the worker-pool size; 0 means GOMAXPROCS.
	Workers int
	// Compare overrides the state comparator; nil uses StateEqual.
	Compare CompareFn
}

// Run verifies consecutive checkpoint segments in parallel. cps must be
// ordered by cycle (checkpoint.Store.Before returns them that way).
func Run(cps []*checkpoint.Checkpoint, replay ReplayFn, opts Options) (*Result, error) {
	if len(cps) < 2 {
		return &Result{FirstDivergence: -1, Workers: 0}, nil
	}
	compare := opts.Compare
	if compare == nil {
		compare = func(replayed *sim.State, recorded *checkpoint.Checkpoint) (bool, string) {
			return StateEqual(replayed, recorded.State)
		}
	}
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	nseg := len(cps) - 1
	if workers > nseg {
		workers = nseg
	}

	res := &Result{
		Segments:        make([]SegmentResult, nseg),
		FirstDivergence: -1,
		Workers:         workers,
	}
	start := time.Now()

	// earliestBad lets workers skip segments that no longer matter.
	earliestBad := int64(nseg)
	var next int64 = -1
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(atomic.AddInt64(&next, 1))
				if i >= nseg {
					return
				}
				sr := &res.Segments[i]
				sr.FromCycle = cps[i].Cycle
				sr.ToCycle = cps[i+1].Cycle
				if int64(i) > atomic.LoadInt64(&earliestBad) {
					sr.Skipped = true
					continue
				}
				t0 := time.Now()
				replayed, err := replay(cps[i], cps[i+1].Cycle)
				if err != nil {
					sr.Err = err
					sr.Elapsed = time.Since(t0)
					storeMin(&earliestBad, int64(i))
					continue
				}
				ok, detail := compare(replayed, cps[i+1])
				sr.Consistent = ok
				sr.Detail = detail
				sr.Elapsed = time.Since(t0)
				if !ok {
					storeMin(&earliestBad, int64(i))
				}
			}
		}()
	}
	wg.Wait()
	res.Elapsed = time.Since(start)

	for i := range res.Segments {
		sr := &res.Segments[i]
		if sr.Err != nil {
			return res, fmt.Errorf("segment %d (%d..%d): %w", i, sr.FromCycle, sr.ToCycle, sr.Err)
		}
		if !sr.Skipped && !sr.Consistent {
			res.FirstDivergence = i
			break
		}
	}
	return res, nil
}

func storeMin(addr *int64, v int64) {
	for {
		cur := atomic.LoadInt64(addr)
		if v >= cur || atomic.CompareAndSwapInt64(addr, cur, v) {
			return
		}
	}
}

// StateEqual compares two simulation states structurally, reporting the
// first differing signal or memory word. Memory pages the two states
// share are skipped, not compared.
func StateEqual(a, b *sim.State) (bool, string) {
	if a.Cycle != b.Cycle {
		return false, fmt.Sprintf("cycle %d vs %d", a.Cycle, b.Cycle)
	}
	if len(a.Nodes) != len(b.Nodes) {
		return false, fmt.Sprintf("instance count %d vs %d", len(a.Nodes), len(b.Nodes))
	}
	for i := range a.Nodes {
		na, nb := &a.Nodes[i], &b.Nodes[i]
		if na.Path != nb.Path {
			return false, fmt.Sprintf("node %d path %q vs %q", i, na.Path, nb.Path)
		}
		if len(na.Slots) != len(nb.Slots) {
			return false, fmt.Sprintf("%s: slot count %d vs %d", na.Path, len(na.Slots), len(nb.Slots))
		}
		for j := range na.Slots {
			if na.Slots[j] != nb.Slots[j] {
				return false, fmt.Sprintf("%s slot %d: %#x vs %#x", na.Path, j, na.Slots[j], nb.Slots[j])
			}
		}
		if len(na.Mems) != len(nb.Mems) {
			return false, fmt.Sprintf("%s: memory count differs", na.Path)
		}
		for mi := range na.Mems {
			ma, mb := na.Mems[mi], nb.Mems[mi]
			if ma.Len() != mb.Len() {
				return false, fmt.Sprintf("%s mem %d: depth %d vs %d", na.Path, mi, ma.Len(), mb.Len())
			}
			if j := sim.FirstDiff(ma, mb, ^uint64(0)); j >= 0 {
				return false, fmt.Sprintf("%s mem %d[%d]: %#x vs %#x", na.Path, mi, j, ma.At(j), mb.At(j))
			}
		}
	}
	return true, ""
}

// RegsEqual compares only architectural registers (by slot position) —
// useful when wire slots may legitimately differ (e.g. unsettled comb
// state in a stored checkpoint).
func RegsEqual(a, b *sim.State, regSlots map[string][]uint32) (bool, string) {
	if len(a.Nodes) != len(b.Nodes) {
		return false, "instance count differs"
	}
	for i := range a.Nodes {
		na, nb := &a.Nodes[i], &b.Nodes[i]
		slots := regSlots[na.ObjKey]
		for _, s := range slots {
			if int(s) >= len(na.Slots) || int(s) >= len(nb.Slots) {
				return false, fmt.Sprintf("%s: reg slot %d out of range", na.Path, s)
			}
			if na.Slots[s] != nb.Slots[s] {
				return false, fmt.Sprintf("%s reg slot %d: %#x vs %#x", na.Path, s, na.Slots[s], nb.Slots[s])
			}
		}
		for mi := range na.Mems {
			if mi >= len(nb.Mems) {
				return false, fmt.Sprintf("%s: memory count differs", na.Path)
			}
			if j := sim.FirstDiff(na.Mems[mi], nb.Mems[mi], ^uint64(0)); j >= 0 {
				return false, fmt.Sprintf("%s mem %d[%d] differs", na.Path, mi, j)
			}
		}
	}
	return true, ""
}
