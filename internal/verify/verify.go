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

// poolSize is how many segments Run replays at once: one per CPU the Go
// scheduler may use.
var poolSize = func() int { return runtime.GOMAXPROCS(0) }

// Run verifies consecutive checkpoint segments in parallel, comparing
// each replayed state with the next checkpoint by compare. cps must be
// ordered by cycle (checkpoint.Store.Before returns them that way).
func Run(cps []*checkpoint.Checkpoint, replay ReplayFn, compare CompareFn) (*Result, error) {
	if len(cps) < 2 {
		return &Result{FirstDivergence: -1, Workers: 0}, nil
	}
	nseg := len(cps) - 1
	workers := min(poolSize(), nseg)

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
