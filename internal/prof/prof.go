// Package prof is the simulation-core activity profiler: the instrument
// that tells you where a simulation's time goes and — the number that
// motivates activity-driven scheduling — how much of it changes nothing.
// Per instance it tracks eval counts, cheaply sampled cumulative eval
// time, state-change ("toggle") counts and consecutive-quiescent-cycle
// streaks; per hierarchy level it aggregates evals and time so the
// levelized graph's parallelism potential is visible; and it keeps a
// cycle-bucketed activity series per instance that answers "when did
// this module go quiet".
//
// The profiler is always compiled in and nil-cost when off: the kernel
// holds a *Profiler pointer and pays exactly one predictable branch per
// instrumented site when it is nil. Attached, the hot-path cost is a
// handful of uncontended atomic adds per instance eval plus one
// time.Now() pair every SampleEvery evals (the elapsed time is scaled
// back up, so cumulative eval time stays unbiased while the timer cost
// is amortized to noise).
//
// Concurrency contract: the recording methods (SampleStart, CombDone,
// EdgeDone, SeqDone, Commit, EndCycle) and the rebinding methods (Bind, Reset)
// must all be called from the goroutine that owns the simulation —
// livesimd's per-session worker already serializes them with runs.
// Snapshot may be called from any goroutine at any time (the admin
// plane's /profilez scrapes a running simulation): the hot counters are
// atomics and the cold state is mutex-guarded.
package prof

import (
	"sync"
	"sync/atomic"
	"time"
)

// SampleEvery is the eval-time sampling period: one in every SampleEvery
// instance evals is timed and the measured duration is multiplied back
// up. Must be a power of two (the hot path masks instead of dividing).
const SampleEvery = 64

// ActivityBuckets is the fixed length of every instance's activity
// series. When the simulation outgrows the current bucket width,
// adjacent buckets merge and the width doubles, so the series always
// spans the whole profiled cycle range at this resolution.
const ActivityBuckets = 64

// InstMeta identifies one instance of the bound hierarchy. The kernel
// supplies these in pre-order, so children always follow their parent.
type InstMeta struct {
	Path   string // full hierarchical path, "." separated
	Key    string // object specialization key
	Parent int    // index of the parent instance; -1 for the root
	Depth  int    // hierarchy level; the root is 0
}

// instHot is the per-instance hot-path state: plain atomics written by
// the simulation goroutine and read by concurrent snapshotters.
type instHot struct {
	combEvals atomic.Uint64
	seqEvals  atomic.Uint64
	edgeEvals atomic.Uint64
	evalNs    atomic.Uint64 // sampled-and-scaled eval time
	toggles   atomic.Uint64 // commits that changed architectural state
	quiescent atomic.Uint64 // commits that changed nothing
}

// instAct is the per-instance cold state, updated once per cycle under
// the profiler mutex by EndCycle.
type instAct struct {
	streak     uint64 // current consecutive quiescent-cycle run
	maxStreak  uint64
	lastActive uint64 // cycle of the most recent state change
	everActive bool
	buckets    [ActivityBuckets]uint32 // active cycles per bucket
}

// Profiler accumulates activity statistics for one bound simulation.
type Profiler struct {
	// mu guards metas, act and the bucket grid.
	mu    sync.Mutex
	metas []InstMeta
	act   []instAct

	// base/width define the shared activity-bucket grid: bucket i covers
	// cycles [base+i*width, base+(i+1)*width).
	base  uint64
	width uint64

	hot []instHot

	// Single-writer fields owned by the simulation goroutine.
	sampleCnt uint64
	pend      []bool // per-instance changed-this-cycle, flushed by EndCycle

	firstCycle atomic.Uint64
	lastCycle  atomic.Uint64
	cycles     atomic.Uint64
	bound      atomic.Bool
}

// New returns an empty profiler; Bind attaches it to a hierarchy.
func New() *Profiler { return &Profiler{} }

// Bind (re)binds the profiler to an instance hierarchy. The kernel calls
// it on attach and again after every hot reload that restructures the
// tree. Statistics carry over for instances whose path survives the
// rebind — a hot swap does not reset the heat map — while instances that
// disappeared are dropped and new ones start cold. cycle is the
// simulation cycle at bind time; it seeds the activity-bucket grid on
// the first bind.
func (p *Profiler) Bind(metas []InstMeta, cycle uint64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	oldIdx := make(map[string]int, len(p.metas))
	for i := range p.metas {
		oldIdx[p.metas[i].Path] = i
	}
	hot := make([]instHot, len(metas))
	act := make([]instAct, len(metas))
	for i := range metas {
		j, ok := oldIdx[metas[i].Path]
		if !ok {
			continue
		}
		hot[i].combEvals.Store(p.hot[j].combEvals.Load())
		hot[i].seqEvals.Store(p.hot[j].seqEvals.Load())
		hot[i].edgeEvals.Store(p.hot[j].edgeEvals.Load())
		hot[i].evalNs.Store(p.hot[j].evalNs.Load())
		hot[i].toggles.Store(p.hot[j].toggles.Load())
		hot[i].quiescent.Store(p.hot[j].quiescent.Load())
		act[i] = p.act[j]
	}
	p.metas = append([]InstMeta(nil), metas...)
	p.hot = hot
	p.act = act
	p.pend = make([]bool, len(metas))
	if !p.bound.Load() {
		p.base = cycle
		p.width = 1
		p.firstCycle.Store(cycle)
		p.lastCycle.Store(cycle)
		p.bound.Store(true)
	}
}

// Reset zeroes all accumulated statistics and restarts the activity grid
// at the last observed cycle. The topology binding is kept.
func (p *Profiler) Reset() {
	p.mu.Lock()
	defer p.mu.Unlock()
	for i := range p.hot {
		p.hot[i].combEvals.Store(0)
		p.hot[i].seqEvals.Store(0)
		p.hot[i].edgeEvals.Store(0)
		p.hot[i].evalNs.Store(0)
		p.hot[i].toggles.Store(0)
		p.hot[i].quiescent.Store(0)
		p.act[i] = instAct{}
		p.pend[i] = false
	}
	c := p.lastCycle.Load()
	p.base = c
	p.width = 1
	p.firstCycle.Store(c)
	p.cycles.Store(0)
}

// ---------------------------------------------------------------- hot path

// epoch anchors the monotonic clock reads of the sampling pair:
// time.Since(epoch) is a single runtime nanotime call, and passing the
// reading around as an int64 instead of a 24-byte time.Time keeps the
// unsampled path (63 of every 64 evals) to a counter increment and a
// zero return.
var epoch = time.Now()

// SampleStart opens an eval-time sample: every SampleEvery-th call
// returns a monotonic nanosecond reading, all others return 0. The
// paired CombDone/SeqDone scales the measured elapsed time by
// SampleEvery, so the cumulative figure is unbiased while the clock is
// read on only 1/64th of evals.
func (p *Profiler) SampleStart() int64 {
	p.sampleCnt++
	if p.sampleCnt&(SampleEvery-1) != 0 {
		return 0
	}
	return int64(time.Since(epoch))
}

// The hot counters are single-writer (the simulation goroutine) with
// concurrent readers (Snapshot), so increments use Load+Store instead
// of Add: both compile to plain moves on x86 where Add would be a
// LOCK XADD, and with one writer the read-modify-write cannot race
// itself. The difference is measurable — the per-eval work being
// counted is often only tens of nanoseconds.

// CombDone records one combinational eval of instance idx; t0 is the
// value SampleStart returned before the eval (0 = unsampled).
func (p *Profiler) CombDone(idx int, t0 int64) {
	h := &p.hot[idx]
	h.combEvals.Store(h.combEvals.Load() + 1)
	if t0 != 0 {
		h.evalNs.Store(h.evalNs.Load() + uint64(int64(time.Since(epoch))-t0)*SampleEvery)
	}
}

// EdgeDone records one run of instance idx's edge program, which the
// kernel runs after a clock edge changed the instance's state; whole says
// the program is the instance's whole comb code, which counts as a
// combinational eval too.
func (p *Profiler) EdgeDone(idx int, whole bool, t0 int64) {
	h := &p.hot[idx]
	h.edgeEvals.Store(h.edgeEvals.Load() + 1)
	if whole {
		h.combEvals.Store(h.combEvals.Load() + 1)
	}
	if t0 != 0 {
		h.evalNs.Store(h.evalNs.Load() + uint64(int64(time.Since(epoch))-t0)*SampleEvery)
	}
}

// SeqDone records one sequential eval of instance idx.
func (p *Profiler) SeqDone(idx int, t0 int64) {
	h := &p.hot[idx]
	h.seqEvals.Store(h.seqEvals.Load() + 1)
	if t0 != 0 {
		h.evalNs.Store(h.evalNs.Load() + uint64(int64(time.Since(epoch))-t0)*SampleEvery)
	}
}

// Commit records the outcome of instance idx's clock-edge commit:
// changed is vm.Instance.Commit's return — whether any architectural
// state actually moved. A false commit is a quiescent eval, the unit the
// headline quiescence fraction counts. The kernel reports an instance
// whose clock edge it skipped (nothing its Seq reads moved) as a false
// commit with no SeqDone, so every instance commits once per cycle while
// seq evals count only the Seq programs that ran.
func (p *Profiler) Commit(idx int, changed bool) {
	h := &p.hot[idx]
	if changed {
		h.toggles.Store(h.toggles.Load() + 1)
	} else {
		h.quiescent.Store(h.quiescent.Load() + 1)
	}
	p.pend[idx] = changed
}

// EndCycle flushes the per-cycle activity: streak accounting and the
// bucketed activity series for every instance, in one short critical
// section per simulated cycle. cycle is the index of the cycle that just
// committed.
func (p *Profiler) EndCycle(cycle uint64) {
	p.cycles.Add(1)
	p.lastCycle.Store(cycle)
	p.mu.Lock()
	bucket := -1
	if cycle >= p.base { // a checkpoint restore may move the cycle backward
		idx := (cycle - p.base) / p.width
		for idx >= ActivityBuckets {
			p.coarsenLocked()
			idx = (cycle - p.base) / p.width
		}
		bucket = int(idx)
	}
	for i := range p.act {
		a := &p.act[i]
		if p.pend[i] {
			p.pend[i] = false
			a.streak = 0
			a.lastActive = cycle
			a.everActive = true
			if bucket >= 0 && a.buckets[bucket] != ^uint32(0) {
				a.buckets[bucket]++
			}
		} else {
			a.streak++
			if a.streak > a.maxStreak {
				a.maxStreak = a.streak
			}
		}
	}
	p.mu.Unlock()
}

// coarsenLocked halves the activity-series resolution: adjacent buckets
// merge and the bucket width doubles. Called with p.mu held.
func (p *Profiler) coarsenLocked() {
	for i := range p.act {
		b := &p.act[i].buckets
		for j := 0; j < ActivityBuckets/2; j++ {
			lo, hi := uint64(b[2*j]), uint64(b[2*j+1])
			if s := lo + hi; s > uint64(^uint32(0)) {
				b[j] = ^uint32(0)
			} else {
				b[j] = uint32(lo + hi)
			}
		}
		for j := ActivityBuckets / 2; j < ActivityBuckets; j++ {
			b[j] = 0
		}
	}
	p.width *= 2
}
