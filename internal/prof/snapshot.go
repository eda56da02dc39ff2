package prof

// Snapshot types: the point-in-time export of a Profiler, JSON-tagged so
// the same structure backs the `profile report json` verb output and the
// admin plane's /profilez endpoint.

// InstStat is one instance's accumulated statistics.
type InstStat struct {
	Path  string `json:"path"`
	Key   string `json:"key"`
	Depth int    `json:"depth"`
	// Parent indexes the parent InstStat in Snapshot.Insts (-1 = root).
	Parent int `json:"parent"`

	CombEvals uint64 `json:"comb_evals"`
	SeqEvals  uint64 `json:"seq_evals"`
	// EdgeEvals counts runs of the instance's edge program, which computes
	// its outputs that depend on state alone right after a clock edge
	// changed its state; a run of a whole comb program is a CombEval too.
	EdgeEvals uint64 `json:"edge_evals"`
	// SelfNs is this instance's own sampled eval time; TotalNs rolls up
	// self plus all descendants (the flame-style view).
	SelfNs  uint64 `json:"self_ns"`
	TotalNs uint64 `json:"total_ns"`
	// Toggles counts clock-edge commits that changed architectural
	// state; QuiescentEvals counts commits that changed nothing.
	Toggles        uint64 `json:"toggles"`
	QuiescentEvals uint64 `json:"quiescent_evals"`
	// QuietStreak is the current run of consecutive quiescent cycles;
	// MaxQuietStreak the longest observed. LastActiveCycle is the cycle
	// of the newest state change (meaningful when EverActive).
	QuietStreak     uint64 `json:"quiet_streak"`
	MaxQuietStreak  uint64 `json:"max_quiet_streak"`
	LastActiveCycle uint64 `json:"last_active_cycle"`
	EverActive      bool   `json:"ever_active"`
	// Activity is the cycle-bucketed series: active cycles per bucket of
	// Snapshot.BucketWidth cycles starting at Snapshot.BucketBase.
	Activity []uint32 `json:"activity,omitempty"`
}

// LevelStat aggregates one hierarchy level — the width of the levelized
// graph at that depth bounds how much eval parallelism is available.
type LevelStat struct {
	Depth     int    `json:"depth"`
	Instances int    `json:"instances"`
	CombEvals uint64 `json:"comb_evals"`
	SeqEvals  uint64 `json:"seq_evals"`
	EvalNs    uint64 `json:"eval_ns"`
}

// Snapshot is a consistent point-in-time export of a Profiler.
type Snapshot struct {
	// Instances is the bound-hierarchy size; Insts has this length.
	Instances int `json:"instances"`
	// FirstCycle..LastCycle is the observed cycle range; Cycles counts
	// the cycles actually profiled (they differ after reset or restore).
	FirstCycle uint64 `json:"first_cycle"`
	LastCycle  uint64 `json:"last_cycle"`
	Cycles     uint64 `json:"cycles"`

	// Quiescence headline: of all instance commits (one per instance per
	// cycle, a clock edge the kernel skipped included), how many changed
	// no state. SeqEvals counts the Seq programs that actually ran.
	SeqEvals          uint64  `json:"seq_evals"`
	QuiescentEvals    uint64  `json:"quiescent_evals"`
	QuiescentFraction float64 `json:"quiescent_fraction"`
	CombEvals         uint64  `json:"comb_evals"`
	EvalNs            uint64  `json:"eval_ns"`

	BucketBase  uint64 `json:"bucket_base"`
	BucketWidth uint64 `json:"bucket_width"`

	Insts  []InstStat  `json:"insts"`
	Levels []LevelStat `json:"levels"`
}

// Totals is the aggregate-only view of a Profiler — what the metrics
// bridge publishes on every scrape, without building per-instance rows.
type Totals struct {
	Instances      int
	CombEvals      uint64
	SeqEvals       uint64
	EdgeEvals      uint64
	Toggles        uint64
	QuiescentEvals uint64
	EvalNs         uint64
	Cycles         uint64
}

// Add accumulates o into t.
func (t *Totals) Add(o Totals) {
	t.Instances += o.Instances
	t.CombEvals += o.CombEvals
	t.SeqEvals += o.SeqEvals
	t.EdgeEvals += o.EdgeEvals
	t.Toggles += o.Toggles
	t.QuiescentEvals += o.QuiescentEvals
	t.EvalNs += o.EvalNs
	t.Cycles += o.Cycles
}

// QuiescentFraction is the share of instance commits that changed no
// state. Every commit is a toggle or quiescent, and a clock edge the
// kernel skipped commits as quiescent with no Seq evaluation, so
// SeqEvals is not the denominator. Snapshot, `profile report` and
// core's Health all read this one fraction.
func (t Totals) QuiescentFraction() float64 {
	if n := t.Toggles + t.QuiescentEvals; n > 0 {
		return float64(t.QuiescentEvals) / float64(n)
	}
	return 0
}

// Totals sums the hot counters. Much cheaper than Snapshot; safe from
// any goroutine.
func (p *Profiler) Totals() Totals {
	p.mu.Lock()
	defer p.mu.Unlock()
	t := Totals{Instances: len(p.metas), Cycles: p.cycles.Load()}
	for i := range p.hot {
		h := &p.hot[i]
		t.CombEvals += h.combEvals.Load()
		t.SeqEvals += h.seqEvals.Load()
		t.EdgeEvals += h.edgeEvals.Load()
		t.Toggles += h.toggles.Load()
		t.QuiescentEvals += h.quiescent.Load()
		t.EvalNs += h.evalNs.Load()
	}
	return t
}

// Snapshot exports the profiler's current state. Safe to call from any
// goroutine, including while the bound simulation is ticking.
func (p *Profiler) Snapshot() *Snapshot {
	p.mu.Lock()
	defer p.mu.Unlock()
	s := &Snapshot{
		Instances:   len(p.metas),
		FirstCycle:  p.firstCycle.Load(),
		LastCycle:   p.lastCycle.Load(),
		Cycles:      p.cycles.Load(),
		BucketBase:  p.base,
		BucketWidth: p.width,
		Insts:       make([]InstStat, len(p.metas)),
	}
	maxDepth := 0
	var toggles uint64
	for i := range p.metas {
		m := &p.metas[i]
		h := &p.hot[i]
		a := &p.act[i]
		st := InstStat{
			Path:            m.Path,
			Key:             m.Key,
			Depth:           m.Depth,
			Parent:          m.Parent,
			CombEvals:       h.combEvals.Load(),
			SeqEvals:        h.seqEvals.Load(),
			EdgeEvals:       h.edgeEvals.Load(),
			SelfNs:          h.evalNs.Load(),
			Toggles:         h.toggles.Load(),
			QuiescentEvals:  h.quiescent.Load(),
			QuietStreak:     a.streak,
			MaxQuietStreak:  a.maxStreak,
			LastActiveCycle: a.lastActive,
			EverActive:      a.everActive,
			Activity:        append([]uint32(nil), a.buckets[:]...),
		}
		st.TotalNs = st.SelfNs
		s.Insts[i] = st
		if m.Depth > maxDepth {
			maxDepth = m.Depth
		}
		s.SeqEvals += st.SeqEvals
		toggles += st.Toggles
		s.QuiescentEvals += st.QuiescentEvals
		s.CombEvals += st.CombEvals
		s.EvalNs += st.SelfNs
	}
	if len(p.metas) == 0 {
		return s
	}
	// Roll eval time up the tree. Instances arrive in pre-order (parents
	// before children), so a single reverse pass accumulates every
	// subtree before its root is added to its own parent.
	for i := len(s.Insts) - 1; i >= 0; i-- {
		if par := s.Insts[i].Parent; par >= 0 {
			s.Insts[par].TotalNs += s.Insts[i].TotalNs
		}
	}
	s.Levels = make([]LevelStat, maxDepth+1)
	for i := range s.Levels {
		s.Levels[i].Depth = i
	}
	for i := range s.Insts {
		lv := &s.Levels[s.Insts[i].Depth]
		lv.Instances++
		lv.CombEvals += s.Insts[i].CombEvals
		lv.SeqEvals += s.Insts[i].SeqEvals
		lv.EvalNs += s.Insts[i].SelfNs
	}
	s.QuiescentFraction = Totals{Toggles: toggles, QuiescentEvals: s.QuiescentEvals}.QuiescentFraction()
	return s
}

// commits is the number of instance commits: each is a toggle or
// quiescent.
func (s *Snapshot) commits() uint64 {
	var n uint64
	for i := range s.Insts {
		n += s.Insts[i].Toggles + s.Insts[i].QuiescentEvals
	}
	return n
}
