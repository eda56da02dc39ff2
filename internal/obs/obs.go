// Package obs is the unified observability substrate: a lightweight
// metrics Registry (atomic counters, gauges and fixed-bucket latency
// histograms) cheap enough for the simulation hot path, and a span
// Tracer (trace.go) that records the nested timed phases of every trip
// around the live edit-run-debug loop.
//
// Every layer of LiveSim reports into one Registry — the compiler its
// cache hits and per-phase build times, the session its run/swap/verify
// counts, the kernel its ticks and settle passes, the checkpoint store
// its encode latencies — and one Snapshot exports all of it as JSON so
// the bench harness can diff runs across PRs.
//
// Nil is the off switch: a nil *Registry hands out nil instruments, and
// every instrument method is a no-op on a nil receiver, so instrumented
// code pays one predictable branch when metrics are disabled and never
// needs its own guards.
package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing counter.
type Counter struct{ v atomic.Uint64 }

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n. No-op on a nil counter.
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Value returns the current count (0 on a nil counter).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a last-value-wins instrument.
type Gauge struct{ v atomic.Uint64 }

// Set stores v. No-op on a nil gauge.
func (g *Gauge) Set(v uint64) {
	if g != nil {
		g.v.Store(v)
	}
}

// Value returns the last stored value (0 on a nil gauge).
func (g *Gauge) Value() uint64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram counts observations into fixed upper-bound buckets. The
// final implicit bucket catches everything above the last bound.
type Histogram struct {
	bounds []float64 // ascending upper bounds
	counts []atomic.Uint64
	count  atomic.Uint64
	sum    atomic.Uint64 // float64 bits, CAS-accumulated
}

// LatencyBuckets is the default bound set for second-valued latency
// histograms: 1µs up to 10s in decades.
var LatencyBuckets = []float64{1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1, 10}

// validateBounds panics unless bounds is non-empty and strictly
// increasing. A malformed bucket layout silently misroutes every
// observation (SearchFloat64s assumes sorted input), so it is a
// programming error caught loudly at registration rather than a data
// quality mystery months later.
func validateBounds(name string, bounds []float64) {
	if len(bounds) == 0 {
		panic(fmt.Sprintf("obs: histogram %q: empty bucket bounds", name))
	}
	for i := 1; i < len(bounds); i++ {
		if !(bounds[i] > bounds[i-1]) {
			panic(fmt.Sprintf("obs: histogram %q: bucket bounds must be strictly increasing, got bounds[%d]=%g, bounds[%d]=%g",
				name, i-1, bounds[i-1], i, bounds[i]))
		}
	}
}

// Observe records one sample. An observation v lands in the first
// bucket whose bound satisfies v <= bound. No-op on a nil histogram.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		nu := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, nu) {
			return
		}
	}
}

// Registry is a named collection of instruments. All methods are safe
// for concurrent use and safe on a nil receiver (returning nil
// instruments, which no-op).
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	hooks    []func()
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it with the given
// bucket bounds on first use (nil bounds = LatencyBuckets). Later calls
// ignore bounds.
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		if bounds == nil {
			bounds = LatencyBuckets
		}
		validateBounds(name, bounds)
		h = &Histogram{
			bounds: append([]float64(nil), bounds...),
			counts: make([]atomic.Uint64, len(bounds)+1),
		}
		r.hists[name] = h
	}
	return h
}

// OnSnapshot registers a hook run at the start of every Snapshot and
// WriteText call — the bridge point for sources that keep their own
// counters (e.g. the VM's hot-loop Stats) to publish into the registry
// without being touched on their fast path.
func (r *Registry) OnSnapshot(fn func()) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.hooks = append(r.hooks, fn)
	r.mu.Unlock()
}

// HistogramSnapshot is the exported state of one histogram.
type HistogramSnapshot struct {
	Bounds []float64 `json:"bounds"`
	// Counts has len(Bounds)+1 entries; the last is the overflow bucket.
	Counts []uint64 `json:"counts"`
	Count  uint64   `json:"count"`
	Sum    float64  `json:"sum"`
}

// Snapshot is a point-in-time export of a registry. It marshals to
// deterministic JSON (map keys sort) and round-trips losslessly.
type Snapshot struct {
	Counters   map[string]uint64            `json:"counters"`
	Gauges     map[string]uint64            `json:"gauges"`
	Histograms map[string]HistogramSnapshot `json:"histograms"`
}

// Snapshot captures every instrument. Nil registry returns an empty
// (but usable) snapshot.
func (r *Registry) Snapshot() *Snapshot {
	s := &Snapshot{
		Counters:   map[string]uint64{},
		Gauges:     map[string]uint64{},
		Histograms: map[string]HistogramSnapshot{},
	}
	if r == nil {
		return s
	}
	r.mu.Lock()
	hooks := append([]func(){}, r.hooks...)
	r.mu.Unlock()
	// Hooks run outside the registry lock: they call back into
	// Counter/Gauge and may take their owners' locks.
	for _, fn := range hooks {
		fn()
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for name, c := range r.counters {
		s.Counters[name] = c.Value()
	}
	for name, g := range r.gauges {
		s.Gauges[name] = g.Value()
	}
	for name, h := range r.hists {
		hs := HistogramSnapshot{
			Bounds: append([]float64(nil), h.bounds...),
			Counts: make([]uint64, len(h.counts)),
			Count:  h.count.Load(),
			Sum:    math.Float64frombits(h.sum.Load()),
		}
		for i := range h.counts {
			hs.Counts[i] = h.counts[i].Load()
		}
		s.Histograms[name] = hs
	}
	return s
}

// JSON returns the snapshot as deterministic JSON.
func (s *Snapshot) JSON() []byte {
	b, err := json.Marshal(s)
	if err != nil { // maps of scalars cannot fail to marshal
		panic(err)
	}
	return b
}

// WriteText dumps the registry in an expvar-style sorted text format,
// one "name value" line per instrument.
func (r *Registry) WriteText(w io.Writer) error {
	s := r.Snapshot()
	var names []string
	for n := range s.Counters {
		names = append(names, n)
	}
	for n := range s.Gauges {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		v, ok := s.Counters[n]
		if !ok {
			v = s.Gauges[n]
		}
		if _, err := fmt.Fprintf(w, "%s %d\n", n, v); err != nil {
			return err
		}
	}
	names = names[:0]
	for n := range s.Histograms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		h := s.Histograms[n]
		mean := 0.0
		if h.Count > 0 {
			mean = h.Sum / float64(h.Count)
		}
		if _, err := fmt.Fprintf(w, "%s count=%d sum=%.6g mean=%.6g\n", n, h.Count, h.Sum, mean); err != nil {
			return err
		}
	}
	return nil
}
