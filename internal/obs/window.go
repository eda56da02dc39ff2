package obs

import (
	"math"
	"sort"
	"time"
)

// Window is a bounded rolling sample window: a Ring of the last N
// observations with their arrival times. Where Histogram answers "what
// has the latency been since boot", Window answers the operational
// question "what is it right now" — p50/p95/p99 over the most recent
// requests and a request rate that decays as traffic stops. The server
// keeps one per verb and one per hosted session for the /metrics
// quantile gauges and the `top` table.
//
// Quantiles are exact over the retained samples (sorted copy, linear
// interpolation between ranks), not bucket estimates — N is small, so
// the copy is cheap and the answer is sharp. Nil is the off switch:
// every method no-ops (or returns zero) on a nil receiver.
type Window Ring[sample]

type sample struct {
	v  float64
	at int64 // unix nanos
}

// NewWindow returns a window retaining the last capacity samples
// (capacity <= 0 defaults to 256).
func NewWindow(capacity int) *Window { return (*Window)(NewRing[sample](capacity)) }

func (w *Window) ring() *Ring[sample] { return (*Ring[sample])(w) }

// Observe records one sample, evicting the oldest when full. Nil-safe.
func (w *Window) Observe(v float64) { w.ring().Push(sample{v, time.Now().UnixNano()}) }

// Quantile returns the exact q-quantile of the retained samples
// (linear interpolation between adjacent ranks; q outside [0,1] is
// clamped). Returns 0 when the window is empty or nil.
func (w *Window) Quantile(q float64) float64 {
	samples, _ := w.ring().Since(0)
	if len(samples) == 0 {
		return 0
	}
	vals := make([]float64, len(samples))
	for i, s := range samples {
		vals[i] = s.v
	}
	sort.Float64s(vals)
	pos := math.Max(0, math.Min(1, q)) * float64(len(vals)-1)
	lo, hi := int(math.Floor(pos)), int(math.Ceil(pos))
	return vals[lo] + (vals[hi]-vals[lo])*(pos-float64(lo))
}

// Rate returns the observation rate in samples/second: the retained
// sample count divided by the age of the oldest retained sample. The
// rate decays naturally once traffic stops (the window ages without
// refilling). Returns 0 with fewer than 2 samples or on nil.
func (w *Window) Rate() float64 {
	samples, _ := w.ring().Since(0)
	if len(samples) < 2 {
		return 0
	}
	span := time.Since(time.Unix(0, samples[0].at)).Seconds()
	if span <= 0 {
		return 0
	}
	return float64(len(samples)) / span
}
