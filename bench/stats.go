package main

import (
	"math"
	"sort"
	"time"
)

// percentile returns the q-quantile (0..1) of vals by linear
// interpolation between closest ranks; vals need not be sorted and is not
// modified. An empty input yields NaN so a missing measurement can never
// pass for a number.
func percentile(vals []float64, q float64) float64 {
	if len(vals) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	if q <= 0 {
		return s[0]
	}
	if q >= 1 {
		return s[len(s)-1]
	}
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	frac := pos - float64(lo)
	if lo+1 >= len(s) {
		return s[lo]
	}
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func median(vals []float64) float64 { return percentile(vals, 0.5) }

// spread is the min and max of a set of per-round values — recorded
// beside every median so a reader sees how far rounds disagreed.
type spread struct {
	Min float64 `json:"min"`
	Max float64 `json:"max"`
}

func spreadOf(vals []float64) spread {
	if len(vals) == 0 {
		return spread{math.NaN(), math.NaN()}
	}
	sp := spread{vals[0], vals[0]}
	for _, v := range vals[1:] {
		sp.Min = math.Min(sp.Min, v)
		sp.Max = math.Max(sp.Max, v)
	}
	return sp
}

// relRange is (max-min)/median, the round-to-round disagreement as a
// share of the reported value.
func relRange(vals []float64) float64 {
	m := median(vals)
	if len(vals) == 0 || m == 0 {
		return math.NaN()
	}
	sp := spreadOf(vals)
	return (sp.Max - sp.Min) / math.Abs(m)
}

// quartiles returns the first and third quartile as Python's
// statistics.quantiles(values, n=4) computes them (the exclusive method) —
// the quartiles the acceptance rule for this benchmark is written in.
// It needs at least two values.
func quartiles(vals []float64) (q1, q3 float64) {
	n := len(vals)
	if n < 2 {
		return math.NaN(), math.NaN()
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	quart := func(k int) float64 {
		j, delta := k*(n+1)/4, k*(n+1)%4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return quart(1), quart(3)
}

func msOf(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// dursMs converts latency samples to float milliseconds.
func dursMs(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = msOf(d)
	}
	return out
}
