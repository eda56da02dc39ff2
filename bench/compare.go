package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// `bench compare a.jsonl b.jsonl` reads two results files (a = parent,
// b = change) and prints one row per (metric, workload): both medians,
// both spreads and a verdict. It is the tool every later performance
// claim and every no-regression check is made with.

// verdict of one end-to-end (metric, workload) row.
const (
	verdictOK         = "ok"         // b's median is not worse than a's by more than the bound
	verdictRegressed  = "regressed"  // worse by more than the bound, spreads apart
	verdictUnresolved = "unresolved" // worse by more than the bound, but the spreads overlap
)

// side is one file's values of one (metric, workload).
type side struct {
	vals   []float64
	median float64
	lo, hi float64 // first and third quartile (min and max below four runs)
}

func newSide(vals []float64) side {
	s := side{vals: vals, median: median(vals)}
	if len(vals) >= 4 {
		s.lo, s.hi = quartiles(vals)
	} else {
		sp := spreadOf(vals)
		s.lo, s.hi = sp.Min, sp.Max
	}
	return s
}

// worsening is how much worse b's median is than a's, as a share of a's
// (negative when b is better).
func worsening(a, b side, lowerBetter bool) float64 {
	if a.median == 0 {
		return math.NaN()
	}
	d := (b.median - a.median) / math.Abs(a.median)
	if !lowerBetter {
		d = -d
	}
	return d
}

// judge gives the verdict of one end-to-end row.
func judge(a, b side, lowerBetter bool, bound float64) string {
	if w := worsening(a, b, lowerBetter); !(w > bound) {
		return verdictOK
	}
	if a.lo <= b.hi && b.lo <= a.hi {
		return verdictUnresolved
	}
	return verdictRegressed
}

// wins counts, over the runs the two files pair up by position, how often
// b read better than a.
func wins(a, b side, lowerBetter bool) (won, pairs int) {
	pairs = min(len(a.vals), len(b.vals))
	for i := 0; i < pairs; i++ {
		if lowerBetter && b.vals[i] < a.vals[i] || !lowerBetter && b.vals[i] > a.vals[i] {
			won++
		}
	}
	return won, pairs
}

type resultSet struct {
	// values[trace][workload][metric] in file order.
	values [2]map[string]map[string][]float64
	units  map[string]string
	// failed and attempted per workload, summed over the file's runs.
	failed, attempted map[string]int
	// sims[workload][seed] are the exact simulated statistics seen.
	sims map[string]map[int64]simStats
	// unstable lists workload/seed pairs whose statistics differed
	// between two runs of the same file.
	unstable []string
}

func readResults(path string) (*resultSet, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	rs := &resultSet{units: map[string]string{}, failed: map[string]int{}, attempted: map[string]int{}, sims: map[string]map[int64]simStats{}}
	rs.values[0], rs.values[1] = map[string]map[string][]float64{}, map[string]map[string][]float64{}
	rd := bufio.NewReaderSize(f, 1<<20)
	for n := 1; ; n++ {
		line, err := rd.ReadBytes('\n')
		if len(line) > 1 {
			var rec record
			if jerr := json.Unmarshal(line, &rec); jerr != nil {
				return nil, fmt.Errorf("%s line %d: %w", path, n, jerr)
			}
			if rec.Trace != 0 && rec.Trace != 1 || rec.Workload == "" {
				return nil, fmt.Errorf("%s line %d: not a bench record", path, n)
			}
			rs.add(&rec)
		}
		if err == io.EOF {
			return rs, nil
		}
		if err != nil {
			return nil, err
		}
	}
}

func (rs *resultSet) add(rec *record) {
	byMetric := rs.values[rec.Trace][rec.Workload]
	if byMetric == nil {
		byMetric = map[string][]float64{}
		rs.values[rec.Trace][rec.Workload] = byMetric
	}
	for name, m := range rec.Metrics {
		byMetric[name] = append(byMetric[name], m.Value)
		rs.units[name] = m.Unit
	}
	rs.failed[rec.Workload] += rec.Failed
	rs.attempted[rec.Workload] += rec.Attempted
	if rs.sims[rec.Workload] == nil {
		rs.sims[rec.Workload] = map[int64]simStats{}
	}
	if prev, ok := rs.sims[rec.Workload][rec.Seed]; ok && prev != rec.Sim {
		rs.unstable = append(rs.unstable, fmt.Sprintf("%s seed %d", rec.Workload, rec.Seed))
	}
	rs.sims[rec.Workload][rec.Seed] = rec.Sim
}

func failRatio(rs *resultSet, w string) float64 {
	if rs.attempted[w] == 0 {
		return 0
	}
	return float64(rs.failed[w]) / float64(rs.attempted[w])
}

func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: bench compare <parent.jsonl> <change.jsonl>")
		return 2
	}
	a, err := readResults(args[0])
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench compare:", err)
		return 2
	}
	b, err := readResults(args[1])
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench compare:", err)
		return 2
	}
	return compareSets(os.Stdout, a, b)
}

// compareSets prints the comparison and returns the exit code: 1 when any
// end-to-end row regressed or any workload fails more often than before.
func compareSets(out io.Writer, a, b *resultSet) int {
	code := 0
	fmt.Fprintf(out, "%-14s %-16s %6s %14s %26s %14s %26s %8s %7s  %s\n",
		"workload", "metric", "unit", "parent", "[spread]", "change", "[spread]", "worse", "wins", "verdict")
	for _, w := range workloads {
		am, bm := a.values[0][w.name], b.values[0][w.name]
		if am == nil || bm == nil {
			continue
		}
		for _, name := range sortedKeys(bounds) {
			if len(am[name]) == 0 || len(bm[name]) == 0 {
				continue
			}
			sa, sb := newSide(am[name]), newSide(bm[name])
			v := judge(sa, sb, lowerIsBetter[name], bounds[name])
			if v == verdictRegressed {
				code = 1
			}
			won, pairs := wins(sa, sb, lowerIsBetter[name])
			fmt.Fprintf(out, "%-14s %-16s %6s %14.4f %26s %14.4f %26s %+7.1f%% %3d/%-3d  %s\n",
				w.name, name, a.units[name], sa.median, fmtSpread(sa), sb.median, fmtSpread(sb),
				100*worsening(sa, sb, lowerIsBetter[name]), won, pairs, v)
		}
		fa, fb := failRatio(a, w.name), failRatio(b, w.name)
		v := verdictOK
		if fb > fa {
			v, code = verdictRegressed, 1
		}
		fmt.Fprintf(out, "%-14s %-16s %6s %14.6f %26s %14.6f %26s %8s %7s  %s\n",
			w.name, "fail_ratio", "ratio", fa, "", fb, "", "", "", v)

		// Simulated statistics are exact: compare them seed by seed. The
		// final cycle and the architectural state are what was simulated;
		// the VM op total and the raw state layout are how, and a compiler
		// or kernel change may move those.
		shared, what, how := 0, 0, 0
		for seed, sa := range a.sims[w.name] {
			sb, ok := b.sims[w.name][seed]
			if !ok {
				continue
			}
			shared++
			if sa.FinalCycle != sb.FinalCycle || sa.Arch != sb.Arch {
				what++
			} else if sa != sb {
				how++
			}
		}
		if shared > 0 {
			note := "identical"
			switch {
			case what > 0:
				note = "DIFFERENT final cycle or architectural state: a change of simulated behaviour, not of speed"
			case how > 0:
				note = "same final cycle and architectural state; VM op total or state layout differ"
			}
			fmt.Fprintf(out, "%-14s %-16s simulated statistics on %d shared seed(s): %s\n", w.name, "sim", shared, note)
		}
	}
	for _, u := range append(a.unstable, b.unstable...) {
		fmt.Fprintf(out, "simulated statistics did not repeat within one file: %s\n", u)
		code = 1
	}

	// Per-layer metrics carry no bound: medians and the change, for
	// showing where an end-to-end difference comes from.
	for _, w := range workloads {
		am, bm := a.values[1][w.name], b.values[1][w.name]
		if am == nil || bm == nil {
			continue
		}
		fmt.Fprintf(out, "\nper-layer, %s (medians; no verdict)\n", w.name)
		for _, name := range sortedKeys(am) {
			if len(bm[name]) == 0 {
				continue
			}
			ma, mb := median(am[name]), median(bm[name])
			delta := "     n/a"
			if ma != 0 {
				delta = fmt.Sprintf("%+7.1f%%", 100*(mb-ma)/math.Abs(ma))
			}
			fmt.Fprintf(out, "  %-34s %6s %14.4f %14.4f %s\n", name, a.units[name], ma, mb, delta)
		}
	}
	return code
}

func fmtSpread(s side) string { return fmt.Sprintf("[%.4f .. %.4f]", s.lo, s.hi) }

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
