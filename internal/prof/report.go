package prof

import (
	"fmt"
	"io"
	"sort"
	"strings"
)

// Render writes the human-readable profile report: the quiescence
// headline, the per-level parallelism table, the hierarchical heat tree
// (flame-style self vs. total time) and the instances that have gone
// quiet. The output is deterministic for a given snapshot, which the
// golden test relies on.
func (s *Snapshot) Render(w io.Writer) {
	fmt.Fprintf(w, "profile: %d instances, cycles %d..%d (%d profiled)\n",
		s.Instances, s.FirstCycle, s.LastCycle, s.Cycles)
	fmt.Fprintf(w, "quiescence: %d of %d instance-evals changed nothing (%.1f%%)\n",
		s.QuiescentEvals, s.commits(), 100*s.QuiescentFraction)

	if len(s.Levels) > 0 {
		fmt.Fprintf(w, "\nlevels (parallelism potential per hierarchy depth):\n")
		fmt.Fprintf(w, "  %-6s %10s %12s %12s %12s\n", "depth", "insts", "comb evals", "seq evals", "eval ms")
		for _, lv := range s.Levels {
			fmt.Fprintf(w, "  %-6d %10d %12d %12d %12.3f\n",
				lv.Depth, lv.Instances, lv.CombEvals, lv.SeqEvals, float64(lv.EvalNs)/1e6)
		}
	}

	if len(s.Insts) > 0 {
		fmt.Fprintf(w, "\nheat (self/total ms sampled; act%% = cycles with a state change):\n")
		fmt.Fprintf(w, "  %-30s %10s %10s %12s %8s %10s\n", "instance", "self ms", "total ms", "evals", "act%", "streak")
		for i := range s.Insts {
			st := &s.Insts[i]
			act := 0.0
			if n := st.Toggles + st.QuiescentEvals; n > 0 {
				act = 100 * float64(st.Toggles) / float64(n)
			}
			name := strings.Repeat("  ", st.Depth) + leafName(st.Path)
			fmt.Fprintf(w, "  %-30s %10.3f %10.3f %12d %7.1f%% %10d\n",
				name, float64(st.SelfNs)/1e6, float64(st.TotalNs)/1e6,
				st.CombEvals+st.SeqEvals, act, st.QuietStreak)
		}
	}

	quiet := quietInstances(s)
	if len(quiet) > 0 {
		fmt.Fprintf(w, "\nwent quiet (was active, now streak of quiescent cycles):\n")
		for _, st := range quiet {
			fmt.Fprintf(w, "  %-30s last active cycle %-10d quiet for %d cycles\n",
				st.Path, st.LastActiveCycle, st.QuietStreak)
		}
	}
}

// quietInstances returns instances that toggled at least once but are
// currently in a quiescent streak, longest streak first (path breaks
// ties so the order is stable).
func quietInstances(s *Snapshot) []*InstStat {
	var out []*InstStat
	for i := range s.Insts {
		st := &s.Insts[i]
		if st.EverActive && st.QuietStreak > 0 {
			out = append(out, st)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].QuietStreak != out[j].QuietStreak {
			return out[i].QuietStreak > out[j].QuietStreak
		}
		return out[i].Path < out[j].Path
	})
	if len(out) > 10 {
		out = out[:10]
	}
	return out
}

// leafName returns the last path segment of a hierarchical name.
func leafName(path string) string {
	if i := strings.LastIndex(path, "."); i >= 0 {
		return path[i+1:]
	}
	return path
}
