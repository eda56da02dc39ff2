package livecompiler_test

import (
	"fmt"
	"testing"

	"livesim/internal/codegen"
	"livesim/internal/livecompiler"
	"livesim/internal/liveparser"
	"livesim/internal/pgas"
)

// stageEdit returns the n-node PGAS source and the same source with one
// behavioural edit inside stage_ex (pgas.Changes[0]).
func stageEdit(tb testing.TB, n int) (base, edited liveparser.Source) {
	tb.Helper()
	base = pgas.Source(n)
	edited, err := pgas.Changes[0].Apply(base)
	if err != nil {
		tb.Fatal(err)
	}
	return base, edited
}

// BenchmarkRebuild times what an edit costs the front end once the compiler
// is warm: Build of a one-stage edit, then Build of its revert, at 1 to 256
// nodes. One iteration is the pair. Both texts have been built before, as
// in every pass but the first of the bench workloads: nothing is parsed or
// compiled, what is left is the path from the stage to the top. Times are
// reported here; tier-1 holds the counts (TestRebuildCounts).
func BenchmarkRebuild(b *testing.B) {
	benchRebuild(b, func(edited liveparser.Source, i int) liveparser.Source { return edited })
}

// BenchmarkRebuildNewText is BenchmarkRebuild with an edit whose text is
// never one of the two the compiler has kept (a trailing comment
// alternates), so every edit lexes and parses stage_ex.v; its object is
// still a cache hit. Add one codegen.Compile for an edit never seen at all.
func BenchmarkRebuildNewText(b *testing.B) {
	benchRebuild(b, func(edited liveparser.Source, i int) liveparser.Source {
		out := liveparser.Source{Files: make(map[string]string, len(edited.Files))}
		for name, text := range edited.Files {
			out.Files[name] = text
		}
		out.Files["stage_ex.v"] += fmt.Sprintf("// %d\n", i%2)
		return out
	})
}

func benchRebuild(b *testing.B, variant func(edited liveparser.Source, i int) liveparser.Source) {
	for _, n := range []int{1, 16, 64, 256} {
		b.Run(fmt.Sprint(n), func(b *testing.B) {
			base, edited := stageEdit(b, n)
			c := livecompiler.New(pgas.TopName(n), codegen.StyleGrouped, nil)
			for _, src := range []liveparser.Source{base, edited, base} {
				if _, err := c.Build(src); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, src := range []liveparser.Source{variant(edited, i), base} {
					if _, err := c.Build(src); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}
