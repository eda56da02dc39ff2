package main

import (
	"flag"
	"strings"
	"testing"
)

// The flags lsbench accepts: one per experiment it regenerates, plus the
// sizes, budget and metrics knobs they share. A flag added or removed
// shows up here as a diff.
var goldenFlags = []string{
	"ablation", "activity", "all", "budget", "ckpt", "fig6", "fig7",
	"fig8", "metrics", "profcycles", "recovery", "rollback", "sizes",
	"table7", "table8",
}

func TestFlagsGolden(t *testing.T) {
	var got []string
	flag.CommandLine.VisitAll(func(f *flag.Flag) {
		if !strings.HasPrefix(f.Name, "test.") { // the test binary's own
			got = append(got, f.Name)
		}
	})
	if strings.Join(got, " ") != strings.Join(goldenFlags, " ") {
		t.Errorf("lsbench flags drifted:\n got %d %v\nwant %d %v", len(got), got, len(goldenFlags), goldenFlags)
	}
}
