package main

import (
	"flag"
	"strings"
	"testing"
)

// The flags lsgate accepts. A knob added or removed shows up here as a
// diff: a tuning value that only ever takes one value is a constant, not
// a flag.
var goldenFlags = []string{
	"admin-addr", "backend", "blackbox-dir", "blackbox-flush",
	"failover-grace", "flight", "health-every", "listen", "log-level",
	"metrics", "proc-name", "replicate", "trace-store", "unix",
}

func TestFlagsGolden(t *testing.T) {
	var got []string
	flag.CommandLine.VisitAll(func(f *flag.Flag) {
		if !strings.HasPrefix(f.Name, "test.") { // the test binary's own
			got = append(got, f.Name)
		}
	})
	if strings.Join(got, " ") != strings.Join(goldenFlags, " ") {
		t.Errorf("lsgate flags drifted:\n got %d %v\nwant %d %v", len(got), got, len(goldenFlags), goldenFlags)
	}
}
