package main

import (
	"flag"
	"strings"
	"testing"
)

// The flags livesimd accepts. A knob added or removed shows up here as a
// diff: a tuning value that only ever takes one value is a constant, not
// a flag.
var goldenFlags = []string{
	"admin-addr", "admit-budget", "blackbox-dir", "blackbox-flush",
	"ckpt-every", "crash-wal-offset", "disk-poll", "drain-dir",
	"fault-disk-full", "flight", "idle-evict",
	"journal-ckpt-every", "listen", "log-level",
	"mem-budget", "metrics", "proc-name", "queue-depth", "run-budget",
	"slow-request", "state-dir", "trace-out", "trace-store", "unix",
	"wal-fsync-every",
}

func TestFlagsGolden(t *testing.T) {
	var got []string
	flag.CommandLine.VisitAll(func(f *flag.Flag) {
		if !strings.HasPrefix(f.Name, "test.") { // the test binary's own
			got = append(got, f.Name)
		}
	})
	if strings.Join(got, " ") != strings.Join(goldenFlags, " ") {
		t.Errorf("livesimd flags drifted:\n got %d %v\nwant %d %v", len(got), got, len(goldenFlags), goldenFlags)
	}
}
