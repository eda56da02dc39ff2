package main

import (
	"flag"
	"io"
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

// A backend is named by its wire address alone: the old addr=adminaddr
// form fails at flag parsing instead of being dialed as an address.
func TestBackendFlagTakesWireAddressOnly(t *testing.T) {
	var b backendFlags
	fs := flag.NewFlagSet("lsgate", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	fs.Var(&b, "backend", "")
	err := fs.Parse([]string{"-backend", "unix:/tmp/ls1.sock", "-backend", "a=b"})
	if err == nil || !strings.Contains(err.Error(), "admin addresses are no longer read") {
		t.Fatalf("parse -backend a=b: err = %v, want the admin-address rejection", err)
	}
	if len(b) != 1 || b[0].Addr != "unix:/tmp/ls1.sock" {
		t.Fatalf("backends = %+v, want only the plain address", b)
	}
}
