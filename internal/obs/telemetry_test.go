package obs

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// The five telemetry flags are declared once for both daemons; their
// names, defaults and help text are what livesimd and lsgate each
// declared by hand before, word for word.
func TestTelemetryFlagsKeepTheirHelp(t *testing.T) {
	shared := map[string]string{
		"flight":         "flight-recorder ring capacity in span/event lines, for /flightz and blackbox dumps (0 = default 512, negative = off)",
		"blackbox-flush": "periodic blackbox flush cadence — the record surviving SIGKILL (0 = default 2s, negative = off)",
	}
	for _, d := range []struct {
		args [3]string
		want map[string]string
	}{
		{[3]string{"livesimd", "`spans`/`trace <id>`", "default: -state-dir"}, map[string]string{
			"proc-name":    "process label in assembled fleet traces and blackbox dumps (default livesimd:<pid>)",
			"trace-store":  "in-memory span store capacity in traces, for `spans`/`trace <id>`/tracez (0 = default 256, negative = off)",
			"blackbox-dir": "directory for blackbox-<ts>.jsonl dumps on abnormal exits (default: -state-dir)",
		}},
		{[3]string{"lsgate", "`trace <id>`", "empty = no dumps"}, map[string]string{
			"proc-name":    "process label in assembled fleet traces and blackbox dumps (default lsgate:<pid>)",
			"trace-store":  "in-memory span store capacity in traces, for `trace <id>`/tracez (0 = default 256, negative = off)",
			"blackbox-dir": "directory for blackbox-<ts>.jsonl dumps on abnormal exits (empty = no dumps)",
		}},
	} {
		var cfg TelemetryConfig
		fs := flag.NewFlagSet(d.args[0], flag.ContinueOnError)
		cfg.RegisterFlags(fs, d.args[0], d.args[1], d.args[2])
		n := 0
		fs.VisitAll(func(f *flag.Flag) {
			n++
			want, ok := d.want[f.Name]
			if !ok {
				want = shared[f.Name]
			}
			if f.Usage != want {
				t.Errorf("%s -%s help drifted:\n got %q\nwant %q", d.args[0], f.Name, f.Usage, want)
			}
			if f.DefValue != "" && f.DefValue != "0" && f.DefValue != "0s" {
				t.Errorf("%s -%s default %q, want zero", d.args[0], f.Name, f.DefValue)
			}
		})
		if n != 5 {
			t.Errorf("%s: %d telemetry flags, want 5", d.args[0], n)
		}
		if err := fs.Parse([]string{"-proc-name", "p", "-trace-store", "-1", "-flight", "9", "-blackbox-flush", "3s"}); err != nil {
			t.Fatal(err)
		}
		if cfg.ProcName != "p" || cfg.SpanStoreCap != -1 || cfg.FlightRecorderCap != 9 || cfg.BlackboxFlushEvery != 3*time.Second {
			t.Errorf("flags not bound to the config: %+v", cfg)
		}
	}
}

func blackboxFiles(t *testing.T, dir string) []string {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "blackbox-*.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// Trigger dumps are rate-limited to one a second and counted under the
// caller's metric; events reach both the ring and the black box.
func TestTelemetryDumpIsRateLimited(t *testing.T) {
	dir := t.TempDir()
	reg := NewRegistry()
	tel := NewTelemetry(TelemetryConfig{BlackboxDir: dir, BlackboxFlushEvery: -1},
		"testd", nil, 0, reg, "x", nil)
	defer tel.Stop()
	if !strings.HasPrefix(tel.Proc, "testd:") {
		t.Fatalf("default proc name %q, want testd:<pid>", tel.Proc)
	}
	tel.Event("panic", "s0", "00112233aabbccdd", "boom")
	for i := 0; i < 5; i++ {
		tel.Dump("panic")
	}
	files := blackboxFiles(t, dir)
	if len(files) != 1 || reg.Counter("x_blackbox_dumps").Value() != 1 {
		t.Fatalf("5 dumps in one second wrote %v (counter %d), want exactly 1",
			files, reg.Counter("x_blackbox_dumps").Value())
	}
	data, err := os.ReadFile(files[0])
	if err != nil || !strings.Contains(string(data), "boom") {
		t.Fatalf("dump lacks the event note: %q (%v)", data, err)
	}
	if evs := tel.Events(0); len(evs) != 1 || evs[0].Trace != "00112233aabbccdd" {
		t.Fatalf("event ring: %+v", evs)
	}
}

// The periodic flusher writes this boot's file at once, rewrites it
// while the ring is dirty, and Stop waits for its last write.
func TestTelemetryFlusherAndStop(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "made-on-demand")
	tel := NewTelemetry(TelemetryConfig{BlackboxDir: dir, BlackboxFlushEvery: time.Hour}, "testd", nil, 0, nil, "", nil)
	deadline := time.Now().Add(5 * time.Second)
	for len(blackboxFiles(t, dir)) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no blackbox file at boot")
		}
		time.Sleep(time.Millisecond)
	}
	tel.Event("session_fenced", "s0", "", "written after boot, before stop")
	tel.Stop()
	tel.Stop() // idempotent
	files := blackboxFiles(t, dir)
	if len(files) != 1 {
		t.Fatalf("periodic flush must rewrite one file, found %v", files)
	}
	if data, _ := os.ReadFile(files[0]); !strings.Contains(string(data), "written after boot") {
		t.Fatalf("Stop returned before the last flush: %q", data)
	}

	off := NewTelemetry(TelemetryConfig{SpanStoreCap: -1, FlightRecorderCap: -1, BlackboxDir: dir}, "testd", nil, 0, nil, "", nil)
	off.Event("x", "", "", "nil-safe when disabled")
	off.Dump("x")
	off.Stop()
	if off.Store != nil || off.Flight != nil || len(blackboxFiles(t, dir)) != 1 {
		t.Fatal("disabled store/recorder must stay off and write nothing")
	}
}
