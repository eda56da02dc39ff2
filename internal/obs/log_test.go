package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

func TestLoggerJSONLShape(t *testing.T) {
	var buf bytes.Buffer
	l := NewLogger(&buf, LevelDebug)
	l.clock = func() time.Time { return time.Unix(0, 0).UTC() }
	l.Info("hello", Str("session", "s1"), U64("cycle", 42), Bool("dirty", true))

	line := buf.String()
	if !strings.HasSuffix(line, "\n") {
		t.Fatalf("line missing trailing newline: %q", line)
	}
	var m map[string]any
	if err := json.Unmarshal([]byte(line), &m); err != nil {
		t.Fatalf("line is not valid JSON: %v\n%s", err, line)
	}
	if m["level"] != "info" || m["msg"] != "hello" || m["session"] != "s1" {
		t.Errorf("unexpected fields: %v", m)
	}
	if m["cycle"] != float64(42) || m["dirty"] != true {
		t.Errorf("typed fields mangled: %v", m)
	}
	// Field order is part of the contract: ts, level, msg first.
	if !strings.HasPrefix(line, `{"ts":"1970-01-01T00:00:00Z","level":"info","msg":"hello",`) {
		t.Errorf("unexpected field order: %s", line)
	}
}

func TestLoggerLevelFilter(t *testing.T) {
	var buf bytes.Buffer
	l := NewLogger(&buf, LevelWarn)
	l.Info("nope")
	if buf.Len() != 0 {
		t.Fatalf("suppressed levels emitted output: %q", buf.String())
	}
	l.Warn("yes")
	l.Error("yes")
	if got := strings.Count(buf.String(), "\n"); got != 2 {
		t.Errorf("emitted %d lines, want 2", got)
	}
}

func TestLoggerNilSafe(t *testing.T) {
	var l *Logger
	l.Info("x")
	l.Warn("x")
	l.Error("x")
	if l.Enabled(LevelError) {
		t.Error("nil logger must report disabled")
	}
}

func TestParseLevel(t *testing.T) {
	for s, want := range map[string]Level{
		"debug": LevelDebug, "info": LevelInfo,
		"warn": LevelWarn, "warning": LevelWarn, "error": LevelError,
	} {
		got, err := ParseLevel(s)
		if err != nil || got != want {
			t.Errorf("ParseLevel(%q) = %v, %v; want %v", s, got, err, want)
		}
	}
	if _, err := ParseLevel("loud"); err == nil {
		t.Error("ParseLevel(loud) must fail")
	}
}
