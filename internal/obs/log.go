package obs

import (
	"fmt"
	"io"
	"sync"
	"time"
)

// Level orders log severities. The zero value is LevelDebug so an
// unconfigured logger hides nothing.
type Level int32

const (
	LevelDebug Level = iota
	LevelInfo
	LevelWarn
	LevelError
)

// String returns the lowercase level name used on the wire.
func (l Level) String() string {
	switch l {
	case LevelDebug:
		return "debug"
	case LevelInfo:
		return "info"
	case LevelWarn:
		return "warn"
	case LevelError:
		return "error"
	}
	return fmt.Sprintf("level(%d)", int32(l))
}

// ParseLevel maps a level name ("debug", "info", "warn", "error") to
// its Level, for the -log-level flag.
func ParseLevel(s string) (Level, error) {
	switch s {
	case "debug":
		return LevelDebug, nil
	case "info":
		return LevelInfo, nil
	case "warn", "warning":
		return LevelWarn, nil
	case "error":
		return LevelError, nil
	}
	return LevelInfo, fmt.Errorf("unknown log level %q (want debug, info, warn or error)", s)
}

// Logger writes leveled, structured JSONL operational logs — one JSON
// object per line:
//
//	{"ts":"2026-08-05T12:00:00.123Z","level":"warn","msg":"slow request",
//	 "session":"s1","verb":"apply","trace":"9f86d081884c7d65"}
//
// Field values reuse the tracer's Attr vocabulary (Str, U64, Bool) so
// spans and logs share one idiom.
//
// Nil is the off switch, same contract as the rest of the package: every
// method no-ops on a nil receiver, and a level check precedes all field
// formatting so suppressed lines cost one comparison.
type Logger struct {
	mu    sync.Mutex
	w     io.Writer
	level Level
	clock func() time.Time // test seam; nil = time.Now
}

// NewLogger returns a logger emitting lines at or above level to w.
func NewLogger(w io.Writer, level Level) *Logger {
	return &Logger{w: w, level: level}
}

// Enabled reports whether a line at level would be emitted.
func (l *Logger) Enabled(level Level) bool {
	return l != nil && level >= l.level
}

// Info, Warn and Error emit one structured line at their level.
func (l *Logger) Info(msg string, fields ...Attr)  { l.log(LevelInfo, msg, fields) }
func (l *Logger) Warn(msg string, fields ...Attr)  { l.log(LevelWarn, msg, fields) }
func (l *Logger) Error(msg string, fields ...Attr) { l.log(LevelError, msg, fields) }

func (l *Logger) log(level Level, msg string, fields []Attr) {
	if !l.Enabled(level) {
		return
	}
	now := time.Now()
	if l.clock != nil {
		now = l.clock()
	}
	// Hand-assembled JSON keeps field order stable (ts, level, msg, then
	// the call's fields) — greppable and diffable, which a map marshal
	// would shuffle. Values are written as span attrs are.
	b := append(make([]byte, 0, 256), `{"ts":"`...)
	b = now.UTC().AppendFormat(b, time.RFC3339Nano)
	b = append(append(b, `","level":"`...), level.String()...)
	b = AppendJSONString(append(b, `","msg":`...), msg)
	for _, f := range fields {
		b = appendAttr(append(b, ','), f)
	}
	b = append(b, "}\n"...)
	l.mu.Lock()
	l.w.Write(b)
	l.mu.Unlock()
}
