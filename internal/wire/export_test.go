package wire

import (
	"sync"
	"time"
)

// SetLimits shrinks the line bound and the write deadline for a test
// and returns the function that restores them. Call it before any
// speaker or client exists and restore after they have all stopped.
func SetLimits(line int, write time.Duration) (restore func()) {
	oldLine, oldWrite := maxLine, writeTimeout
	maxLine, writeTimeout = line, write
	return func() { maxLine, writeTimeout = oldLine, oldWrite }
}

var deferredLines struct {
	sync.Mutex
	on    bool
	lines []string
}

func init() {
	deferred = func(line []byte) {
		deferredLines.Lock()
		defer deferredLines.Unlock()
		if deferredLines.on {
			deferredLines.lines = append(deferredLines.lines, string(line))
		}
	}
}

// RecordDeferred starts keeping every line the codec's scanner leaves to
// encoding/json, and returns the function that stops and returns them.
func RecordDeferred() (stop func() []string) {
	deferredLines.Lock()
	deferredLines.on, deferredLines.lines = true, nil
	deferredLines.Unlock()
	return func() []string {
		deferredLines.Lock()
		defer deferredLines.Unlock()
		deferredLines.on = false
		return deferredLines.lines
	}
}
