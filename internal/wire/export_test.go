package wire

import "time"

// SetLimits shrinks the line bound and the write deadline for a test
// and returns the function that restores them. Call it before any
// speaker or client exists and restore after they have all stopped.
func SetLimits(line int, write time.Duration) (restore func()) {
	oldLine, oldWrite := maxLine, writeTimeout
	maxLine, writeTimeout = line, write
	return func() { maxLine, writeTimeout = oldLine, oldWrite }
}
