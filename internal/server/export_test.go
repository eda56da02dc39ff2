package server

import (
	"sort"
	"time"
)

// SetMemEvictIdle shortens how long a session must idle before the
// memory governor may shed it, and returns the restore func.
func SetMemEvictIdle(d time.Duration) (restore func()) {
	old := memEvictIdle
	memEvictIdle = d
	return func() { memEvictIdle = old }
}

// SetRequestDeadline changes the per-request deadline, on a running
// server too, and returns the restore func.
func SetRequestDeadline(d time.Duration) (restore func()) {
	old := requestTimeout.Swap(int64(d))
	return func() { requestTimeout.Store(old) }
}

// SetBreakerThreshold changes how many consecutive failures trip a
// session's breaker, and returns the restore func.
func SetBreakerThreshold(n int) (restore func()) {
	old := quarantineAfter
	quarantineAfter = n
	return func() { quarantineAfter = old }
}

// SetSessionCap changes the hosted-session cap, and returns the
// restore func.
func SetSessionCap(n int) (restore func()) {
	old := maxSessions
	maxSessions = n
	return func() { maxSessions = old }
}

// HandlerVerbs returns the names in livesimd's handler map, sorted.
func HandlerVerbs() []string {
	var names []string
	for name := range (&Server{}).handlerMap() {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}
