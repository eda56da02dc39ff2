package server

import "time"

// WireVerbs lists every verb the server answers outside the shared
// command table: the server verbs and the session-queued special verbs.
func WireVerbs() []string {
	var out []string
	for v := range serverVerbs {
		out = append(out, v)
	}
	for v := range specialVerbs {
		out = append(out, v)
	}
	return out
}

// SetMemEvictIdle shortens how long a session must idle before the
// memory governor may shed it, and returns the restore func.
func SetMemEvictIdle(d time.Duration) (restore func()) {
	old := memEvictIdle
	memEvictIdle = d
	return func() { memEvictIdle = old }
}
