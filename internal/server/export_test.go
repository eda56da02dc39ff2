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

// HandlerVerbs returns the names in livesimd's handler map, sorted.
func HandlerVerbs() []string {
	var names []string
	for name := range (&Server{}).handlerMap() {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}
