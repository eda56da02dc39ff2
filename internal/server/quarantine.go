package server

import (
	"fmt"
	"sync"
	"time"
)

// Session quarantine. A flapping session — one that keeps rolling back,
// panicking, blowing run deadlines or failing its durability IO — gets
// its mutations cut off by a per-session failure breaker while reads
// and every other session keep working. The breaker counts consecutive
// failures with time decay: any success resets it, and failures spaced
// further apart than the decay window do not accumulate, so a session
// that hits one bad edit a day never trips. An operator (or a test)
// clears a tripped breaker with the `unquarantine` server verb.

// quarantineAfter is how many consecutive failures (rollbacks, panics,
// blown deadlines, durability IO failures) trip a session's breaker. A
// var so tests can lower it.
var quarantineAfter = 3

// quarantineDecay is how far apart failures may be and still count as
// one streak.
const quarantineDecay = time.Minute

// breaker is the per-session failure circuit breaker.
type breaker struct {
	mu       sync.Mutex
	fails    int
	lastFail time.Time
	tripped  bool
	reason   string
}

// fail records one failure and reports whether this call tripped the
// breaker open.
func (b *breaker) fail(reason string) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	now := time.Now()
	if !b.lastFail.IsZero() && now.Sub(b.lastFail) > quarantineDecay {
		b.fails = 0 // stale streak: failures this far apart don't accumulate
	}
	b.fails++
	b.lastFail = now
	if b.tripped || b.fails < quarantineAfter {
		return false
	}
	b.tripped = true
	b.reason = fmt.Sprintf("%d consecutive failures, last: %s", b.fails, reason)
	return true
}

// success resets the consecutive-failure streak. It does not close a
// tripped breaker — only unquarantine does that — but while the breaker
// is open only reads can succeed, so this is never reached then.
func (b *breaker) success() {
	b.mu.Lock()
	b.fails = 0
	b.mu.Unlock()
}

// quarantined reports whether the breaker is open, and why.
func (b *breaker) quarantined() (bool, string) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.tripped, b.reason
}

// clear closes the breaker and zeroes the streak (the unquarantine verb).
func (b *breaker) clear() {
	b.mu.Lock()
	b.tripped = false
	b.fails = 0
	b.reason = ""
	b.mu.Unlock()
}

// noteFailure feeds one session failure into its breaker, handling the
// trip transition (the quarantine_trip event and a black-box dump).
func (s *Server) noteFailure(h *hosted, reason string) {
	if h.brk.fail(reason) {
		// A breaker trip means the session repeatedly failed in quick
		// succession — dump the black box while the evidence (the spans
		// and events of the failing streak) is still in the ring.
		s.tel.Blackbox("quarantine_trip", h.name, "", reason)
	}
}
