package server

import (
	"fmt"
	"time"

	"livesim/internal/wire"
)

// Moving a session. The gateway moves a session by making the target its
// standby, catching the replication stream up and promoting the target
// (replicate.go); what is left here is what the source does around it. A
// close with a forwarding address leaves a "moved" tombstone behind, so
// stragglers that still dial the old backend get redirected instead of
// no_session; the gateway's reconcile sweep leaves the same tombstone on
// a resurrected stale copy it closes.

// maxMovedTombstones bounds the forwarding table; oldest entries fall
// off first. A straggler that misses its tombstone degrades to
// no_session — safe, just less helpful.
const maxMovedTombstones = 512

// movedTombstoneTTL expires forwarding tombstones: a session re-homed
// again by a later migration or failover must not keep getting
// redirected to its first destination by a long-lived source. Expiry
// degrades to no_session, which sends a well-behaved client back to
// the gateway for fresh routing. A var so tests can shrink it.
var movedTombstoneTTL = 10 * time.Minute

// requestDrain is the operator-initiated drain verb: it fires the same
// graceful-drain machinery SIGTERM does — via the host process, which
// selects on DrainRequested and calls Shutdown with its own deadline
// and drain-dir policy. The verb acks immediately; running Shutdown
// inline would deadlock on this very request's in-flight count.
func (s *Server) requestDrain(req *Request) *Response {
	if s.env.Draining() {
		return wire.Refuse(req, wire.CodeDraining, ErrDraining)
	}
	s.drainOnce.Do(func() { close(s.drainReq) })
	s.tel.Event("drain_requested", "", "", "graceful drain requested over the wire")
	return &Response{ID: req.ID, OK: true,
		Output: "drain requested; server will checkpoint sessions and stop\n"}
}

// DrainRequested is closed when a client issues the drain verb. Host
// processes (cmd/livesimd) select on it alongside SIGTERM and run the
// same Shutdown path.
func (s *Server) DrainRequested() <-chan struct{} { return s.drainReq }

// movedEntry is one forwarding tombstone.
type movedEntry struct {
	addr string
	at   time.Time
}

// noteMoved records a forwarding tombstone: requests for name now get
// CodeMoved + addr instead of no_session. Bounded (oldest falls off)
// and TTL'd (see movedTombstoneTTL).
func (s *Server) noteMoved(name, addr string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for n, m := range s.moved {
		if time.Since(m.at) > movedTombstoneTTL {
			delete(s.moved, n)
		}
	}
	if len(s.moved) >= maxMovedTombstones {
		oldest, oldestAt := "", time.Time{}
		for n, m := range s.moved {
			if oldest == "" || m.at.Before(oldestAt) {
				oldest, oldestAt = n, m.at
			}
		}
		delete(s.moved, oldest)
	}
	s.moved[name] = movedEntry{addr: addr, at: time.Now()}
}

// movedTo reports where a departed session went, if known and fresh.
func (s *Server) movedTo(name string) (string, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	m, ok := s.moved[name]
	if ok && time.Since(m.at) > movedTombstoneTTL {
		delete(s.moved, name)
		return "", false
	}
	return m.addr, ok
}

// movedResp builds the CodeMoved redirect response.
func movedResp(req *Request, addr string) *Response {
	r := wire.Refuse(req, wire.CodeMoved, fmt.Errorf("session %q: %w (now at %s)", req.Session, ErrMoved, addr))
	r.MovedTo = addr
	return r
}

// Halt stops the server abruptly — no drain, no final watermarks, no
// checkpoint saves — leaving the state dir exactly as a SIGKILL would:
// journals durable up to their last fsync, nothing else. It exists so
// in-process crash tests and the fleet benchmark can kill a backend
// and restart it on the same state dir without forking a process.
func (s *Server) Halt() {
	if !s.env.Stop() {
		return
	}
	s.env.Close()
	close(s.janitorStop)
	for _, h := range s.hostedSet(false) {
		// No marks are written: recovery must replay the journal tail,
		// exactly as after a real crash. (Closing the journal still
		// flushes buffered appends; run crash-fidelity tests that need
		// torn tails through the SIGKILL matrix instead.)
		if h = s.unlink(h.name, nil); h != nil && s.stop(h, 2*time.Second) {
			s.persist(h, leaveJournal)
		}
	}
	s.recoveryWG.Wait()
	s.bgWG.Wait()
	s.tel.Stop()
}
