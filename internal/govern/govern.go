// Package govern is livesimd's resource-governance plane: the process-
// wide mechanisms that make one daemon degrade predictably instead of
// falling over when demand outruns CPU, disk or memory.
//
// Three governors live here, each consumed by internal/server:
//
//   - Admission: a global in-flight budget weighted by verb cost, layered
//     on top of the per-session bounded queues. The queues protect one
//     session from wedging the daemon; the admission budget protects the
//     daemon from 64 sessions' worth of full queues landing on one core.
//     Over-budget requests are rejected with ErrOverloaded and a
//     retry_after_ms hint proportional to the overshoot, so well-behaved
//     clients back off instead of hammering.
//
//   - the disk-pressure ladder (DiskMonitor): free space under the
//     state directory is classified into rungs — OK, Elevated, Emergency
//     — with hysteresis so the level doesn't flap at a threshold. The
//     server maps rungs to degradations: wider checkpoint cadence and
//     group-commit fsync (Elevated), mutations refused (Emergency). No
//     rung ever acks a mutation the journal does not hold: between the
//     rungs, an append that fails refuses its own mutation.
//
//   - Retry: the one retry-with-jittered-backoff loop shared by WAL
//     appends and checkpoint saves (both previously hand-rolled their
//     own), and the jitter primitive the client's redial backoff uses so
//     a daemon restart doesn't make every client reconnect in lockstep.
//
// Memory accounting rides alongside: MemEstimate is the per-session
// byte-estimate shape (checkpoint history + WAL tail + pipe state) the
// server feeds into session_mem_bytes gauges and its shed-idle-sessions
// eviction policy.
package govern

import (
	"errors"
	"math/rand"
	"sync"
	"time"
)

// ErrOverloaded is the typed admission rejection: the process-wide
// in-flight budget is exhausted. It always travels with a retry-after
// hint (Admission.TryAcquire), and the wire protocol carries the hint as
// retry_after_ms so clients can back off without parsing error text.
var ErrOverloaded = errors.New("server overloaded (in-flight budget exhausted)")

// ErrDiskFull is the typed emergency-rung rejection: the state
// directory is so low on space that accepting another mutation could
// lose data that cannot be journaled or checkpointed.
var ErrDiskFull = errors.New("state disk critically full; mutations rejected")

// Jitter returns d scaled by a uniform factor in [1-frac, 1+frac],
// drawn from rng (or the shared source when rng is nil). Every backoff
// in the system routes through this so independent clients (or retry
// loops) spread out instead of synchronizing: after a daemon restart,
// N clients sleeping exactly 50ms, 100ms, 200ms... reconnect as one
// thundering herd, while ±20% jitter decorrelates them within a couple
// of attempts.
func Jitter(d time.Duration, frac float64, rng *rand.Rand) time.Duration {
	if d <= 0 || frac <= 0 {
		return d
	}
	var u float64
	if rng != nil {
		u = rng.Float64()
	} else {
		u = sharedFloat64()
	}
	f := 1 - frac + 2*frac*u
	return time.Duration(float64(d) * f)
}

var (
	sharedMu  sync.Mutex
	sharedRng = rand.New(rand.NewSource(time.Now().UnixNano()))
)

func sharedFloat64() float64 {
	sharedMu.Lock()
	defer sharedMu.Unlock()
	return sharedRng.Float64()
}

// NewRand returns a private jitter source. Each client seeds its own
// from the shared source so two clients created in the same nanosecond
// still diverge.
func NewRand() *rand.Rand {
	sharedMu.Lock()
	defer sharedMu.Unlock()
	return rand.New(rand.NewSource(sharedRng.Int63()))
}

// Retry runs fn up to attempts times, sleeping a jittered exponential
// backoff (base, doubling, ±20%) between failures, and returns the last
// error. It is the shared retry loop for transient-IO paths — WAL
// appends and checkpoint saves — which previously each hand-rolled
// their own un-jittered versions. sleep is swappable for tests; nil
// uses time.Sleep.
func Retry(attempts int, base time.Duration, sleep func(time.Duration), fn func() error) error {
	if attempts < 1 {
		attempts = 1
	}
	if sleep == nil {
		sleep = time.Sleep
	}
	var err error
	delay := base
	for i := 0; i < attempts; i++ {
		if i > 0 && delay > 0 {
			sleep(Jitter(delay, 0.2, nil))
			delay *= 2
		}
		if err = fn(); err == nil {
			return nil
		}
	}
	return err
}

// MemEstimate is one session's resource-footprint estimate, in bytes.
// The numbers are estimates by design — checkpoint encoding runs on a
// background goroutine, so a just-taken checkpoint is costed at its
// in-memory state size until the encoded form lands — but they are
// consistent estimates: good enough to rank sessions for shedding and
// to alarm on growth, which is all the eviction policy needs.
type MemEstimate struct {
	// Checkpoints is the in-memory checkpoint history (encoded blobs
	// plus live state copies).
	Checkpoints uint64 `json:"checkpoints"`
	// WAL is the on-disk journal tail size (it is re-read into memory on
	// recovery, and it is the disk footprint the ladder governs).
	WAL uint64 `json:"wal"`
	// State is the live pipe state (register slots + memories).
	State uint64 `json:"state"`
}

// Total sums the components.
func (m MemEstimate) Total() uint64 { return m.Checkpoints + m.WAL + m.State }
