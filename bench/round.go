package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"syscall"
	"time"

	"livesim/internal/core"
)

// opDeadline is how long one operation may take before it counts as
// failed instead of hanging the run.
const opDeadline = 30 * time.Second

// simStats are the exact simulated statistics of one round. They depend
// on the seed and the op counts only, never on host speed, so every
// round of a run — and every run of any commit that leaves behaviour
// unchanged — must produce the same values.
type simStats struct {
	FinalCycle uint64 `json:"final_cycle"`
	VMOps      uint64 `json:"vm_ops"`
	// Fingerprint is the SHA-256 of the encoded checkpoint: every slot and
	// memory word of every instance, so it also depends on how the
	// compiler laid the design out.
	Fingerprint string `json:"fingerprint"`
	// Arch is the SHA-256 of the architectural state alone — each node's
	// fetch PC, register file and local store — which no correct compiler
	// or kernel change can move.
	Arch string `json:"arch"`
}

// round is what one fixed-size round of a workload measured.
type round struct {
	setup time.Duration // workload start to first timed op
	wall  time.Duration // the timed section, everything between ops included
	cpu   time.Duration // process CPU over the timed section
	lat   []time.Duration
	// control are the host-speed control's samples around and inside the
	// timed section.
	control []time.Duration

	attempted, failed int
	simCycles         uint64 // session-visible cycles advanced or re-executed
	heapLive          uint64 // HeapAlloc after GC, sessions and servers still live

	allocBytes uint64 // runtime.MemStats deltas over the timed section
	gcCycles   uint32
	gcPauseNs  uint64

	// wantCycle is the cycle the round's operations add up to; a session
	// that ends anywhere else dropped or repeated work.
	wantCycle uint64
	sim       simStats
	// session is the round's (first) session, kept for the oracle only.
	session *core.Session
	// counts are exact per-round tallies of layer work (re-executed
	// cycles, verified segments, rejects by code, ...).
	counts map[string]float64
}

func (r *round) count(name string, v float64) {
	if r.counts == nil {
		r.counts = map[string]float64{}
	}
	r.counts[name] += v
}

// cpuTime is the process's user+system CPU so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// section brackets a round's timed section and samples the host-speed
// control around and inside it.
type section struct {
	parallel bool
	t0       time.Time
	cpu0     time.Duration
	ms0      runtime.MemStats

	control    []time.Duration // samples so far
	lastSample time.Time
	// skipWall and skipCPU are what sampling inside the section took;
	// they are not the workload's time.
	skipWall, skipCPU time.Duration
}

func beginSection(parallel bool) *section {
	s := &section{parallel: parallel}
	s.control = append(s.control, sampleControl(parallel))
	runtime.ReadMemStats(&s.ms0)
	s.cpu0 = cpuTime()
	s.t0 = time.Now()
	s.lastSample = s.t0
	return s
}

// sample takes a control sample between two operations if the last one is
// controlEvery old. No operation may be in flight.
func (s *section) sample() {
	t := time.Now()
	if t.Sub(s.lastSample) < controlEvery {
		return
	}
	c := cpuTime()
	s.control = append(s.control, sampleControl(s.parallel))
	s.lastSample = time.Now()
	s.skipWall += s.lastSample.Sub(t)
	s.skipCPU += cpuTime() - c
}

// end closes the timed section into r, then collects garbage and records
// what is still reachable — the caller must still hold its sessions and
// servers.
func (s *section) end(r *round) {
	r.wall = time.Since(s.t0) - s.skipWall
	r.cpu = cpuTime() - s.cpu0 - s.skipCPU
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	r.allocBytes = ms.TotalAlloc - s.ms0.TotalAlloc
	r.gcCycles = ms.NumGC - s.ms0.NumGC
	r.gcPauseNs = ms.PauseTotalNs - s.ms0.PauseTotalNs
	r.control = append(s.control, sampleControl(s.parallel))
	// Twice: the first collection only moves sync.Pool contents to the
	// victim cache, the second frees them, so pools do not count as live.
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&ms)
	r.heapLive = ms.HeapAlloc
}

// timedOp runs one operation under the op deadline. The operation keeps
// running on its goroutine if it blows the deadline; the caller gives the
// round up, so a wedged op costs one failure and never a hung benchmark.
func timedOp(f func() error) (time.Duration, error) {
	done := make(chan error, 1)
	t0 := time.Now()
	go func() { done <- f() }()
	timer := time.NewTimer(opDeadline)
	defer timer.Stop()
	select {
	case err := <-done:
		return time.Since(t0), err
	case <-timer.C:
		return time.Since(t0), fmt.Errorf("operation exceeded its %v deadline", opDeadline)
	}
}

func fingerprint(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}
