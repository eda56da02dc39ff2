package server

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"livesim/internal/govern"
	"livesim/internal/obs"
)

// The resource governor. One ticker goroutine (started by New whenever
// a StateDir or a memory budget exists) drives three concerns through
// internal/govern's mechanisms:
//
//   - the disk-pressure ladder: free space under StateDir is classified
//     into rungs, and rung transitions map onto concrete degradations —
//     group-commit fsync + wider checkpoint cadence + backup GC at
//     Elevated, mutations refused at Emergency. De-escalation walks the
//     same rungs back with hysteresis. No rung acks a mutation its
//     journal does not hold: below Emergency an append the disk refuses
//     undoes and refuses its own mutation (see rewind in recovery.go).
//
//   - memory accounting: each session's byte estimate (checkpoint
//     history + live pipe state + journal tail, refreshed by its worker
//     after mutations) feeds session_mem_bytes gauges, and past
//     Config.MemBudget the governor sheds the idlest evictable sessions
//     exactly like idle eviction (dirty ones are checkpointed first; a
//     journaled session resurrects at the next boot).
//
// Admission control is the third governor but needs no ticker: it is
// the synchronous TryAcquire/Release pair of admitCall (server.go), each
// request weighed by its verb's cost in the catalogue (internal/catalogue).

const (
	// defaultAdmitBudget is the stock process-wide in-flight budget in
	// verb cost units: 32 concurrent run/apply-weight requests, or a few
	// hundred light ones.
	defaultAdmitBudget = 256
	// defaultDiskPollEvery is the governor tick cadence.
	defaultDiskPollEvery = 2 * time.Second
	// pressureGroupCommit is the WAL fsync batching interval forced onto
	// inline-fsync journals at the Elevated rung: fewer fsyncs, wider
	// durability window, nothing lost unless the process dies inside it.
	pressureGroupCommit = 100 * time.Millisecond
	// elevatedCkptFactor widens JournalCheckpointEvery at Elevated+, so
	// watermark churn stops competing for the disk that's filling up.
	elevatedCkptFactor = 4
)

// memEvictIdle: sessions idle less than this are never shed for memory,
// however tight the budget — someone is using them. A var so tests can
// shrink it.
var memEvictIdle = 30 * time.Second

// diskProbe is the governor's free-space probe: Statfs, with a Faults
// plan's ForceDiskFree override winning so fault tests drive the ladder
// deterministically on any filesystem.
func (s *Server) diskProbe(path string) (free, total uint64, err error) {
	if f, t, ok := s.cfg.Faults.DiskFree(); ok {
		return f, t, nil
	}
	return govern.StatfsProbe(path)
}

// diskLevelNow returns the cached pressure rung the request path checks
// (always LevelOK without a state dir).
func (s *Server) diskLevelNow() govern.PressureLevel {
	return govern.PressureLevel(s.diskLevel.Load())
}

// governor is the resource-governance ticker.
func (s *Server) governor() {
	tick := time.NewTicker(s.cfg.DiskPollEvery)
	defer tick.Stop()
	for {
		select {
		case <-s.janitorStop:
			return
		case <-tick.C:
			s.governTick()
		}
	}
}

// governTick runs one governor pass: probe the disk and apply rung
// transitions, refresh memory gauges, shed sessions past the budget.
func (s *Server) governTick() {
	if s.disk != nil {
		prev := s.diskLevelNow()
		lvl, changed, err := s.disk.Eval()
		if err != nil {
			s.log.Warn("disk probe failed", obs.Str("err", err.Error()))
		}
		free, total := s.disk.Free()
		s.reg.Gauge("server_disk_free_bytes").Set(free)
		s.reg.Gauge("server_disk_total_bytes").Set(total)
		s.diskLevel.Store(int32(lvl))
		if changed {
			s.applyPressure(prev, lvl)
		}
	}
	s.memGovern()
}

// applyPressure maps one rung transition onto degradations: escalation
// applies them, de-escalation lifts them. The Emergency refusal needs
// nothing here — the request path reads the cached rung.
func (s *Server) applyPressure(prev, next govern.PressureLevel) {
	free, total := s.disk.Free()
	s.tel.Event("disk_pressure", "", "",
		fmt.Sprintf("disk pressure %s -> %s (%d of %d bytes free)", prev, next, free, total))

	hs := s.hostedSet(false) // all journaled: the ladder runs only with a state dir

	switch {
	case next >= govern.LevelElevated && prev < govern.LevelElevated:
		// Filling: batch fsyncs, widen watermark cadence, drop the
		// redundant .bak checkpoint copies (atomic writers keep them as
		// belt-and-braces; pressure is when the braces go).
		s.ckptFactor.Store(elevatedCkptFactor)
		for _, h := range hs {
			if err := h.wal.SetGroupCommit(pressureGroupCommit); err != nil {
				s.log.Warn("group-commit switch failed",
					obs.Str("session", h.name), obs.Str("err", err.Error()))
			}
		}
		s.gcCheckpointBackups()
	case next < govern.LevelElevated && prev >= govern.LevelElevated:
		s.ckptFactor.Store(1)
		for _, h := range hs {
			if err := h.wal.SetGroupCommit(0); err != nil {
				s.log.Warn("group-commit restore failed",
					obs.Str("session", h.name), obs.Str("err", err.Error()))
			}
		}
	}
}

// gcCheckpointBackups reclaims the .lscp.bak redundancy copies in the
// state dir at the elevated rung.
func (s *Server) gcCheckpointBackups() {
	matches, _ := filepath.Glob(filepath.Join(s.cfg.StateDir, "*.lscp.bak"))
	freed := 0
	for _, m := range matches {
		if os.Remove(m) == nil {
			freed++
		}
	}
	if freed > 0 {
		s.tel.Event("disk_gc", "", "", fmt.Sprintf("removed %d redundant checkpoint backup(s)", freed))
	}
}

// updateMemUsage refreshes a session's footprint estimate. Called on
// the session's worker goroutine (after mutations) and during recovery
// before the worker starts — the only places touching the live session
// is safe.
func (s *Server) updateMemUsage(h *hosted) {
	ck, st := h.sess.Load().MemUsage()
	h.memCkpt.Store(ck)
	h.memState.Store(st)
	if h.wal != nil {
		if sz := h.wal.Size(); sz > 0 {
			h.memWAL.Store(uint64(sz))
		}
	}
	h.memGauge.Set(h.memBytes().Total())
}

// memGovern publishes the process-wide memory estimate and, past the
// budget, sheds the idlest evictable sessions until back under it.
func (s *Server) memGovern() {
	hs := s.hostedSet(false)
	total := uint64(0)
	for _, h := range hs {
		total += h.memBytes().Total()
	}
	s.reg.Gauge("server_mem_bytes").Set(total)

	if s.cfg.MemBudget == 0 || total <= s.cfg.MemBudget {
		return
	}
	// Over budget: rank candidates idlest-first and shed until under.
	// Busy, recovering, or recently-used sessions are never shed — if
	// everything is busy, the admission budget is the backstop, not
	// eviction mid-use.
	sort.Slice(hs, func(i, j int) bool { return hs[i].idle() > hs[j].idle() })
	sheddable := func(h *hosted) bool { return h.queue.len() == 0 && h.idle() >= memEvictIdle }
	for _, h := range hs {
		if total <= s.cfg.MemBudget {
			break
		}
		mem := h.memBytes().Total()
		if h = s.unlink(h.name, sheddable); h != nil {
			total -= mem
			s.evict(h, fmt.Sprintf("memory pressure: shed ~%d bytes (idle %v)", mem, h.idle().Round(time.Second)))
		}
	}
}
