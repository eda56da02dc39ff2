package server

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"livesim/internal/command"
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
//     Elevated, journals paused (sessions nondurable) at Critical,
//     mutations rejected at Emergency. De-escalation walks the same
//     rungs back with hysteresis; paused journals resume on the
//     worker goroutine via a reanchor record (see tryResumeJournal in
//     recovery.go) so the pre-pause gap can never silently diverge a
//     replay.
//
//   - memory accounting: each session's byte estimate (checkpoint
//     history + live pipe state + journal tail, refreshed by its worker
//     after mutations) feeds session_mem_bytes gauges, and past
//     Config.MemBudget the governor sheds the idlest evictable sessions
//     exactly like idle eviction (dirty ones are checkpointed first; a
//     journaled session resurrects at the next boot).
//
// Admission control is the third governor but needs no ticker: it is
// the synchronous TryAcquire/Release pair in dispatch (server.go).

const (
	// defaultAdmitBudget is the stock process-wide in-flight budget in
	// verb cost units: 32 concurrent run/apply-weight requests, or a few
	// hundred light ones.
	defaultAdmitBudget = 256
	// createCost weights session creation (compile + boot + journal IO)
	// against the admission budget like the heavy session verbs.
	createCost = 8
	// defaultDiskPollEvery is the governor tick cadence.
	defaultDiskPollEvery = 2 * time.Second
	// memEvictIdle: sessions idle less than this are never shed for
	// memory, however tight the budget — someone is using them.
	memEvictIdle = 30 * time.Second
	// defaultJournalResumeDelay is the pause→resume cooldown.
	defaultJournalResumeDelay = 250 * time.Millisecond
	// pressureGroupCommit is the WAL fsync batching interval forced onto
	// inline-fsync journals at the Elevated rung: fewer fsyncs, wider
	// durability window, nothing lost unless the process dies inside it.
	pressureGroupCommit = 100 * time.Millisecond
	// elevatedCkptFactor widens JournalCheckpointEvery at Elevated+, so
	// watermark churn stops competing for the disk that's filling up.
	elevatedCkptFactor = 4
)

// admissionCost maps a verb onto its admission-budget weight. Session
// verbs use the shared command table's cost; create is weighed like a
// heavy verb; every other server verb (ping, sessions, events, top, …)
// is free so overload can always be diagnosed from the outside.
func admissionCost(verb string) int64 {
	switch verb {
	case "create", "import", "replicate":
		// import writes a seed's journal and checkpoints and replays them;
		// replicate checkpoints every pipe, reads the journal and waits on
		// that import — both weigh like create.
		return createCost
	case "replapply", "promote":
		// The replication stream and failover must keep flowing under
		// overload — rejecting them would turn load into lag (or a failed
		// failover). They are paced by the primary's own mutation path.
		return 0
	}
	if serverVerbs[verb] {
		return 0
	}
	return int64(command.CostOf(verb))
}

// diskProbe builds the governor's free-space probe: the configured one
// (or Statfs), with a Faults plan's ForceDiskFree override winning so
// fault tests drive the ladder deterministically on any filesystem.
func (s *Server) diskProbe() govern.DiskProbe {
	base := s.cfg.DiskProbe
	if base == nil {
		base = govern.StatfsProbe
	}
	faults := s.cfg.Faults
	return func(path string) (free, total uint64, err error) {
		if f, t, ok := faults.DiskFree(); ok {
			return f, t, nil
		}
		return base(path)
	}
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
		s.reg.Gauge("server_disk_pressure_level").Set(uint64(lvl))
		s.diskLevel.Store(int32(lvl))
		if changed {
			s.applyPressure(prev, lvl)
		}
		if lvl >= govern.LevelCritical {
			// Steady-state enforcement: sessions created (or recovered)
			// while the rung was already critical missed the transition —
			// the sweep pauses them too, so no journal writes happen at a
			// rung where they are expected to fail.
			s.mu.Lock()
			hs := make([]*hosted, 0, len(s.sessions))
			for _, h := range s.sessions {
				if h.sess != nil && h.wal != nil {
					hs = append(hs, h)
				}
			}
			s.mu.Unlock()
			for _, h := range hs {
				s.pauseJournal(h, fmt.Sprintf("disk pressure %s", lvl))
			}
		}
	}
	s.reg.Gauge("server_admit_inflight").Set(uint64(s.admit.Inflight()))
	s.reg.Gauge("server_admit_rejects").Set(uint64(s.admit.Rejects()))
	s.memGovern()
}

// applyPressure maps one rung transition onto degradations. Escalation
// applies them; de-escalation lifts what this side owns (group commit,
// checkpoint cadence) — journal resume stays on each session's worker
// goroutine, where touching the session is safe.
func (s *Server) applyPressure(prev, next govern.PressureLevel) {
	free, total := s.disk.Free()
	s.reg.Counter("server_disk_pressure_changes").Inc()
	s.event("disk_pressure", "",
		fmt.Sprintf("disk pressure %s -> %s (%d of %d bytes free)", prev, next, free, total))

	s.mu.Lock()
	hs := make([]*hosted, 0, len(s.sessions))
	for _, h := range s.sessions {
		if h.sess != nil && h.wal != nil {
			hs = append(hs, h)
		}
	}
	s.mu.Unlock()

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

	if next >= govern.LevelCritical && prev < govern.LevelCritical {
		// Writes are about to start failing; stop issuing them on our own
		// terms instead of discovering ENOSPC one mutation at a time.
		for _, h := range hs {
			s.pauseJournal(h, fmt.Sprintf("disk pressure %s", next))
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
		s.reg.Counter("server_ckpt_backups_gced").Add(uint64(freed))
		s.event("disk_gc", "", fmt.Sprintf("removed %d redundant checkpoint backup(s)", freed))
	}
}

// pauseJournal suspends a session's durability. Safe from any
// goroutine: the flag is atomic, and the worker observes it at the top
// of journalMutation (one append may still slip through on the rung
// transition — harmless, it either lands or fails into this same
// path).
func (s *Server) pauseJournal(h *hosted, reason string) {
	if h.wal == nil || !h.journalPaused.CompareAndSwap(false, true) {
		return
	}
	h.pausedAt.Store(time.Now().UnixNano())
	s.reg.Counter("server_journal_pauses").Inc()
	s.updateNondurableGauge()
	s.event("journal_paused", h.name, reason)
}

// updateNondurableGauge recounts journal-paused sessions into the
// nondurable_sessions gauge.
func (s *Server) updateNondurableGauge() {
	s.mu.Lock()
	n := uint64(0)
	for _, h := range s.sessions {
		if h.journalPaused.Load() {
			n++
		}
	}
	s.mu.Unlock()
	s.reg.Gauge("nondurable_sessions").Set(n)
}

// updateMemUsage refreshes a session's footprint estimate. Called on
// the session's worker goroutine (after mutations) and during recovery
// before the worker starts — the only places touching the live session
// is safe.
func (s *Server) updateMemUsage(h *hosted) {
	ck, st := h.sess.MemUsage()
	h.memCkpt.Store(ck)
	h.memState.Store(st)
	if h.wal != nil {
		if sz := h.wal.Size(); sz > 0 {
			h.memWAL.Store(uint64(sz))
		}
	}
	h.reg.Gauge("session_mem_bytes").Set(h.memBytes().Total())
}

// memGovern publishes the process-wide memory estimate and, past the
// budget, sheds the idlest evictable sessions until back under it.
func (s *Server) memGovern() {
	type cand struct {
		h   *hosted
		mem uint64
	}
	s.mu.Lock()
	total := uint64(0)
	cands := make([]cand, 0, len(s.sessions))
	for _, h := range s.sessions {
		if h.sess == nil {
			continue
		}
		m := h.memBytes().Total()
		total += m
		cands = append(cands, cand{h, m})
	}
	s.mu.Unlock()
	s.reg.Gauge("server_mem_bytes").Set(total)
	s.updateNondurableGauge()

	if s.cfg.MemBudget == 0 || total <= s.cfg.MemBudget {
		return
	}
	// Over budget: rank candidates idlest-first and shed until under.
	// Busy, recovering, or recently-used sessions are never shed — if
	// everything is busy, the admission budget is the backstop, not
	// eviction mid-use.
	sort.Slice(cands, func(i, j int) bool { return cands[i].h.idle() > cands[j].h.idle() })
	var victims []cand
	s.mu.Lock()
	for _, c := range cands {
		if total <= s.cfg.MemBudget {
			break
		}
		h := c.h
		if s.sessions[h.name] != h || h.recovering.Load() || len(h.queue) > 0 ||
			h.idle() < memEvictIdle {
			continue
		}
		delete(s.sessions, h.name)
		victims = append(victims, c)
		total -= c.mem
	}
	s.mu.Unlock()
	for _, c := range victims {
		s.reg.Counter("server_mem_pressure_evictions").Inc()
		s.evictHosted(c.h, fmt.Sprintf("memory pressure: shed ~%d bytes (idle %v)",
			c.mem, c.h.idle().Round(time.Second)))
	}
}
