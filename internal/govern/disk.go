package govern

import (
	"fmt"
	"sync"
	"syscall"
)

// PressureLevel is one rung of the disk-pressure ladder. Rungs are
// ordered: every degradation active at Elevated stays active at
// Emergency — clearing pressure walks back down through the same rungs
// (with hysteresis so a byte of freed space doesn't flap the level).
type PressureLevel int

const (
	// LevelOK: full durability — inline fsync, normal checkpoint
	// cadence, everything journaled.
	LevelOK PressureLevel = iota
	// LevelElevated: disk is filling. WAL switches to group-commit
	// fsync, checkpoint watermark cadence widens, redundant checkpoint
	// backups are GC'd. Durability window widens but nothing is lost.
	LevelElevated
	// LevelEmergency: no room to even checkpoint. Mutations are
	// rejected with ErrDiskFull (reads still work) so the daemon never
	// accepts state changes it has no way to make durable or recover.
	LevelEmergency
)

func (l PressureLevel) String() string {
	switch l {
	case LevelOK:
		return "ok"
	case LevelElevated:
		return "elevated"
	case LevelEmergency:
		return "emergency"
	}
	return fmt.Sprintf("level(%d)", int(l))
}

// engageBelow holds each rung's watermark, the free-space fraction
// (free/total) below which it engages. A rung disengages only once free
// rises above its watermark*(1+hysteresis) — elevated at <20% free
// clears at >25% — so a workload oscillating around a threshold doesn't
// toggle degradations every probe.
var engageBelow = [...]float64{LevelElevated: 0.20, LevelEmergency: 0.03}

const hysteresis = 0.25

// StatfsProbe is the production free-space probe: Statfs on the state
// dir, counting blocks available to unprivileged callers (Bavail, not
// Bfree) because that is what a write from the daemon can actually
// use.
func StatfsProbe(path string) (free, total uint64, err error) {
	var st syscall.Statfs_t
	if err := syscall.Statfs(path, &st); err != nil {
		return 0, 0, err
	}
	bs := uint64(st.Bsize)
	return uint64(st.Bavail) * bs, uint64(st.Blocks) * bs, nil
}

// DiskMonitor classifies successive (free, total) probes into a
// PressureLevel with hysteresis. It holds no goroutine of its own —
// the server's governor ticker calls Eval at its own cadence, and
// tests call it with synthetic numbers.
type DiskMonitor struct {
	mu    sync.Mutex
	probe func(path string) (free, total uint64, err error)
	path  string
	level PressureLevel
	free  uint64
	total uint64
}

// NewDiskMonitor builds a monitor over path, reading free and total
// bytes of its filesystem through probe: StatfsProbe, or a substitute
// in tests and fault injection.
func NewDiskMonitor(path string, probe func(path string) (free, total uint64, err error)) *DiskMonitor {
	return &DiskMonitor{probe: probe, path: path}
}

// Eval probes the disk and returns the (possibly unchanged) pressure
// level plus whether it changed since the previous Eval. A probe error
// leaves the level where it was — a transient statfs failure must not
// drop degradations that a genuinely full disk earned.
func (m *DiskMonitor) Eval() (level PressureLevel, changed bool, err error) {
	free, total, err := m.probe(m.path)
	m.mu.Lock()
	defer m.mu.Unlock()
	if err != nil {
		return m.level, false, err
	}
	m.free, m.total = free, total
	next := m.classify(free, total)
	changed = next != m.level
	m.level = next
	return next, changed, nil
}

// Free returns the last probed (free, total) bytes.
func (m *DiskMonitor) Free() (free, total uint64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.free, m.total
}

// classify maps a free fraction to a rung, honoring hysteresis
// relative to the current level. Escalation is immediate (a filling
// disk is an emergency in the making); de-escalation one rung at a
// time requires clearing the rung's watermark by the hysteresis
// margin.
func (m *DiskMonitor) classify(free, total uint64) PressureLevel {
	if total == 0 {
		return m.level
	}
	frac := float64(free) / float64(total)
	raw := LevelOK
	for raw < LevelEmergency && frac < engageBelow[raw+1] {
		raw++
	}
	if raw >= m.level {
		return raw // escalate (or hold) immediately
	}
	// De-escalate one rung at a time; each step requires clearing the
	// rung's own engage watermark by the hysteresis margin, so a big
	// reclaim drops several rungs in one probe while a marginal one
	// holds inside the band.
	lvl := m.level
	for lvl > raw && frac > engageBelow[lvl]*(1+hysteresis) {
		lvl--
	}
	return lvl
}
