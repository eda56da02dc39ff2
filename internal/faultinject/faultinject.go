// Package faultinject is a deterministic fault plan for exercising the
// session's failure paths: compile failures at a chosen phase, hot-reload
// failures on the nth attempt for a chosen object, checkpoint-file
// corruption at a chosen byte offset, testbench panics at a chosen cycle,
// a simulated crash between a checkpoint file's temp write and its
// rename, and — for the serving layer — mid-request connection drops and
// slow-draining clients. The live loop (internal/core), the checkpoint
// store and the session server (internal/server) consult the plan through
// nil-safe hook methods, so an unset plan costs one nil check and no
// allocation on every path it guards.
//
// Faults fire exactly once and record themselves in Fired(), which makes
// table-driven recovery tests deterministic: the first ApplyChange hits
// the fault and must roll back, the retry finds the fault consumed and
// must succeed.
package faultinject

import (
	"errors"
	"fmt"
	"sync"
	"time"
)

// ErrInjected is the sentinel wrapped by every injected failure, so tests
// can assert a returned error came from the plan and not from real code.
var ErrInjected = errors.New("injected fault")

// Plan is a deterministic set of faults to inject. The zero value (and a
// nil *Plan) injects nothing. All methods are safe for concurrent use —
// background verification replays consult the plan from worker
// goroutines.
type Plan struct {
	mu sync.Mutex

	compilePhases map[string]bool // phase -> armed
	reloadNth     map[string]int  // object key -> fail on this attempt (1-based)
	reloadSeen    map[string]int  // object key -> attempts observed
	corruptAt     int             // byte offset to flip, -1 = unarmed
	panicCycle    int64           // testbench panic cycle, -1 = unarmed
	crashStage    string          // checkpoint-save stage to "crash" at
	dropConnAt    int             // sever after the nth request, -1 = unarmed
	slowDelay     time.Duration   // per-response artificial delay
	slowLeft      int             // responses the delay still applies to
	tearAppend    int             // WAL append (1-based) to tear, -1 = unarmed
	tearKeep      int             // bytes of the torn frame to keep
	crashWALAt    int64           // WAL size threshold for kill-at-offset, -1 = unarmed
	stallCycle    int64           // run-chunk cycle to stall at, -1 = unarmed
	stallFor      time.Duration   // how long the stalled chunk sleeps
	fullFrom      int             // first WAL append (1-based) to ENOSPC-fail, -1 = unarmed
	fullLeft      int             // how many consecutive appends fail from fullFrom
	diskDelay     time.Duration   // per-WAL-append artificial disk latency
	diskDelayLeft int             // appends the delay still applies to
	forceFree     int64           // DiskFree override: free bytes, -1 = unarmed
	forceTotal    int64           // DiskFree override: total bytes
	replStages    map[string]bool // replication stage -> armed
	replDropAt    int             // sever the repl stream before the nth batch, -1 = unarmed
	promoteStale  bool            // gateway promotes under a stale (non-bumped) epoch

	fired []string
}

// New returns an empty plan.
func New() *Plan {
	return &Plan{corruptAt: -1, panicCycle: -1, dropConnAt: -1,
		crashWALAt: -1, stallCycle: -1, tearAppend: -1,
		fullFrom: -1, forceFree: -1, replDropAt: -1}
}

// FailCompileAt arms a one-shot failure at the named compiler phase
// ("parse", "elab" or "codegen").
func (p *Plan) FailCompileAt(phase string) *Plan {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.compilePhases == nil {
		p.compilePhases = make(map[string]bool)
	}
	p.compilePhases[phase] = true
	return p
}

// FailReload arms a one-shot failure on the nth (1-based) hot-reload
// attempt of the given object key, counted across ApplyChange calls and
// pipes.
func (p *Plan) FailReload(key string, nth int) *Plan {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.reloadNth == nil {
		p.reloadNth = make(map[string]int)
		p.reloadSeen = make(map[string]int)
	}
	p.reloadNth[key] = nth
	return p
}

// CorruptCheckpoint arms a one-shot bit flip at the given byte offset of
// the next checkpoint file written (offsets past the end wrap, so any
// non-negative offset corrupts something).
func (p *Plan) CorruptCheckpoint(byteOffset int) *Plan {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.corruptAt = byteOffset
	return p
}

// PanicTestbenchAt arms a one-shot panic in the next testbench step that
// starts exactly at the given cycle. Steps begin at checkpoint-interval
// boundaries, so the armed cycle selects precisely which execution path
// hits the fault — e.g. a boundary only background verification replays
// ever start from.
func (p *Plan) PanicTestbenchAt(cycle uint64) *Plan {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.panicCycle = int64(cycle)
	return p
}

// CrashSaveAt arms a one-shot simulated crash during the atomic
// checkpoint-file write at the named stage: "after-temp" (temp file
// written and synced, rename never happens) or "after-backup" (previous
// file moved to .bak, new file never renamed into place).
func (p *Plan) CrashSaveAt(stage string) *Plan {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.crashStage = stage
	return p
}

// DropConnAfter arms a one-shot connection drop: the next server
// connection that reads its nth request (1-based) is severed immediately
// after the read, while the request itself keeps executing — the client
// observes a mid-request disconnect, and the server must complete the
// work, discard the unroutable response, and free the session worker.
func (p *Plan) DropConnAfter(n int) *Plan {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.dropConnAt = n
	return p
}

// SlowClient arms an artificial delay injected before each of the next
// n response writes, simulating a consumer that drains slowly. Request
// execution is not delayed — only the write-back — so a slow client must
// never hold a session worker hostage.
func (p *Plan) SlowClient(d time.Duration, n int) *Plan {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.slowDelay = d
	p.slowLeft = n
	return p
}

// TornWALWrite arms a one-shot torn append: the nth (1-based) WAL
// record append writes only keep bytes of its frame to disk and then
// fails, as if the process died mid-write(2). keep may exceed the frame
// length, in which case the whole frame lands and only the failure is
// simulated.
func (p *Plan) TornWALWrite(nth, keep int) *Plan {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.tearAppend = nth
	p.tearKeep = keep
	return p
}

// CrashWALAt arms the kill-at-WAL-offset crash point: WALSize reports
// true (once) as soon as the journal's durable size reaches offset
// bytes. The caller — livesimd's -crash-wal-offset wiring — is expected
// to SIGKILL itself on that signal.
func (p *Plan) CrashWALAt(offset int64) *Plan {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.crashWALAt = offset
	return p
}

// StallRunAt arms a one-shot stall: the run chunk that starts exactly
// at the given cycle sleeps for d before executing, simulating a
// testbench wedged in a combinational loop so the watchdog deadline can
// be exercised deterministically.
func (p *Plan) StallRunAt(cycle uint64, d time.Duration) *Plan {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.stallCycle = int64(cycle)
	p.stallFor = d
	return p
}

// DiskFullAppends arms ENOSPC failures on count consecutive WAL appends
// starting at the from-th (1-based, counted per plan across all WALs
// consulting it). Unlike TornWALWrite nothing reaches the disk — the
// write fails up front, the way a full filesystem fails it — so the
// journal stays frame-aligned and the session must degrade to
// journal-paused rather than quarantine.
func (p *Plan) DiskFullAppends(from, count int) *Plan {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.fullFrom = from
	p.fullLeft = count
	return p
}

// SlowDisk arms an artificial latency before each of the next n WAL
// appends, simulating a saturated or throttled device so backoff and
// group-commit behavior can be exercised deterministically.
func (p *Plan) SlowDisk(d time.Duration, n int) *Plan {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.diskDelay = d
	p.diskDelayLeft = n
	return p
}

// ForceDiskFree arms a persistent (not one-shot) override of the disk
// probe: every DiskFree call reports the given free/total bytes until
// re-armed or cleared with ClearDiskFree. This is how tests and the
// smoke script walk the pressure ladder without actually filling a
// filesystem.
func (p *Plan) ForceDiskFree(free, total uint64) *Plan {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.forceFree = int64(free)
	p.forceTotal = int64(total)
	return p
}

// ClearDiskFree disarms the ForceDiskFree override.
func (p *Plan) ClearDiskFree() *Plan {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.forceFree = -1
	return p
}

// FailReplAt arms a one-shot failure at the named session-replication
// stage ("seed" — the transfer-blob handoff to the standby — or "ship"
// — a WAL-tail batch send). The shipper consults ReplFault before each
// stage, so an armed stage simulates the standby or network dying at
// exactly that point of the protocol.
func (p *Plan) FailReplAt(stage string) *Plan {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.replStages == nil {
		p.replStages = make(map[string]bool)
	}
	p.replStages[stage] = true
	return p
}

// DropReplStream arms a one-shot stream sever: the shipper's nth
// (1-based) batch send finds its connection cut before any bytes go
// out. The primary must mark the stream broken, reconnect, and resume
// from the acked watermark with nothing lost and nothing re-applied.
func (p *Plan) DropReplStream(nth int) *Plan {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.replDropAt = nth
	return p
}

// ForcePromoteStale arms a one-shot promotion under a stale fencing
// token: the gateway's next failover promotes with the session's
// current epoch instead of bumping it. The standby must reject the
// promotion (typed "fenced"), proving a replayed or duplicate
// promotion cannot regress the epoch.
func (p *Plan) ForcePromoteStale() *Plan {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.promoteStale = true
	return p
}

// Fired returns the faults that have fired, in order.
func (p *Plan) Fired() []string {
	if p == nil {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]string(nil), p.fired...)
}

// ---------------------------------------------------------------- hooks

// CompileFault is consulted by the compiler at the start of each build
// phase. Nil-safe; returns a wrapped ErrInjected when the phase is armed.
func (p *Plan) CompileFault(phase string) error {
	if p == nil {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if !p.compilePhases[phase] {
		return nil
	}
	delete(p.compilePhases, phase)
	p.fired = append(p.fired, "compile:"+phase)
	return fmt.Errorf("faultinject: compile phase %s: %w", phase, ErrInjected)
}

// ReloadFault is consulted before every hot-reload of an object into a
// pipe. Nil-safe; fails the armed attempt exactly once.
func (p *Plan) ReloadFault(key string) error {
	if p == nil {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	nth, armed := p.reloadNth[key]
	if !armed {
		return nil
	}
	p.reloadSeen[key]++
	if p.reloadSeen[key] != nth {
		return nil
	}
	delete(p.reloadNth, key)
	p.fired = append(p.fired, fmt.Sprintf("reload:%s#%d", key, nth))
	return fmt.Errorf("faultinject: reload %s (attempt %d): %w", key, nth, ErrInjected)
}

// Corrupt applies the armed checkpoint corruption to data (in place) and
// returns it. Nil-safe; with no corruption armed data passes through
// untouched.
func (p *Plan) Corrupt(data []byte) []byte {
	if p == nil {
		return data
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.corruptAt < 0 || len(data) == 0 {
		return data
	}
	off := p.corruptAt % len(data)
	data[off] ^= 0xff
	p.fired = append(p.fired, fmt.Sprintf("corrupt:%d", off))
	p.corruptAt = -1
	return data
}

// TestbenchStep is consulted before each testbench run chunk with the
// pipe's current cycle; it panics (exactly once) when the chunk starts at
// the armed cycle. The session's panic recovery converts this into an
// error on the rollback path. Nil-safe.
func (p *Plan) TestbenchStep(cycle uint64) {
	if p == nil {
		return
	}
	p.mu.Lock()
	armed := p.panicCycle >= 0 && int64(cycle) == p.panicCycle
	if armed {
		p.panicCycle = -1
		p.fired = append(p.fired, fmt.Sprintf("tb-panic:%d", cycle))
	}
	p.mu.Unlock()
	if armed {
		panic(fmt.Sprintf("faultinject: testbench panic at cycle %d", cycle))
	}
}

// ConnRequest is consulted by the server after reading each request on
// a connection, with the count of requests read so far on it. Returns
// true — sever now — exactly once, when the armed count is reached.
// Nil-safe.
func (p *Plan) ConnRequest(served int) bool {
	if p == nil {
		return false
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.dropConnAt < 0 || served != p.dropConnAt {
		return false
	}
	p.dropConnAt = -1
	p.fired = append(p.fired, fmt.Sprintf("conn-drop:%d", served))
	return true
}

// ResponseDelay is consulted by the server before each response write;
// it returns the armed slow-client delay (consuming one of its uses) or
// zero. Nil-safe.
func (p *Plan) ResponseDelay() time.Duration {
	if p == nil {
		return 0
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.slowLeft <= 0 {
		return 0
	}
	p.slowLeft--
	if p.slowLeft == 0 {
		p.fired = append(p.fired, "slow-client")
	}
	return p.slowDelay
}

// WALTear is consulted by the WAL before each append with the 1-based
// append count and the frame length about to be written. It returns -1
// (no fault) or the number of frame bytes to write before failing.
// Nil-safe; fires exactly once.
func (p *Plan) WALTear(appendIdx, frameLen int) int {
	if p == nil {
		return -1
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.tearAppend < 0 || appendIdx != p.tearAppend {
		return -1
	}
	p.tearAppend = -1
	p.fired = append(p.fired, fmt.Sprintf("wal-tear:%d@%d/%d", appendIdx, p.tearKeep, frameLen))
	return p.tearKeep
}

// WALSize is consulted after each durable WAL append with the journal's
// new size; it returns true — crash now — exactly once, when the armed
// offset is reached or passed. Nil-safe.
func (p *Plan) WALSize(size int64) bool {
	if p == nil {
		return false
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.crashWALAt < 0 || size < p.crashWALAt {
		return false
	}
	p.crashWALAt = -1
	p.fired = append(p.fired, fmt.Sprintf("wal-crash:%d", size))
	return true
}

// RunStall is consulted before each run chunk with the chunk's starting
// cycle; it returns the armed stall duration (once) when the chunk
// starts at the armed cycle, else zero. Nil-safe.
func (p *Plan) RunStall(cycle uint64) time.Duration {
	if p == nil {
		return 0
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.stallCycle < 0 || int64(cycle) != p.stallCycle {
		return 0
	}
	p.stallCycle = -1
	p.fired = append(p.fired, fmt.Sprintf("run-stall:%d", cycle))
	return p.stallFor
}

// WALWriteErr is consulted by the WAL at the top of each append with
// the 1-based append count. It returns a wrapped ErrInjected for each
// armed ENOSPC append (DiskFullAppends), before any bytes are written.
// Nil-safe.
func (p *Plan) WALWriteErr(appendIdx int) error {
	if p == nil {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.fullFrom < 0 || p.fullLeft <= 0 || appendIdx < p.fullFrom {
		return nil
	}
	p.fullLeft--
	if p.fullLeft == 0 {
		p.fullFrom = -1
	}
	p.fired = append(p.fired, fmt.Sprintf("disk-full:%d", appendIdx))
	return fmt.Errorf("faultinject: write wal append %d: no space left on device: %w", appendIdx, ErrInjected)
}

// DiskDelay is consulted by the WAL before each append; it returns the
// armed slow-disk latency (consuming one use) or zero. Nil-safe.
func (p *Plan) DiskDelay() time.Duration {
	if p == nil {
		return 0
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.diskDelayLeft <= 0 {
		return 0
	}
	p.diskDelayLeft--
	if p.diskDelayLeft == 0 {
		p.fired = append(p.fired, "slow-disk")
	}
	return p.diskDelay
}

// DiskFree reports the armed free-space override, if any. Nil-safe;
// ok=false means the probe should consult the real filesystem.
func (p *Plan) DiskFree() (free, total uint64, ok bool) {
	if p == nil {
		return 0, 0, false
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.forceFree < 0 {
		return 0, 0, false
	}
	return uint64(p.forceFree), uint64(p.forceTotal), true
}

// ReplFault is consulted by the replication shipper before each
// protocol stage. Nil-safe; returns a wrapped ErrInjected at the armed
// stage exactly once.
func (p *Plan) ReplFault(stage string) error {
	if p == nil {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if !p.replStages[stage] {
		return nil
	}
	delete(p.replStages, stage)
	p.fired = append(p.fired, "repl:"+stage)
	return fmt.Errorf("faultinject: replication stage %s: %w", stage, ErrInjected)
}

// ReplDrop is consulted by the shipper before sending each batch, with
// the 1-based lifetime batch count. It returns true — sever the stream
// now — exactly once, when the armed batch is reached. Nil-safe.
func (p *Plan) ReplDrop(batchIdx int) bool {
	if p == nil {
		return false
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.replDropAt < 0 || batchIdx != p.replDropAt {
		return false
	}
	p.replDropAt = -1
	p.fired = append(p.fired, fmt.Sprintf("repl-drop:%d", batchIdx))
	return true
}

// PromoteStale is consulted by the gateway when choosing a promotion
// epoch. It returns true — use the stale epoch — exactly once. Nil-safe.
func (p *Plan) PromoteStale() bool {
	if p == nil {
		return false
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if !p.promoteStale {
		return false
	}
	p.promoteStale = false
	p.fired = append(p.fired, "promote-stale")
	return true
}

// SaveStage is consulted by the atomic checkpoint-file writer at each
// stage of its write protocol. Nil-safe; returns a wrapped ErrInjected at
// the armed stage exactly once, simulating a crash at that point.
func (p *Plan) SaveStage(stage string) error {
	if p == nil {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.crashStage == "" || p.crashStage != stage {
		return nil
	}
	p.crashStage = ""
	p.fired = append(p.fired, "crash-save:"+stage)
	return fmt.Errorf("faultinject: crash during checkpoint save at %s: %w", stage, ErrInjected)
}
