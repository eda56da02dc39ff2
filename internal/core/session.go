// Package core is the paper's primary contribution: the LiveSim
// environment itself. A Session owns the Object Library Table (Table II),
// the Pipeline Table (Table III) and the Stage Table (Table IV), speaks
// the command vocabulary of Table I (ldLib, instPipe, instStage, copyPipe,
// run, chkp, ldch, swapStage), journals the operation history, takes
// checkpoints at regular intervals, and drives the live
// edit-run-debug loop: incremental compile → hot reload → checkpoint
// restore → fast re-execution → background consistency verification.
package core

import (
	"errors"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"

	"livesim/internal/checkpoint"
	"livesim/internal/codegen"
	"livesim/internal/faultinject"
	"livesim/internal/frame"
	"livesim/internal/livecompiler"
	"livesim/internal/liveparser"
	"livesim/internal/obs"
	"livesim/internal/prof"
	"livesim/internal/sim"
	"livesim/internal/vm"
	"livesim/internal/xform"
)

// Testbench drives a pipe. Implementations must be deterministic,
// resumable (Run(d, a) followed by Run(d, b) must equal Run(d, a+b)) and
// snapshotable, so that checkpointed sessions replay exactly.
type Testbench interface {
	// Run advances the pipe by up to the given number of cycles.
	Run(d *Driver, cycles int) error
	// Snapshot captures the testbench's internal state.
	Snapshot() []byte
	// Restore loads a snapshot taken from the same testbench type.
	Restore(data []byte) error
}

// TestbenchFactory creates a fresh testbench instance in its power-on
// state. Fresh instances back parallel verification replays.
type TestbenchFactory func() Testbench

// Driver is the face a testbench sees of a pipe.
type Driver struct {
	s *sim.Sim
}

// SetIn drives a root input port.
func (d *Driver) SetIn(port string, v uint64) error { return d.s.SetIn(port, v) }

// Out reads a root port.
func (d *Driver) Out(port string) (uint64, error) { return d.s.Out(port) }

// Tick advances the clock.
func (d *Driver) Tick(n int) error { return d.s.Tick(n) }

// Settle runs the combinational fixed point without a clock edge.
func (d *Driver) Settle() error { return d.s.Settle() }

// Cycle returns the current cycle.
func (d *Driver) Cycle() uint64 { return d.s.Cycle() }

// Finished reports whether the design executed $finish.
func (d *Driver) Finished() bool { return d.s.Finished() }

// Peek reads a hierarchical signal.
func (d *Driver) Peek(path string) (uint64, error) { return d.s.Peek(path) }

// Poke writes a hierarchical signal.
func (d *Driver) Poke(path string, v uint64) error { return d.s.Poke(path, v) }

// PeekMem reads a memory word.
func (d *Driver) PeekMem(path string, addr uint64) (uint64, error) { return d.s.PeekMem(path, addr) }

// PokeMem writes a memory word.
func (d *Driver) PokeMem(path string, addr, v uint64) error { return d.s.PokeMem(path, addr, v) }

// RunOp is one journaled run command (the session history of Sec. III-B:
// "such changes are viewed by LiveSim as operations on the UUT, whose
// history is tracked ... allowing those same operations to be applied
// again, should the design be updated").
type RunOp struct {
	TB     string
	Cycles int
	// StartCycle is the pipe cycle when the op began.
	StartCycle uint64
}

// LibEntry is one row of the Object Library Table (Table II).
type LibEntry struct {
	Handle     string // e.g. "stage0", "tb0"
	Type       string // "Pipe", "Stage" or "Testbench"
	CodePath   string // source location
	ObjectPath string // specialization key (the "libc0.so#core" analogue)
}

// StageRow is one row of the Stage Table (Table IV).
type StageRow struct {
	PipeName  string
	StageName string // hierarchical instance path
	Handle    string // object key
	Pointer   string // instance identity
}

// PipeRow is one row of the Pipeline Table (Table III).
type PipeRow struct {
	Name    string
	Handle  string
	Pointer string
}

// Pipe is one instantiated UUT with its session state.
type Pipe struct {
	Name        string
	TopKey      string
	Sim         *sim.Sim
	Version     string
	Checkpoints *checkpoint.Store
	History     []RunOp

	tbs map[string]Testbench // live testbench instances by handle

	lastCheckpoint uint64

	// profiler is the pipe's activity profiler (internal/prof); nil until
	// the first ProfileStart. It outlives attach/detach so statistics stay
	// readable after a ProfileStop, and it is carried across the sim
	// rebuilds of rollback.
	profiler *prof.Profiler
}

// Config tunes a Session.
type Config struct {
	// Style selects the codegen style (grouped = LiveSim's, mux =
	// baseline-like). Defaults to grouped.
	Style codegen.Style
	// CheckpointEvery is the checkpoint interval in cycles (Figure 2(a));
	// 0 disables automatic checkpoints.
	CheckpointEvery uint64
	// Lookback is the reload distance of Section III-D (default 10_000).
	Lookback uint64
	// Overrides rebinds top-level parameters.
	Overrides map[string]uint64
	// ObjectDir, when set, persists compiled objects to disk (.lso files)
	// so later sessions reuse them — the file-system half of Table II's
	// Object Library.
	ObjectDir string
	// Output receives $display text.
	Output io.Writer
	// VerifyWorkers sizes the background consistency pool (0 = NumCPU).
	VerifyWorkers int
	// Metrics, when set, is the registry every layer of the session
	// reports into: the compiler, the kernel, the checkpoint stores and
	// the session itself. Nil disables metrics at zero hot-path cost.
	Metrics *obs.Registry
	// TraceOut, when set, receives one JSON line per completed live-loop
	// span (parse, elab, codegen, swap, reload, reexec, verify, ...).
	TraceOut io.Writer
	// Faults, when set, injects deterministic one-shot failures (compile
	// phase errors, reload errors, checkpoint corruption, testbench
	// panics) for robustness testing. Nil — the normal case — costs
	// nothing: every hook is nil-safe.
	Faults *faultinject.Plan
	// RunBudget, when positive, arms the hung-run watchdog: each run and
	// each replay leg gets this much wall-clock time, checked
	// cooperatively at cycle-batch boundaries. A run that blows the
	// budget fails with ErrRunCancelled and the pipe is rolled back to
	// its pre-run state. Zero disables the watchdog.
	RunBudget time.Duration
}

// Session is the LiveSim environment.
type Session struct {
	mu sync.Mutex

	cfg      Config
	top      string
	compiler *livecompiler.Compiler
	source   liveparser.Source

	// objects is the live Object Library; versionObjects retains the
	// object tables of past versions for checkpoint transformation.
	objects        map[string]*vm.Object
	topKey         string
	version        string
	versionSeq     int
	versions       *VersionGraph
	versionObjects map[string]map[string]*vm.Object

	pipes     map[string]*Pipe
	pipeOrder []string
	tbFactory map[string]TestbenchFactory

	verifyWG sync.WaitGroup

	// healthMu guards health — the robustness counters behind Health().
	// A separate mutex keeps background goroutines off s.mu.
	healthMu sync.Mutex
	health   healthState

	// metrics is cfg.Metrics (possibly nil: all uses are nil-safe);
	// tracer is never nil — with no TraceOut it emits nothing but still
	// times spans, which ApplyChange's ChangeReport is derived from.
	metrics *obs.Registry
	tracer  *obs.Tracer

	// Hot-path instruments, resolved once at construction (the PR 1
	// pattern): Run and takeCheckpoint fire per cycle batch / per
	// checkpoint and must not pay a registry map lookup each time. All
	// nil (and no-op) when metrics are off.
	cRuns        *obs.Counter
	cCyclesRun   *obs.Counter
	hCkptCapture *obs.Histogram
}

// NewSession creates an empty session for the given top module.
func NewSession(top string, cfg Config) *Session {
	if cfg.Lookback == 0 {
		cfg.Lookback = 10_000
	}
	comp := livecompiler.New(top, cfg.Style, cfg.Overrides)
	if cfg.ObjectDir != "" {
		comp.SetObjectDir(cfg.ObjectDir)
	}
	comp.SetMetrics(cfg.Metrics)
	if cfg.Faults != nil {
		comp.SetPhaseHook(cfg.Faults.CompileFault)
	}
	s := &Session{
		cfg:            cfg,
		top:            top,
		compiler:       comp,
		pipes:          make(map[string]*Pipe),
		tbFactory:      make(map[string]TestbenchFactory),
		versionObjects: make(map[string]map[string]*vm.Object),
		metrics:        cfg.Metrics,
		tracer:         obs.NewTracer(cfg.TraceOut),
	}
	s.cRuns = s.metrics.Counter("session_runs")
	s.cCyclesRun = s.metrics.Counter("session_cycles_run")
	s.hCkptCapture = s.metrics.Histogram("checkpoint_capture_seconds", nil)
	// Bridge: the VM/kernel hot loop keeps its existing Stats fast path;
	// its counters (and the activity profiler's totals) are published
	// into the registry only when a snapshot is taken.
	s.metrics.OnSnapshot(s.publishVMStats)
	s.metrics.OnSnapshot(s.publishProfStats)
	return s
}

// Metrics returns the session's registry (nil when metrics are off).
func (s *Session) Metrics() *obs.Registry { return s.metrics }

// publishVMStats copies the per-pipe kernel op counters (vm.Stats, the
// paper's Table VII raw material) into registry gauges. Runs as an
// OnSnapshot hook so the hot loop is never touched.
func (s *Session) publishVMStats() {
	s.mu.Lock()
	defer s.mu.Unlock()
	var agg vm.Stats
	cpLive := 0
	for _, p := range s.pipes {
		agg.Add(p.Sim.Stats)
		cpLive += p.Checkpoints.Len()
	}
	s.metrics.Gauge("vm_ops").Set(agg.Ops)
	s.metrics.Gauge("vm_branches").Set(agg.Branches)
	s.metrics.Gauge("vm_branches_taken").Set(agg.Taken)
	s.metrics.Gauge("vm_mem_ops").Set(agg.MemOps)
	s.metrics.Gauge("session_pipes").Set(uint64(len(s.pipes)))
	s.metrics.Gauge("checkpoints_live").Set(uint64(cpLive))
	s.metrics.Gauge("versions_retained").Set(uint64(len(s.versionObjects)))
}

// SetTraceID binds a wire trace id to the session's tracer: live-loop
// spans started until the next call carry it, correlating them with the
// server request that triggered them ("" clears). The caller must
// serialize requests on the session (livesimd's per-session worker
// does); spans handed to background goroutines keep the id they
// captured at creation.
func (s *Session) SetTraceID(id string) {
	s.tracer.SetTrace(id)
}

// SetTraceContext is SetTraceID plus a parent span id: live-loop spans
// started until the next call parent under parentSID (the server's
// request span) in the fleet-assembled tree instead of floating as
// sibling roots.
func (s *Session) SetTraceContext(id, parentSID string) {
	s.tracer.SetTraceContext(id, parentSID)
}

// LoadDesign performs the initial full build (the session's ldLib for the
// design's shared libraries).
func (s *Session) LoadDesign(src liveparser.Source) (*livecompiler.Result, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	sp := s.tracer.Start("load_design")
	defer sp.End()
	res, err := s.compiler.BuildSpan(src, sp)
	if err != nil {
		return nil, err
	}
	s.source = src
	s.objects = res.Objects
	s.topKey = res.TopKey
	s.version = "v0"
	s.versions = NewVersionGraph("v0")
	s.versionObjects["v0"] = res.Objects
	return res, nil
}

// RegisterTestbench adds a testbench to the object library (the tb0 rows
// of Table II).
func (s *Session) RegisterTestbench(handle string, f TestbenchFactory) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.tbFactory[handle] = f
}

// Library returns the Object Library Table (Table II).
func (s *Session) Library() []LibEntry {
	s.mu.Lock()
	defer s.mu.Unlock()
	var rows []LibEntry
	keys := make([]string, 0, len(s.objects))
	for k := range s.objects {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for i, k := range keys {
		obj := s.objects[k]
		typ := "Stage"
		if k == s.topKey {
			typ = "Pipe"
		}
		rows = append(rows, LibEntry{
			Handle:     fmt.Sprintf("stage%d", i),
			Type:       typ,
			CodePath:   obj.SrcPath,
			ObjectPath: k,
		})
	}
	tbs := make([]string, 0, len(s.tbFactory))
	for h := range s.tbFactory {
		tbs = append(tbs, h)
	}
	sort.Strings(tbs)
	for _, h := range tbs {
		rows = append(rows, LibEntry{Handle: h, Type: "Testbench", CodePath: "(go)", ObjectPath: h})
	}
	return rows
}

// InstPipe instantiates a pipe from the top-level object (Table I).
func (s *Session) InstPipe(name string) (*Pipe, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.objects == nil {
		return nil, fmt.Errorf("no design loaded")
	}
	if _, dup := s.pipes[name]; dup {
		return nil, fmt.Errorf("pipe %q already exists", name)
	}
	var opts []sim.Option
	if s.cfg.Output != nil {
		opts = append(opts, sim.WithOutput(s.cfg.Output))
	}
	opts = append(opts, sim.WithMetrics(s.metrics))
	sm, err := sim.New(s.resolverLocked(), s.topKey, opts...)
	if err != nil {
		return nil, err
	}
	p := &Pipe{
		Name:        name,
		TopKey:      s.topKey,
		Sim:         sm,
		Version:     s.version,
		Checkpoints: checkpoint.NewStore(),
		tbs:         make(map[string]Testbench),
	}
	p.Checkpoints.SetMetrics(s.metrics)
	s.pipes[name] = p
	s.pipeOrder = append(s.pipeOrder, name)
	return p, nil
}

// CopyPipe clones a pipe including its state (Table I copyPipe).
func (s *Session) CopyPipe(newName, oldName string) (*Pipe, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	old, ok := s.pipes[oldName]
	if !ok {
		return nil, fmt.Errorf("no pipe %q", oldName)
	}
	if _, dup := s.pipes[newName]; dup {
		return nil, fmt.Errorf("pipe %q already exists", newName)
	}
	var opts []sim.Option
	if s.cfg.Output != nil {
		opts = append(opts, sim.WithOutput(s.cfg.Output))
	}
	opts = append(opts, sim.WithMetrics(s.metrics))
	sm, err := sim.New(s.resolverForVersionLocked(old.Version), old.TopKey, opts...)
	if err != nil {
		return nil, err
	}
	if err := sm.Restore(old.Sim.Snapshot()); err != nil {
		return nil, err
	}
	p := &Pipe{
		Name:        newName,
		TopKey:      old.TopKey,
		Sim:         sm,
		Version:     old.Version,
		Checkpoints: checkpoint.NewStore(),
		History:     append([]RunOp(nil), old.History...),
		tbs:         make(map[string]Testbench),
	}
	p.Checkpoints.SetMetrics(s.metrics)
	for h, tb := range old.tbs {
		f, ok := s.tbFactory[h]
		if !ok {
			return nil, fmt.Errorf("testbench %q not registered", h)
		}
		nt := f()
		if err := nt.Restore(tb.Snapshot()); err != nil {
			return nil, err
		}
		p.tbs[h] = nt
	}
	s.pipes[newName] = p
	s.pipeOrder = append(s.pipeOrder, newName)
	return p, nil
}

// Pipe returns a pipe by name.
func (s *Session) Pipe(name string) (*Pipe, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	p, ok := s.pipes[name]
	return p, ok
}

// Pipes returns the Pipeline Table (Table III).
func (s *Session) Pipes() []PipeRow {
	s.mu.Lock()
	defer s.mu.Unlock()
	var rows []PipeRow
	for _, name := range s.pipeOrder {
		p := s.pipes[name]
		rows = append(rows, PipeRow{
			Name:    name,
			Handle:  p.TopKey,
			Pointer: fmt.Sprintf("%p", p.Sim),
		})
	}
	return rows
}

// Stages returns the Stage Table (Table IV) for one pipe.
func (s *Session) Stages(pipeName string) ([]StageRow, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	p, ok := s.pipes[pipeName]
	if !ok {
		return nil, fmt.Errorf("no pipe %q", pipeName)
	}
	var rows []StageRow
	for _, n := range p.Sim.Nodes() {
		rows = append(rows, StageRow{
			PipeName:  pipeName,
			StageName: n.Path,
			Handle:    n.Obj.Key,
			Pointer:   fmt.Sprintf("%p", n.Inst),
		})
	}
	return rows, nil
}

// Run executes a testbench on a pipe for the given number of cycles
// (Table I run), journaling the operation and taking checkpoints at the
// configured interval.
func (s *Session) Run(tbHandle, pipeName string, cycles int) error {
	// Serialize with background verification refinement.
	s.verifyWG.Wait()

	s.mu.Lock()
	p, ok := s.pipes[pipeName]
	if !ok {
		s.mu.Unlock()
		return fmt.Errorf("no pipe %q", pipeName)
	}
	f, ok := s.tbFactory[tbHandle]
	if !ok {
		s.mu.Unlock()
		return fmt.Errorf("no testbench %q", tbHandle)
	}
	tb, live := p.tbs[tbHandle]
	if !live {
		tb = f()
		p.tbs[tbHandle] = tb
	}
	// With the watchdog armed, snapshot the pipe before journaling the
	// op, so a deadline-cancelled run rolls back to exactly this point.
	tok := s.newRunToken()
	var snap *pipeSnapshot
	if tok != nil {
		var serr error
		if snap, serr = s.snapshotPipe(p); serr != nil {
			s.mu.Unlock()
			return serr
		}
	}
	start := p.Sim.Cycle()
	p.History = append(p.History, RunOp{TB: tbHandle, Cycles: cycles, StartCycle: start})
	opIdx := len(p.History) - 1
	s.mu.Unlock()

	err := s.runChunked(p, tb, cycles, tok)

	if errors.Is(err, ErrRunCancelled) {
		// Watchdog fired: the rollback below restores state, testbenches,
		// journal and checkpoints, so the truncation bookkeeping that
		// follows must not run — opIdx no longer indexes this op.
		return s.cancelRun(p, snap, err)
	}

	// The journal must record what actually happened, not what was asked:
	// on early stop ($finish, an error, a panic) the op is truncated to the
	// cycles really advanced, so a later replay of the history reproduces
	// this run exactly instead of over-running past the stop point.
	advanced := int(p.Sim.Cycle() - start)
	if advanced != cycles {
		s.mu.Lock()
		if advanced <= 0 {
			p.History = append(p.History[:opIdx], p.History[opIdx+1:]...)
		} else {
			p.History[opIdx].Cycles = advanced
		}
		s.mu.Unlock()
	}
	s.cRuns.Inc()
	s.cCyclesRun.Add(p.Sim.Cycle() - start)
	return err
}

// runChunked advances the testbench, pausing at checkpoint boundaries.
// The token (nil when no budget applies) is consulted at each boundary:
// these are the watchdog's cancellation points.
func (s *Session) runChunked(p *Pipe, tb Testbench, cycles int, tok *runToken) error {
	d := &Driver{s: p.Sim}
	every := s.cfg.CheckpointEvery
	if p.Checkpoints.Len() == 0 && every > 0 {
		s.takeCheckpoint(p)
	}
	remaining := cycles
	for remaining > 0 && !p.Sim.Finished() {
		if err := tok.check(p.Sim.Cycle()); err != nil {
			return err
		}
		if st := s.cfg.Faults.RunStall(p.Sim.Cycle()); st > 0 {
			// A wedged testbench for the watchdog tests: sleep, then give
			// the token a chance to notice the blown budget.
			time.Sleep(st)
			if err := tok.check(p.Sim.Cycle()); err != nil {
				return err
			}
		}
		chunk := remaining
		if every > 0 {
			untilNext := int(every - (p.Sim.Cycle() - p.lastCheckpoint))
			if untilNext <= 0 {
				untilNext = int(every)
			}
			if untilNext < chunk {
				chunk = untilNext
			}
		}
		if tok != nil && chunk > watchdogChunk {
			// Keep cancellation points flowing even with checkpoints off,
			// where a run would otherwise be one enormous chunk.
			chunk = watchdogChunk
		}
		before := p.Sim.Cycle()
		if err := s.safeRun(tb, d, chunk); err != nil {
			return err
		}
		advanced := int(p.Sim.Cycle() - before)
		if advanced <= 0 {
			return fmt.Errorf("testbench did not advance the simulation")
		}
		remaining -= advanced
		if every > 0 && p.Sim.Cycle()-p.lastCheckpoint >= every {
			s.takeCheckpoint(p)
		}
	}
	return nil
}

// takeCheckpoint captures pipe state plus testbench snapshots — the
// stop-the-world capture that is the whole checkpoint (Figure 2(a)).
func (s *Session) takeCheckpoint(p *Pipe) *checkpoint.Checkpoint {
	var t0 time.Time
	if s.metrics != nil {
		t0 = time.Now()
	}
	st := p.Sim.Snapshot()
	aux := make(map[string][]byte, len(p.tbs))
	for h, tb := range p.tbs {
		aux[h] = tb.Snapshot()
	}
	cp := p.Checkpoints.Add(st, p.Version, len(p.History))
	cp.Aux = aux
	p.lastCheckpoint = st.Cycle
	if s.metrics != nil {
		s.hCkptCapture.Observe(time.Since(t0).Seconds())
	}
	return cp
}

// Checkpoint forces a checkpoint now (Table I chkp without a path).
func (s *Session) Checkpoint(pipeName string) (*checkpoint.Checkpoint, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	p, ok := s.pipes[pipeName]
	if !ok {
		return nil, fmt.Errorf("no pipe %q", pipeName)
	}
	return s.takeCheckpoint(p), nil
}

// SaveCheckpoint writes the pipe's current state to a file (Table I chkp)
// in the versioned container format: design version, history position and
// testbench snapshots travel with the state, CRC-protected, written
// atomically (temp file + fsync + rename) with a one-deep .bak of any
// previous file — a crash at any point leaves a loadable checkpoint.
func (s *Session) SaveCheckpoint(pipeName, path string) error {
	s.mu.Lock()
	p, ok := s.pipes[pipeName]
	if !ok {
		s.mu.Unlock()
		return fmt.Errorf("no pipe %q", pipeName)
	}
	cp := s.takeCheckpoint(p)
	s.mu.Unlock()
	t0 := time.Now()
	data := checkpoint.EncodeFile(cp)
	data = s.cfg.Faults.Corrupt(data)
	var hook func(stage string) error
	if s.cfg.Faults != nil {
		hook = s.cfg.Faults.SaveStage
	}
	if err := frame.WriteFileAtomic(path, data, hook); err != nil {
		return err
	}
	s.metrics.Counter("checkpoint_saves").Inc()
	s.metrics.Counter("checkpoint_saved_bytes").Add(uint64(len(data)))
	s.metrics.Histogram("checkpoint_save_seconds", nil).Observe(time.Since(t0).Seconds())
	return nil
}

// LoadCheckpoint restores a pipe from a checkpoint file (Table I ldch):
// simulation state, testbench snapshots and history position all come
// from the file, and stale in-memory leftovers (checkpoints beyond the
// restored cycle, the lastCheckpoint watermark) are cleared so the next
// run continues from a consistent picture. A corrupt primary file falls
// back to its .bak sibling.
func (s *Session) LoadCheckpoint(pipeName, path string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	p, ok := s.pipes[pipeName]
	if !ok {
		return fmt.Errorf("no pipe %q", pipeName)
	}
	t0 := time.Now()
	fc, fromBackup, err := checkpoint.LoadFile(path)
	if err != nil {
		return err
	}

	// Prepare the testbench set before touching the pipe, so a bad
	// snapshot fails the load with the pipe untouched.
	var tbs map[string]Testbench
	if fc.Aux != nil {
		tbs = make(map[string]Testbench, len(fc.Aux))
		for h, data := range fc.Aux {
			f, ok := s.tbFactory[h]
			if !ok {
				return fmt.Errorf("checkpoint references unregistered testbench %q", h)
			}
			tb := f()
			if err := s.safeRestore(tb, data); err != nil {
				return fmt.Errorf("testbench %s: %w", h, err)
			}
			tbs[h] = tb
		}
	}

	if err := p.Sim.Restore(fc.State); err != nil {
		return err
	}
	if tbs != nil {
		p.tbs = tbs
	}
	if fc.Version != "" {
		if _, retained := s.versionObjects[fc.Version]; retained {
			p.Version = fc.Version
		} else {
			p.Version = s.version
		}
	}
	if fc.HistoryPos >= 0 && fc.HistoryPos <= len(p.History) {
		p.History = p.History[:fc.HistoryPos]
	}
	p.lastCheckpoint = fc.State.Cycle
	p.Checkpoints.DropAfterCycle(fc.State.Cycle)
	if fromBackup {
		s.metrics.Counter("checkpoint_backup_loads").Inc()
	}
	s.metrics.Counter("checkpoint_loads").Inc()
	s.metrics.Histogram("checkpoint_load_seconds", nil).Observe(time.Since(t0).Seconds())
	return nil
}

// SwapStage hot-swaps one stage object in one pipe (Table I swapStage).
// Normally ApplyChange drives this; the command is exposed for manual use.
func (s *Session) SwapStage(pipeName, key string, migrate sim.MigrateFunc) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	p, ok := s.pipes[pipeName]
	if !ok {
		return 0, fmt.Errorf("no pipe %q", pipeName)
	}
	return p.Sim.Reload(key, migrate)
}

// resolverLocked resolves against the live object table.
func (s *Session) resolverLocked() sim.Resolver {
	return sim.ResolverFunc(func(key string) (*vm.Object, error) {
		if o, ok := s.objects[key]; ok {
			return o, nil
		}
		return nil, fmt.Errorf("no object %q in library", key)
	})
}

// resolverForVersionLocked resolves against a retained version table.
func (s *Session) resolverForVersionLocked(version string) sim.Resolver {
	tbl := s.versionObjects[version]
	return sim.ResolverFunc(func(key string) (*vm.Object, error) {
		if o, ok := tbl[key]; ok {
			return o, nil
		}
		return nil, fmt.Errorf("no object %q in version %s", key, version)
	})
}

// Version returns the current design version id.
func (s *Session) Version() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.version
}

// WaitBackground blocks until background verification work completes.
func (s *Session) WaitBackground() { s.verifyWG.Wait() }

// PipeStatus returns a pipe's current cycle and journaled-op count under
// the session lock. The server's WAL watermark records carry both, so
// restart recovery can verify a restored checkpoint lines up with the
// journal.
func (s *Session) PipeStatus(name string) (cycle uint64, historyLen int, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	p, ok := s.pipes[name]
	if !ok {
		return 0, 0, false
	}
	return p.Sim.Cycle(), len(p.History), true
}

// MemUsage estimates the session's in-memory footprint for the
// governance plane: checkpoint history (state copies + Aux) and live
// pipe state (register slots + memories), in bytes. The server calls it
// on the session's worker goroutine after mutations, so the sums read
// settled state; the WAL tail is the server's to add (the session does
// not own its journal).
func (s *Session) MemUsage() (checkpoints, state uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, p := range s.pipes {
		if p.Checkpoints != nil {
			checkpoints += p.Checkpoints.ApproxBytes()
		}
		if p.Sim != nil {
			state += uint64(p.Sim.StateBytes())
		}
	}
	return checkpoints, state
}

// PipeNames returns the instantiated pipe names in creation order.
func (s *Session) PipeNames() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]string(nil), s.pipeOrder...)
}

// Quiesce blocks until all background work owned by the session — the
// verification replays — has completed. Servers call it before
// checkpointing a session for drain or eviction, so the saved state
// reflects every finished operation.
func (s *Session) Quiesce() { s.verifyWG.Wait() }

// TransformOps exposes the version graph (for inspection and the manual
// edits Section III-E allows).
func (s *Session) TransformOps() *VersionGraph {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.versions
}

// PruneVersions drops retained object tables for design versions that no
// live checkpoint references anymore (the current version is always
// kept). The transform history itself is kept — it is tiny and the user
// may want to inspect it — but the per-version object tables are the
// memory-heavy part. Returns the number of versions pruned. ApplyChange
// calls this after each background verification completes.
func (s *Session) PruneVersions() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	live := map[string]bool{s.version: true}
	for _, p := range s.pipes {
		live[p.Version] = true
		for _, cp := range p.Checkpoints.All() {
			live[cp.Version] = true
		}
	}
	pruned := 0
	for v := range s.versionObjects {
		if !live[v] {
			delete(s.versionObjects, v)
			pruned++
		}
	}
	return pruned
}

// RetainedVersions reports how many version object tables are held.
func (s *Session) RetainedVersions() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.versionObjects)
}

func applyOpsToRegs(oldObj *vm.Object, slots []uint64, ops []xform.Op) map[string]uint64 {
	vals := make(map[string]uint64, len(oldObj.Regs))
	for _, r := range oldObj.Regs {
		if int(r.Cur) < len(slots) {
			vals[r.Name] = slots[r.Cur]
		}
	}
	return xform.ApplyOps(vals, ops)
}
