// Package livesim is a from-scratch reproduction of "LiveSim: A Fast Hot
// Reload Simulator for HDLs" (ISPASS 2020): a live programming and
// simulation environment for hardware designs.
//
// A Session owns compiled design objects (one per module specialization,
// shared by all instances), instantiated pipelines, journaled run history
// and checkpoints. The headline operation is ApplyChange: hand the session
// the edited source and it incrementally recompiles only the modules whose
// behaviour changed, hot-reloads the new objects under every running
// pipeline while migrating architectural state (rename/create/delete rules
// included), restores a checkpoint near the point of interest, re-runs to
// where the simulation was, and verifies older checkpoints against the new
// code on background workers.
//
// Quick start:
//
//	s := livesim.NewSession("top", livesim.Config{CheckpointEvery: 10_000})
//	s.LoadDesign(livesim.Source{Files: map[string]string{"top.v": src}})
//	s.RegisterTestbench("tb0", livesim.NewStatelessTB(drive))
//	s.InstPipe("p0")
//	s.Run("tb0", "p0", 1_000_000)
//	report, _ := s.ApplyChange(editedSource) // the 2-second ERD loop
//	report.WaitVerification()
//
// See the examples/ directory for complete programs, and DESIGN.md for the
// mapping from the paper's sections to packages.
package livesim

import (
	"io"

	"livesim/internal/codegen"
	"livesim/internal/core"
	"livesim/internal/liveparser"
	"livesim/internal/obs"
	"livesim/internal/trace"
)

// Session is the LiveSim environment (Tables I-IV of the paper).
type Session = core.Session

// Config tunes a Session.
type Config = core.Config

// Pipe is one instantiated design with its history and checkpoints.
type Pipe = core.Pipe

// Driver is the interface testbenches use to drive a pipe.
type Driver = core.Driver

// TestbenchFactory creates fresh testbench instances.
type TestbenchFactory = core.TestbenchFactory

// Source is a snapshot of design source text.
type Source = liveparser.Source

// Codegen styles: StyleGrouped is LiveSim's if/else-grouped lowering,
// StyleMux the Verilator-like branch-free lowering.
const (
	StyleGrouped = codegen.StyleGrouped
	StyleMux     = codegen.StyleMux
)

// Registry is the unified metrics registry every session layer reports
// into (compiler cache hits, checkpoint latencies, VM op counters,
// verification outcomes). Pass one in Config.Metrics, read it back with
// Session.Metrics, export it with Snapshot or WriteText.
type Registry = obs.Registry

// NewRegistry creates an empty metrics registry for Config.Metrics.
func NewRegistry() *Registry { return obs.NewRegistry() }

// NewSession creates a session for the named top-level module.
func NewSession(top string, cfg Config) *Session { return core.NewSession(top, cfg) }

// NewStatelessTB wraps a per-cycle drive function as a testbench factory.
func NewStatelessTB(onCycle func(d *Driver, cycle uint64) error) TestbenchFactory {
	return core.NewStatelessTB(onCycle)
}

// NewCountingTB wraps a per-step drive function (with a persisted step
// counter) as a testbench factory.
func NewCountingTB(onStep func(d *Driver, step uint64) error) TestbenchFactory {
	return core.NewCountingTB(onStep)
}

// Tracer streams a pipe's waveforms in VCD format.
type Tracer = trace.Tracer

// TraceFilter selects signals to trace by (instance path, signal name).
type TraceFilter = trace.Filter

// TraceUnder traces every signal beneath an instance path prefix.
func TraceUnder(prefix string) TraceFilter { return trace.Under(prefix) }

// NewTracer attaches a VCD tracer to a pipe. Call Sample after each
// Tick/Run step and Close when done.
func NewTracer(w io.Writer, p *Pipe, filter TraceFilter) (*Tracer, error) {
	return trace.New(w, p.Sim, filter)
}
