package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"livesim/internal/command"
	"livesim/internal/core"
)

// workload is one named, permanent benchmark workload: a fixed-size round
// (fixed op count, never a time budget, so simulated statistics repeat
// exactly) that the harness repeats with fresh sessions and servers for
// as long as the run lasts.
type workload struct {
	name string
	mesh int // PGAS node count of the design under test
	// op names the span that brackets the workload's operation, which is
	// also its kind: an edit, a forward run or a wire round trip.
	op string
	// round runs one round: set-up, the timed section, state readout.
	round func(x *runCtx) (*round, error)
	// oracle checks the round's final state against an execution that
	// shares no code path with the one measured; it runs once per run,
	// every later round must then match the first exactly.
	oracle func(x *runCtx, r *round) error
}

// Op counts per round, sized so a round's timed section lasts about a
// second and a half on the reference host: long enough that per-round
// rates are steady and set-up is a small share of the run, short enough
// that a 20 s run holds eight or more rounds to take medians over.
const (
	editSmallPasses = 8     // x 5 changes x apply+revert = 80 ops of ~7 ms, plus forward runs
	editMeshPasses  = 2     // 20 ops of ~90 ms
	runMeshOps      = 40    // x 256 cycles, ~44 ms each
	serveDirectOps  = 20000 // per client, ~26k req/s in total
	serveGatewayOps = 8000  // per client, ~11k req/s in total
)

// The operation spans of the traced run.
const (
	opApply = "core.apply" // one Session.ApplyChange
	opRun   = "core.run"   // one Session.Run of runOpCycles
	opDo    = "client.do"  // one wire round trip
)

var workloads = []workload{
	{
		name: "edit_small", mesh: 1, op: opApply,
		round:  func(x *runCtx) (*round, error) { return editRound(x, x.scaled(editSmallPasses), true) },
		oracle: editOracle,
	},
	{
		name: "edit_mesh", mesh: 16, op: opApply,
		round:  func(x *runCtx) (*round, error) { return editRound(x, x.scaled(editMeshPasses), false) },
		oracle: editOracle,
	},
	{
		name: "run_mesh", mesh: 16, op: opRun,
		round:  func(x *runCtx) (*round, error) { return runRound(x, x.scaled(runMeshOps)) },
		oracle: runOracle,
	},
	{
		name: "serve_direct", mesh: 1, op: opDo,
		round:  func(x *runCtx) (*round, error) { return serveRound(x, x.scaled(serveDirectOps), false) },
		oracle: serveOracle,
	},
	{
		name: "serve_gateway", mesh: 1, op: opDo,
		round:  func(x *runCtx) (*round, error) { return serveRound(x, x.scaled(serveGatewayOps), true) },
		oracle: serveOracle,
	},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// runCtx is what a round gets from the harness.
type runCtx struct {
	in    *inputs
	rec   *recorder // nil unless this is the traced run
	scale float64   // op-count multiplier (tests use a small one)
	root  string    // scratch root of this process, removed on exit
	// outDir receives the traced run's span file.
	outDir string
	dir    string // this round's scratch directory, short and relative
	ops    int    // last op id handed out

	roundNo int       // rounds started so far
	ref     *simStats // the first checked round's statistics
	// curSpan and curOp are the span and op a traced Run is in, for the
	// testbench wrapper that records the kernel's share of it.
	curSpan, curOp int

	failures []string // first few failure messages, for the report
}

func (x *runCtx) scaled(n int) int {
	return max(1, int(math.Round(float64(n)*x.scale)))
}

func (x *runCtx) nextOp() int { x.ops++; return x.ops }

// reserveOps hands out n consecutive op ids and returns the first.
func (x *runCtx) reserveOps(n int) int {
	first := x.ops + 1
	x.ops += n
	return first
}

// failf records one failed operation (r may be nil when the caller has
// already counted it).
func (x *runCtx) failf(r *round, format string, args ...any) {
	if r != nil {
		r.failed++
	}
	if len(x.failures) < 8 {
		x.failures = append(x.failures, fmt.Sprintf(format, args...))
	}
}

// newRoundDir makes the next round's scratch directory.
func (x *runCtx) newRoundDir(i int) error {
	x.dir = filepath.Join(x.root, fmt.Sprintf("r%d", i))
	return os.MkdirAll(x.dir, 0o755)
}

// runRounds repeats w's round until the budget is spent, at least
// minRounds times, checking every round. A non-nil error means an output
// was wrong or the harness itself broke; failed operations are not
// errors, they are counted in the rounds.
func runRounds(x *runCtx, w *workload, budget time.Duration, minRounds int) ([]*round, error) {
	deadline := time.Now().Add(budget)
	var rounds []*round
	var longest time.Duration
	for i := 0; i < minRounds || time.Now().Add(longest).Before(deadline); i++ {
		t0 := time.Now()
		r, err := oneRound(x, w)
		if err != nil {
			return nil, err
		}
		rounds = append(rounds, r)
		longest = max(longest, time.Since(t0))
	}
	return rounds, nil
}

// oneRound runs one round of w in a fresh scratch directory and checks
// its final state: the first round of a run against the workload's
// oracle, every later one for exact equality with the first.
func oneRound(x *runCtx, w *workload) (*round, error) {
	x.roundNo++
	if err := x.newRoundDir(x.roundNo); err != nil {
		return nil, err
	}
	defer os.RemoveAll(x.dir)
	runtime.GC()
	r, err := w.round(x)
	if err != nil {
		return nil, fmt.Errorf("%s round %d: %w", w.name, x.roundNo, err)
	}
	if r.failed == 0 {
		if r.sim.FinalCycle != r.wantCycle {
			return nil, fmt.Errorf("%s round %d: oracle: session ended at cycle %d, its operations add up to %d",
				w.name, x.roundNo, r.sim.FinalCycle, r.wantCycle)
		}
		if x.ref == nil {
			if err := w.oracle(x, r); err != nil {
				return nil, fmt.Errorf("%s: %w", w.name, err)
			}
			x.ref = &r.sim
		} else if r.sim != *x.ref {
			return nil, fmt.Errorf("%s round %d: simulated statistics do not repeat: %+v, the first round had %+v",
				w.name, x.roundNo, r.sim, *x.ref)
		}
	}
	r.session = nil
	return r, nil
}

// editOracle: hot reload followed by checkpoint replay must equal a cold
// compile of the final source run to the same cycle — the paper's
// consistency contract.
func editOracle(x *runCtx, r *round) error {
	want, err := coldFingerprint(x.in, x.in.base, editEvery, r.sim.FinalCycle)
	if err != nil {
		return fmt.Errorf("oracle: %w", err)
	}
	if r.sim.Fingerprint != want {
		return fmt.Errorf("oracle: state after the edit loop at cycle %d differs from a cold compile run to the same cycle (%s vs %s)",
			r.sim.FinalCycle, r.sim.Fingerprint[:12], want[:12])
	}
	return nil
}

// serveOracle: a session driven over the wire must hold the state of an
// in-process session advanced by the same number of cycles.
func serveOracle(x *runCtx, r *round) error {
	s, err := command.BootPGAS(x.in.mesh, core.Config{CheckpointEvery: 10_000})
	if err != nil {
		return fmt.Errorf("oracle: %w", err)
	}
	if _, err := s.InstPipe(sessionPipe); err != nil {
		return fmt.Errorf("oracle: %w", err)
	}
	if err := s.Run(sessionBench, sessionPipe, int(r.sim.FinalCycle)); err != nil {
		return fmt.Errorf("oracle: %w", err)
	}
	st, err := sessionStats(s, x.in.mesh)
	if err != nil {
		return fmt.Errorf("oracle: %w", err)
	}
	if st.FinalCycle != r.sim.FinalCycle || st.Fingerprint != r.sim.Fingerprint {
		return fmt.Errorf("oracle: wire-driven session (cycle %d, %s) differs from an in-process session (cycle %d, %s)",
			r.sim.FinalCycle, r.sim.Fingerprint[:12], st.FinalCycle, st.Fingerprint[:12])
	}
	return nil
}
