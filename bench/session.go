package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"time"

	"livesim/internal/codegen"
	"livesim/internal/core"
	"livesim/internal/liveparser"
	"livesim/internal/pgas"
	"livesim/internal/sim"
)

const (
	editEvery    = 500  // CheckpointEvery = Lookback of the edit workloads
	editWarm     = 2000 // cycles simulated before the first edit
	editForward  = 1000 // cycles run forward between edits (edit_small)
	runEvery     = 1000 // CheckpointEvery of run_mesh
	runWarm      = 1024
	runOpCycles  = 256
	sessionPipe  = "p0"
	sessionBench = "tb0"
)

// newSession cold-compiles src into a fresh session with the seeded
// testbench registered and one pipe instantiated — what the shell does at
// start-up and what every round's set-up time pays for.
func newSession(in *inputs, src liveparser.Source, every uint64) (*core.Session, error) {
	s := core.NewSession(pgas.TopName(in.mesh), core.Config{
		Style: codegen.StyleGrouped, CheckpointEvery: every, Lookback: every,
	})
	if _, err := s.LoadDesign(src); err != nil {
		return nil, fmt.Errorf("load design: %w", err)
	}
	s.RegisterTestbench(sessionBench, pgas.NewTestbench(in.mesh, in.images))
	if _, err := s.InstPipe(sessionPipe); err != nil {
		return nil, fmt.Errorf("instpipe: %w", err)
	}
	return s, nil
}

// sessionStats reads the exact simulated statistics off a quiescent
// session. Taking the fingerprint checkpoint does not advance the pipe.
func sessionStats(s *core.Session, mesh int) (simStats, error) {
	p, ok := s.Pipe(sessionPipe)
	if !ok {
		return simStats{}, fmt.Errorf("no pipe %s", sessionPipe)
	}
	cp, err := s.Checkpoint(sessionPipe)
	if err != nil {
		return simStats{}, err
	}
	arch, err := archFingerprint(p.Sim, mesh)
	if err != nil {
		return simStats{}, err
	}
	return simStats{FinalCycle: p.Sim.Cycle(), VMOps: p.Sim.Stats.Ops, Fingerprint: fingerprint(cp.Bytes()), Arch: arch}, nil
}

// archLoc is one word of architectural state: a signal, or a memory word.
type archLoc struct {
	node int
	path string
	mem  bool
	addr uint64
}

func (l archLoc) String() string {
	if l.mem {
		return fmt.Sprintf("node %d %s[%#x]", l.node, l.path, l.addr)
	}
	return fmt.Sprintf("node %d %s", l.node, l.path)
}

// archLocs lists the architectural state of an n-node mesh: per node the
// fetch PC, the 31 writable registers and the whole local store.
func archLocs(mesh int) []archLoc {
	var locs []archLoc
	for i := 0; i < mesh; i++ {
		locs = append(locs, archLoc{node: i, path: pgas.NodePath(mesh, i) + ".u_core.u_if.pc_r"})
		for r := uint64(1); r < 32; r++ {
			locs = append(locs, archLoc{i, pgas.RegfilePath(mesh, i), true, r})
		}
		for w := uint64(0); w < localStoreWords; w++ {
			locs = append(locs, archLoc{i, pgas.MemPath(mesh, i), true, w})
		}
	}
	return locs
}

// stateReader is the read side both simulators share.
type stateReader interface {
	Peek(path string) (uint64, error)
	PeekMem(path string, addr uint64) (uint64, error)
}

func (l archLoc) read(s stateReader, path string) (uint64, error) {
	if l.mem {
		return s.PeekMem(path, l.addr)
	}
	return s.Peek(path)
}

// archFingerprint hashes the architectural state of every node.
func archFingerprint(s *sim.Sim, mesh int) (string, error) {
	h := sha256.New()
	var word [8]byte
	for _, l := range archLocs(mesh) {
		v, err := l.read(s, l.path)
		if err != nil {
			return "", err
		}
		binary.LittleEndian.PutUint64(word[:], v)
		h.Write(word[:])
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// coldFingerprint is the hot-reload oracle: a session that never saw an
// edit, cold-compiled from src and run to cycle, must hold exactly the
// state the edited-and-reverted session holds.
func coldFingerprint(in *inputs, src liveparser.Source, every uint64, cycle uint64) (string, error) {
	s, err := newSession(in, src, every)
	if err != nil {
		return "", err
	}
	if err := s.Run(sessionBench, sessionPipe, int(cycle)); err != nil {
		return "", err
	}
	st, err := sessionStats(s, in.mesh)
	if err != nil {
		return "", err
	}
	if st.FinalCycle != cycle {
		return "", fmt.Errorf("cold session stopped at cycle %d, want %d", st.FinalCycle, cycle)
	}
	return st.Fingerprint, nil
}

// editRound is the full live loop: for each catalogue change in seeded
// order, apply the edit, wait for the background verification, revert it,
// wait again. With forward set the session also runs forward between
// edits, so checkpoints accumulate, are verified against the new version
// and are garbage-collected, as in a real editing session.
func editRound(x *runCtx, passes int, forward bool) (*round, error) {
	r := &round{}
	t0 := time.Now()
	s, err := newSession(x.in, x.in.base, editEvery)
	if err != nil {
		return nil, err
	}
	if err := s.Run(sessionBench, sessionPipe, editWarm); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	p, _ := s.Pipe(sessionPipe)
	order := x.in.editOrder(passes)
	r.setup = time.Since(t0)
	r.wantCycle = editWarm

	apply := func(src liveparser.Source) {
		op := x.nextOp()
		r.attempted++
		target := p.Sim.Cycle()
		from := uint64(0)
		if cp := p.Checkpoints.Select(target, editEvery); cp != nil {
			from = cp.Cycle
		}
		var rep *core.ChangeReport
		sp := x.rec.begin(opApply, 0, op)
		d, err := timedOp(func() (err error) {
			rep, err = s.ApplyChange(src)
			return err
		})
		x.rec.end(sp)
		if err != nil || rep.NoChange {
			x.failf(r, "apply at cycle %d: %v (no_change=%v)", target, err, rep != nil && rep.NoChange)
			return
		}
		r.lat = append(r.lat, d)
		r.simCycles += target - from
		r.count("core.reexec_cycles", float64(target-from))
		cs := rep.CompileStats
		compile := cs.ParseTime + cs.ElabTime + cs.CompileTime
		x.rec.child("livecompiler.build", sp, 0, compile)
		x.rec.child("sim.reload", sp, compile, rep.SwapTime)
		x.rec.child("checkpoint.restore", sp, compile+rep.SwapTime, rep.ReloadTime)
		x.rec.child("core.reexec", sp, compile+rep.SwapTime+rep.ReloadTime, rep.ReExecTime)

		wsp := x.rec.begin("verify.wait", 0, op)
		_, werr := timedOp(func() error { rep.WaitVerification(); return nil })
		x.rec.end(wsp)
		if werr != nil {
			x.failf(r, "verification: %v", werr)
			return
		}
		for _, h := range rep.Verifications {
			if h.Err != nil {
				x.failf(r, "verification: %v", h.Err)
				continue
			}
			r.count("verify.segments", float64(len(h.Result.Segments)))
			if !h.Result.Consistent() {
				r.count("verify.divergent", 1)
			}
			if h.Refined {
				r.count("verify.refined", 1)
			}
		}
	}
	run := func() {
		sp := x.rec.begin("core.run_forward", 0, 0)
		_, err := timedOp(func() error { return s.Run(sessionBench, sessionPipe, editForward) })
		x.rec.end(sp)
		if err != nil {
			x.failf(r, "forward run: %v", err)
			return
		}
		r.simCycles += editForward
		r.wantCycle += editForward
	}

	sec := beginSection(false)
	for _, e := range order {
		sec.sample()
		apply(e.edited)
		if forward && e.preserving {
			run()
		}
		sec.sample()
		apply(x.in.base)
		if forward {
			run()
		}
		if r.failed > 0 {
			break // a failed edit leaves the session in an unknown version
		}
	}
	sec.end(r)
	return r, finishRound(r, s, x.in.mesh)
}

// finishRound reads the store sizes and the exact simulated statistics
// off a session whose timed section is over.
func finishRound(r *round, s *core.Session, mesh int) error {
	s.WaitBackground()
	p, _ := s.Pipe(sessionPipe)
	p.Checkpoints.Wait()
	r.count("checkpoint.store_len", float64(p.Checkpoints.Len()))
	r.count("checkpoint.store_bytes", float64(p.Checkpoints.ApproxBytes()))
	var err error
	r.sim, err = sessionStats(s, mesh)
	r.session = s
	return err
}

// runRound is forward simulation through the session: fixed-size Run
// calls with checkpoint capture on the path.
func runRound(x *runCtx, ops int) (*round, error) {
	r := &round{}
	t0 := time.Now()
	s, err := newSession(x.in, x.in.base, runEvery)
	if err != nil {
		return nil, err
	}
	if x.rec != nil {
		// Replaces the factory newSession registered; the pipe has not
		// instantiated its testbench yet.
		inner := pgas.NewTestbench(x.in.mesh, x.in.images)
		s.RegisterTestbench(sessionBench, func() core.Testbench { return &spanTB{inner(), x} })
	}
	if err := s.Run(sessionBench, sessionPipe, runWarm); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	r.setup = time.Since(t0)

	sec := beginSection(false)
	for i := 0; i < ops; i++ {
		sec.sample()
		op := x.nextOp()
		r.attempted++
		sp := x.rec.begin(opRun, 0, op)
		x.curSpan, x.curOp = sp, op
		d, err := timedOp(func() error { return s.Run(sessionBench, sessionPipe, runOpCycles) })
		x.rec.end(sp)
		if err != nil {
			x.failf(r, "run: %v", err)
			break
		}
		r.lat = append(r.lat, d)
		r.simCycles += runOpCycles
	}
	r.wantCycle = runWarm + uint64(len(r.lat))*runOpCycles
	sec.end(r)
	return r, finishRound(r, s, x.in.mesh)
}

// spanTB wraps the session's testbench in the traced run, so the part of
// a Run op spent inside the testbench — which is the kernel ticking —
// shows as a child span and the rest as the session layer's own time.
type spanTB struct {
	core.Testbench
	x *runCtx
}

func (t *spanTB) Run(d *core.Driver, cycles int) error {
	sp := t.x.rec.begin("sim.tick", t.x.curSpan, t.x.curOp)
	defer t.x.rec.end(sp)
	return t.Testbench.Run(d, cycles)
}
