// Command lsbench regenerates the tables and figures of the LiveSim paper
// (ISPASS 2020) on this reproduction. Each experiment prints the same rows
// or series the paper reports; EXPERIMENTS.md records paper-vs-measured.
//
// Usage:
//
//	lsbench -all                 # everything at the default sizes
//	lsbench -fig7 -sizes 1,4,16  # one experiment, chosen mesh sizes
//	lsbench -table7 -sizes 1,4,16,64
//
// Mesh sizes are node counts: 1, 4, 16, 64, 256 correspond to the paper's
// 1x1 ... 16x16 PGAS. Large sizes are expensive; the default is 1,4,16.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"livesim/internal/checkpoint"
	"livesim/internal/codegen"
	"livesim/internal/command"
	"livesim/internal/core"
	"livesim/internal/faultinject"
	"livesim/internal/flatsim"
	"livesim/internal/hdl/ast"
	"livesim/internal/hdl/elab"
	"livesim/internal/hdl/parser"
	"livesim/internal/hostmodel"
	"livesim/internal/livecompiler"
	"livesim/internal/obs"
	"livesim/internal/pgas"
	"livesim/internal/sim"
	"livesim/internal/verify"
	"livesim/internal/vm"
	"livesim/internal/wal"
)

var (
	flagSizes   = flag.String("sizes", "1,4,16", "comma-separated mesh node counts (1,4,16,64,256)")
	flagAll     = flag.Bool("all", false, "run every experiment")
	flagFig7    = flag.Bool("fig7", false, "Figure 7: compile+simulate time vs cycles")
	flagFig8    = flag.Bool("fig8", false, "Figure 8: hot reload ERD latency vs mesh size")
	flagTable7  = flag.Bool("table7", false, "Table VII: KHz/IPC/MPKI for both simulators")
	flagTable8  = flag.Bool("table8", false, "Table VIII: compilation times")
	flagCkpt    = flag.Bool("ckpt", false, "Section V-B: checkpointing overhead")
	flagFig6    = flag.Bool("fig6", false, "Figure 6: parallel consistency verification")
	flagAblate  = flag.Bool("ablation", false, "codegen-style ablation (grouped vs mux)")
	flagRollbck = flag.Bool("rollback", false, "robustness: rollback latency after an injected hot-reload failure")
	flagRecover = flag.Bool("recovery", false, "durability: WAL journaling overhead and crash-recovery replay latency")
	flagAct     = flag.Bool("activity", false, "activity profiler: quiescent-eval fraction per mesh and profiler overhead")
	flagBudget  = flag.Duration("budget", 3*time.Second, "time budget per speed measurement")
	flagProfCyc = flag.Int("profcycles", 300, "profiled cycles for Table VII")
	flagMetrics = flag.Bool("metrics", false, "attach a metrics registry to session-based experiments and embed its JSON snapshot in the output")
)

// benchRegistry returns a registry for one experiment run, or nil when
// -metrics is off (nil disables collection at zero cost).
func benchRegistry() *obs.Registry {
	if !*flagMetrics {
		return nil
	}
	return obs.NewRegistry()
}

// printSnapshot embeds one registry snapshot in the bench output as a
// single labeled JSON line, so runs can be diffed across PRs.
func printSnapshot(label string, reg *obs.Registry) {
	if reg == nil {
		return
	}
	fmt.Printf("metrics[%s]: %s\n", label, reg.Snapshot().JSON())
}

func main() {
	flag.Parse()
	sizes := parseSizes(*flagSizes)
	any := *flagFig7 || *flagFig8 || *flagTable7 || *flagTable8 || *flagCkpt || *flagFig6 || *flagAblate || *flagRollbck || *flagRecover || *flagAct
	if *flagAll || !any {
		*flagFig7, *flagFig8, *flagTable7, *flagTable8 = true, true, true, true
		*flagCkpt, *flagFig6, *flagAblate, *flagRollbck, *flagRecover, *flagAct = true, true, true, true, true, true
	}
	fmt.Printf("lsbench: sizes=%v budget=%v GOMAXPROCS=%d\n\n", sizes, *flagBudget, runtime.GOMAXPROCS(0))

	if *flagTable8 {
		table8(sizes)
	}
	if *flagFig7 {
		fig7(sizes)
	}
	if *flagTable7 {
		table7(sizes)
	}
	if *flagFig8 {
		fig8(sizes)
	}
	if *flagCkpt {
		ckptOverhead(sizes)
	}
	if *flagFig6 {
		fig6()
	}
	if *flagAblate {
		ablation()
	}
	if *flagRollbck {
		rollbackBench(sizes)
	}
	if *flagRecover {
		recoveryBench(sizes)
	}
	if *flagAct {
		activityBench(sizes)
	}
}

func parseSizes(s string) []int {
	var out []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n < 1 {
			fmt.Fprintf(os.Stderr, "bad size %q\n", part)
			os.Exit(2)
		}
		out = append(out, n)
	}
	return out
}

func meshLabel(n int) string {
	for s := 1; s <= 16; s++ {
		if s*s == n {
			return fmt.Sprintf("%dx%d", s, s)
		}
	}
	return fmt.Sprintf("%dn", n)
}

// ---------------------------------------------------------------- builds

func elaborate(n int) (*elab.Design, error) {
	srcs := map[string]*ast.Module{}
	for name, text := range pgas.DesignSource(n) {
		sf, err := parser.ParseFile(name, text)
		if err != nil {
			return nil, err
		}
		for _, m := range sf.Modules {
			srcs[m.Name] = m
		}
	}
	return elab.Elaborate(srcs, pgas.TopName(n), nil)
}

// buildLive compiles the hierarchical (LiveSim) simulator and reports the
// full-compile wall time.
func buildLive(n int) (*sim.Sim, time.Duration, error) {
	start := time.Now()
	c := livecompiler.New(pgas.TopName(n), codegen.StyleGrouped, nil)
	res, err := c.Build(pgas.Source(n))
	if err != nil {
		return nil, 0, err
	}
	compile := time.Since(start)
	s, err := sim.New(sim.ResolverFunc(c.Resolver()), res.TopKey)
	if err != nil {
		return nil, 0, err
	}
	return s, compile, nil
}

// buildFlat compiles the flattened (Verilator-style) simulator.
func buildFlat(n int) (*flatsim.Sim, time.Duration, error) {
	start := time.Now()
	d, err := elaborate(n)
	if err != nil {
		return nil, 0, err
	}
	obj, err := flatsim.Compile(d, codegen.StyleMux)
	if err != nil {
		return nil, 0, err
	}
	compile := time.Since(start)
	return flatsim.NewSim(obj), compile, nil
}

func loadLive(s *sim.Sim, n int) error {
	images, err := pgas.ComputeImages(n, 1<<30)
	if err != nil {
		return err
	}
	for i := 0; i < n; i++ {
		if err := pgas.LoadImage(s, n, i, images[i]); err != nil {
			return err
		}
	}
	return nil
}

func loadFlat(s *flatsim.Sim, n int) error {
	images, err := pgas.ComputeImages(n, 1<<30)
	if err != nil {
		return err
	}
	for i := 0; i < n; i++ {
		path := fmt.Sprintf("n%d.u_mem.mem", i)
		for w, v := range images[i] {
			if err := s.PokeMem(path, uint64(w), v); err != nil {
				return err
			}
		}
	}
	return nil
}

// measureKHz ticks a simulator until the budget elapses.
func measureKHz(tick func(int), cycles func() uint64) float64 {
	start := time.Now()
	chunk := 64
	for time.Since(start) < *flagBudget {
		tick(chunk)
		if chunk < 4096 {
			chunk *= 2
		}
	}
	el := time.Since(start).Seconds()
	return float64(cycles()) / el / 1000.0
}

// ---------------------------------------------------------------- Table VIII

func table8(sizes []int) {
	fmt.Println("== Table VIII: compilation time (seconds) ==")
	fmt.Printf("%-8s %14s %14s %14s\n", "PGAS", "LiveSim reload", "LiveSim full", "Flat (Verilator-like)")
	for _, n := range sizes {
		// Full LiveSim build.
		c := livecompiler.New(pgas.TopName(n), codegen.StyleGrouped, nil)
		t0 := time.Now()
		if _, err := c.Build(pgas.Source(n)); err != nil {
			fatal(err)
		}
		full := time.Since(t0)

		// Hot reload: recompile after a one-stage edit (parse + compile
		// only; swap/reload latency is Figure 8's subject).
		edited, err := pgas.Changes[0].Apply(pgas.Source(n))
		if err != nil {
			fatal(err)
		}
		t1 := time.Now()
		if _, err := c.Build(edited); err != nil {
			fatal(err)
		}
		reload := time.Since(t1)

		// Flat build.
		t2 := time.Now()
		d, err := elaborate(n)
		if err != nil {
			fatal(err)
		}
		if _, err := flatsim.Compile(d, codegen.StyleMux); err != nil {
			fatal(err)
		}
		flat := time.Since(t2)

		fmt.Printf("%-8s %14.3f %14.3f %14.3f\n",
			meshLabel(n), reload.Seconds(), full.Seconds(), flat.Seconds())
	}
	fmt.Println()
}

// ---------------------------------------------------------------- Figure 7

func fig7(sizes []int) {
	fmt.Println("== Figure 7: compile + simulate time to reach N cycles ==")
	fmt.Println("   (series: flat = Verilator-like full build+run; live = LiveSim full")
	fmt.Println("    build+run; checkpoint = LiveSim hot reload + restore near target)")
	points := []uint64{100_000, 1_000_000, 10_000_000}

	for _, n := range sizes {
		ls, liveCompile, err := buildLive(n)
		if err != nil {
			fatal(err)
		}
		if err := loadLive(ls, n); err != nil {
			fatal(err)
		}
		liveKHz := measureKHz(func(c int) { must(ls.Tick(c)) }, ls.Cycle)

		fs, flatCompile, err := buildFlat(n)
		if err != nil {
			fatal(err)
		}
		if err := loadFlat(fs, n); err != nil {
			fatal(err)
		}
		flatKHz := measureKHz(fs.Tick, fs.Cycle)

		// Checkpoint mode: the ERD latency measured in fig8 terms —
		// recompile one stage + swap + restore + re-run lookback cycles.
		erd := erdLatency(n, 2000, 500)

		fmt.Printf("\n-- PGAS %s: compile live=%.2fs flat=%.2fs; speed live=%.1f KHz flat=%.1f KHz --\n",
			meshLabel(n), liveCompile.Seconds(), flatCompile.Seconds(), liveKHz, flatKHz)
		fmt.Printf("%-14s %12s %12s %16s\n", "target cycles", "flat (s)", "live (s)", "checkpoint (s)")
		for _, pt := range points {
			flatT := flatCompile.Seconds() + float64(pt)/(flatKHz*1000)
			liveT := liveCompile.Seconds() + float64(pt)/(liveKHz*1000)
			fmt.Printf("%-14d %12.2f %12.2f %16.3f\n", pt, flatT, liveT, erd.Seconds())
		}
	}
	fmt.Println()
}

// erdLatency measures one full live loop on a warmed-up session.
func erdLatency(n, warm int, every uint64) time.Duration {
	s, err := command.BootPGAS(n, core.Config{
		Style: codegen.StyleGrouped, CheckpointEvery: every, Lookback: every,
	})
	if err != nil {
		fatal(err)
	}
	if _, err := s.InstPipe("p0"); err != nil {
		fatal(err)
	}
	if err := s.Run("tb0", "p0", warm); err != nil {
		fatal(err)
	}
	edited, err := pgas.Changes[0].Apply(pgas.Source(n))
	if err != nil {
		fatal(err)
	}
	rep, err := s.ApplyChange(edited)
	if err != nil {
		fatal(err)
	}
	rep.WaitVerification()
	return rep.Total
}

// ---------------------------------------------------------------- Table VII

func table7(sizes []int) {
	fmt.Println("== Table VII: host counters ==")
	fmt.Println("   KHz(vm) is the measured bytecode-interpreter speed; KHz(model) is")
	fmt.Println("   what a native build would run at on the modeled host (4 GHz x IPC /")
	fmt.Println("   instructions-per-cycle) — the paper's comparison lives in the model.")
	fmt.Printf("%-8s %-9s %10s %11s %8s %10s %10s %10s %12s\n",
		"PGAS", "simulator", "KHz(vm)", "KHz(model)", "IPC", "I$ MPKI", "D$ MPKI", "BR MPKI", "code bytes")
	const hostGHz = 4.0
	for _, n := range sizes {
		// LiveSim.
		ls, _, err := buildLive(n)
		if err != nil {
			fatal(err)
		}
		if err := loadLive(ls, n); err != nil {
			fatal(err)
		}
		liveKHz := measureKHz(func(c int) { must(ls.Tick(c)) }, ls.Cycle)
		host := hostmodel.NewHost()
		must(ls.TickProfiled(*flagProfCyc, host))
		lm := host.Metrics()
		liveIPC := float64(lm.Instrs) / float64(*flagProfCyc) // instrs per simulated cycle
		liveModel := hostGHz * 1e9 * lm.IPC / liveIPC / 1000
		liveCode := 0
		seen := map[string]bool{}
		for _, nd := range ls.Nodes() {
			if !seen[nd.Obj.Key] {
				seen[nd.Obj.Key] = true
				liveCode += nd.Obj.CodeBytes()
			}
		}
		fmt.Printf("%-8s %-9s %10.1f %11.1f %8.2f %10.2f %10.2f %10.2f %12d\n",
			meshLabel(n), "LiveSim", liveKHz, liveModel, lm.IPC, lm.IMPKI, lm.DMPKI, lm.BRMPKI, liveCode)

		// Flat.
		fs, _, err := buildFlat(n)
		if err != nil {
			fatal(err)
		}
		if err := loadFlat(fs, n); err != nil {
			fatal(err)
		}
		flatKHz := measureKHz(fs.Tick, fs.Cycle)
		host2 := hostmodel.NewHost()
		fs.TickProfiled(*flagProfCyc, host2)
		fm := host2.Metrics()
		flatIPC := float64(fm.Instrs) / float64(*flagProfCyc)
		flatModel := hostGHz * 1e9 * fm.IPC / flatIPC / 1000
		fmt.Printf("%-8s %-9s %10.1f %11.1f %8.2f %10.2f %10.2f %10.2f %12d\n",
			meshLabel(n), "Flat", flatKHz, flatModel, fm.IPC, fm.IMPKI, fm.DMPKI, fm.BRMPKI, fs.Obj.CodeBytes())
	}
	fmt.Println()
}

// ---------------------------------------------------------------- Figure 8

func fig8(sizes []int) {
	fmt.Println("== Figure 8: hot reload + update latency per mesh size ==")
	fmt.Printf("%-8s %-22s %10s %10s %10s %10s %12s %8s\n",
		"PGAS", "change", "parse+comp", "swap", "reload", "re-exec", "total (ms)", "swaps")
	for _, n := range sizes {
		reg := benchRegistry()
		s, err := command.BootPGAS(n, core.Config{
			Style: codegen.StyleGrouped, CheckpointEvery: 500, Lookback: 500,
			Metrics: reg,
		})
		if err != nil {
			fatal(err)
		}
		p, err := s.InstPipe("p0")
		if err != nil {
			fatal(err)
		}
		if err := s.Run("tb0", "p0", 2000); err != nil {
			fatal(err)
		}

		src := pgas.Source(n)
		for _, ch := range pgas.Changes {
			if !ch.Behavioral {
				continue
			}
			edited, err := ch.Apply(src)
			if err != nil {
				fatal(err)
			}
			rep, err := s.ApplyChange(edited)
			if err != nil {
				fatal(err)
			}
			rep.WaitVerification()
			nodes := 0
			for _, st := range mustStages(s, "p0") {
				for _, k := range rep.Swapped {
					if st.Handle == k {
						nodes++
					}
				}
			}
			fmt.Printf("%-8s %-22s %10.1f %10.1f %10.1f %10.1f %12.1f %8d\n",
				meshLabel(n), ch.Name,
				ms(rep.CompileStats.ParseTime+rep.CompileStats.ElabTime+rep.CompileStats.CompileTime),
				ms(rep.SwapTime), ms(rep.ReloadTime), ms(rep.ReExecTime), ms(rep.Total), nodes)
			// Revert for the next change.
			reverted, err := ch.Revert(edited)
			if err != nil {
				fatal(err)
			}
			if rep2, err := s.ApplyChange(reverted); err != nil {
				fatal(err)
			} else {
				rep2.WaitVerification()
			}
		}
		_ = p
		printSnapshot("fig8 "+meshLabel(n), reg)
	}
	fmt.Println()
}

func mustStages(s *core.Session, pipe string) []core.StageRow {
	rows, err := s.Stages(pipe)
	if err != nil {
		fatal(err)
	}
	return rows
}

// ---------------------------------------------------------------- checkpoint overhead

func ckptOverhead(sizes []int) {
	fmt.Println("== Section V-B: checkpointing overhead ==")
	fmt.Printf("%-8s %14s %14s %10s %12s\n", "PGAS", "KHz (off)", "KHz (on)", "overhead", "ckpt bytes")
	for _, n := range sizes {
		run := func(every uint64, reg *obs.Registry) (float64, int) {
			s, err := command.BootPGAS(n, core.Config{
				Style: codegen.StyleGrouped, CheckpointEvery: every,
				Metrics: reg,
			})
			if err != nil {
				fatal(err)
			}
			p, err := s.InstPipe("p0")
			if err != nil {
				fatal(err)
			}
			// Warm up caches and the runtime before timing.
			if err := s.Run("tb0", "p0", 1024); err != nil {
				fatal(err)
			}
			start := time.Now()
			cycles := 0
			for time.Since(start) < *flagBudget {
				if err := s.Run("tb0", "p0", 256); err != nil {
					fatal(err)
				}
				cycles += 256
			}
			khz := float64(cycles) / time.Since(start).Seconds() / 1000
			bytes := 0
			if cps := p.Checkpoints.All(); len(cps) > 0 {
				bytes = cps[len(cps)-1].State.Bytes()
			}
			return khz, bytes
		}
		off, _ := run(0, nil)
		reg := benchRegistry()
		on, bytes := run(1000, reg)
		fmt.Printf("%-8s %14.1f %14.1f %9.1f%% %12d\n",
			meshLabel(n), off, on, 100*(off-on)/off, bytes)
		printSnapshot("ckpt "+meshLabel(n), reg)
	}
	fmt.Println()
}

// ---------------------------------------------------------------- Figure 6

func fig6() {
	fmt.Println("== Figure 6: parallel checkpoint consistency verification ==")
	// Build a synthetic but real workload: single-node mesh with 32
	// checkpoints, verified after a semantics-preserving recompile.
	const n, every, total = 1, 250, 8000
	s, err := command.BootPGAS(n, core.Config{
		Style: codegen.StyleGrouped, CheckpointEvery: every, Lookback: every,
	})
	if err != nil {
		fatal(err)
	}
	p, err := s.InstPipe("p0")
	if err != nil {
		fatal(err)
	}
	if err := s.Run("tb0", "p0", total); err != nil {
		fatal(err)
	}
	cps := p.Checkpoints.Before(p.Sim.Cycle())
	// Skip the cycle-0 checkpoint: it predates program load, and this
	// harness replays raw ticks (the session's own verifier replays the
	// journaled testbench instead).
	if len(cps) > 0 && cps[0].Cycle == 0 {
		cps = cps[1:]
	}
	fmt.Printf("checkpoints to verify: %d (every %d cycles over %d)\n", len(cps), every, total)

	// Replay function: re-simulate segments on private simulations.
	objs, top, err := pgas.Build(n, codegen.StyleGrouped)
	if err != nil {
		fatal(err)
	}
	replay := func(from *checkpoint.Checkpoint, to uint64) (*sim.State, error) {
		ps, err := sim.New(sim.ResolverFunc(func(k string) (*vm.Object, error) {
			if o, ok := objs[k]; ok {
				return o, nil
			}
			return nil, fmt.Errorf("no object %q", k)
		}), top)
		if err != nil {
			return nil, err
		}
		if err := ps.Restore(from.State); err != nil {
			return nil, err
		}
		if err := ps.Tick(int(to - from.Cycle)); err != nil {
			return nil, err
		}
		if err := ps.Settle(); err != nil {
			return nil, err
		}
		return ps.Snapshot(), nil
	}

	compare := func(replayed *sim.State, recorded *checkpoint.Checkpoint) (bool, string) {
		return sim.StateEqual(replayed, recorded.State)
	}

	// verify.Run replays as many segments at once as GOMAXPROCS allows.
	fmt.Printf("%-10s %12s %10s\n", "workers", "elapsed", "speedup")
	var base time.Duration
	for _, w := range []int{1, 2, 4, 8} {
		prev := runtime.GOMAXPROCS(w)
		res, err := verify.Run(cps, replay, compare)
		runtime.GOMAXPROCS(prev)
		if err != nil {
			fatal(err)
		}
		if !res.Consistent() {
			fmt.Printf("  unexpected divergence at segment %d: %s\n",
				res.FirstDivergence, res.Segments[res.FirstDivergence].Detail)
		}
		if w == 1 {
			base = res.Elapsed
		}
		fmt.Printf("%-10d %12v %9.2fx\n", w, res.Elapsed.Round(time.Millisecond),
			base.Seconds()/res.Elapsed.Seconds())
	}
	fmt.Println()
}

// ---------------------------------------------------------------- ablation

func ablation() {
	fmt.Println("== Ablation: grouped (if/else) vs mux codegen on PGAS 2x2 ==")
	const n = 4
	fmt.Printf("%-10s %10s %8s %10s %10s %10s %12s\n",
		"style", "KHz", "IPC", "I$ MPKI", "D$ MPKI", "BR MPKI", "code bytes")
	for _, style := range []codegen.Style{codegen.StyleGrouped, codegen.StyleMux} {
		c := livecompiler.New(pgas.TopName(n), style, nil)
		res, err := c.Build(pgas.Source(n))
		if err != nil {
			fatal(err)
		}
		s, err := sim.New(sim.ResolverFunc(c.Resolver()), res.TopKey)
		if err != nil {
			fatal(err)
		}
		if err := loadLive(s, n); err != nil {
			fatal(err)
		}
		khz := measureKHz(func(cc int) { must(s.Tick(cc)) }, s.Cycle)
		host := hostmodel.NewHost()
		must(s.TickProfiled(*flagProfCyc, host))
		m := host.Metrics()
		code := 0
		seen := map[string]bool{}
		for _, nd := range s.Nodes() {
			if !seen[nd.Obj.Key] {
				seen[nd.Obj.Key] = true
				code += nd.Obj.CodeBytes()
			}
		}
		fmt.Printf("%-10s %10.1f %8.2f %10.2f %10.2f %10.2f %12d\n",
			style, khz, m.IPC, m.IMPKI, m.DMPKI, m.BRMPKI, code)
	}
	fmt.Println()
}

// ---------------------------------------------------------------- rollback

// rollbackBench measures the cost of the transactional live loop's failure
// path: a hot reload is made to fail mid-commit by a deterministic fault
// plan, and the session rolls every pipe back to the pre-change state. The
// rollback column is the wall time of the failed ApplyChange (prepare +
// partial commit + full restore); the apply column is the same change
// succeeding, for scale.
func rollbackBench(sizes []int) {
	fmt.Println("== Robustness: rollback latency after an injected hot-reload failure ==")
	fmt.Printf("%-8s %-22s %12s %14s %10s\n",
		"PGAS", "change", "apply (ms)", "rollback (ms)", "retry")
	for _, n := range sizes {
		fp := faultinject.New()
		s, err := command.BootPGAS(n, core.Config{
			Style: codegen.StyleGrouped, CheckpointEvery: 500, Lookback: 500,
			Faults: fp,
		})
		if err != nil {
			fatal(err)
		}
		if _, err := s.InstPipe("p0"); err != nil {
			fatal(err)
		}
		if err := s.Run("tb0", "p0", 2000); err != nil {
			fatal(err)
		}

		ch := pgas.Changes[0]
		for _, c := range pgas.Changes {
			if c.Behavioral {
				ch = c
				break
			}
		}
		edited, err := ch.Apply(pgas.Source(n))
		if err != nil {
			fatal(err)
		}

		// Clean apply first: learn which object gets hot-swapped and what a
		// successful trip costs, then revert to the baseline.
		rep, err := s.ApplyChange(edited)
		if err != nil {
			fatal(err)
		}
		rep.WaitVerification()
		if len(rep.Swapped) == 0 {
			fmt.Printf("%-8s %-22s %12s\n", meshLabel(n), ch.Name, "(no swap)")
			continue
		}
		key := rep.Swapped[0]
		reverted, err := ch.Revert(edited)
		if err != nil {
			fatal(err)
		}
		if rep2, err := s.ApplyChange(reverted); err != nil {
			fatal(err)
		} else {
			rep2.WaitVerification()
		}

		// Arm the fault: the next reload of the swapped object fails, the
		// commit aborts, and the session rolls back to the reverted version.
		fp.FailReload(key, 1)
		t0 := time.Now()
		frep, ferr := s.ApplyChange(edited)
		rollbackD := time.Since(t0)
		if ferr == nil || frep == nil || !frep.RolledBack {
			fatal(fmt.Errorf("injected reload fault did not roll back (err=%v)", ferr))
		}

		// The same edit must succeed on the rolled-back session.
		retry := "ok"
		if rep3, err := s.ApplyChange(edited); err != nil {
			retry = "FAILED"
		} else {
			rep3.WaitVerification()
		}
		fmt.Printf("%-8s %-22s %12.1f %14.1f %10s\n",
			meshLabel(n), ch.Name, ms(rep.Total), ms(rollbackD), retry)
	}
	fmt.Println()
}

// ---------------------------------------------------------------- recovery

// recoverySession builds a PGAS session for the durability benchmarks.
// Replay targets start without the pipe — the journal's instpipe record
// recreates it.
func recoverySession(n int, withPipe bool) *core.Session {
	s, err := command.BootPGAS(n, core.Config{
		Style: codegen.StyleGrouped, CheckpointEvery: 500, Lookback: 500,
	})
	if err != nil {
		fatal(err)
	}
	if withPipe {
		if _, err := s.InstPipe("p0"); err != nil {
			fatal(err)
		}
	}
	return s
}

// recoveryExec replays journal records against a session through the
// verb catalogue, as livesimd recovery does, minus the server plumbing.
func recoveryExec(s *core.Session) core.ExecRecord {
	env := &command.Env{Session: s, Out: io.Discard}
	return func(r *wal.Record) error { return command.Dispatch(env, r.Verb, r.Args) }
}

// recoveryBench measures (a) the steady-state cost of journaling every
// committed mutation to a fsync-batched WAL, exactly as livesimd does
// with a state dir (target: < 5% of mutation throughput), and (b) how
// long crash-restart replay takes per journaled change, for the full
// re-execution path and for the watermark-checkpoint fast path.
func recoveryBench(sizes []int) {
	fmt.Println("== Durability: WAL overhead and crash-recovery replay latency ==")
	fmt.Println("   (WAL on journals one record per run with 100ms group commit, the")
	fmt.Println("    livesimd default; replay re-executes a 64-change journal)")
	fmt.Printf("%-8s %12s %12s %10s %16s %16s\n",
		"PGAS", "KHz (off)", "KHz (on)", "overhead", "full (ms/chg)", "fast (ms/chg)")
	for _, n := range sizes {
		// (a) Mutation throughput with and without journaling.
		speed := func(journal func(cycle uint64)) float64 {
			s := recoverySession(n, true)
			if err := s.Run("tb0", "p0", 1024); err != nil { // warm up
				fatal(err)
			}
			start := time.Now()
			cycles := 0
			for time.Since(start) < *flagBudget {
				if err := s.Run("tb0", "p0", 256); err != nil {
					fatal(err)
				}
				cycles += 256
				if journal != nil {
					cycle, _, _ := s.PipeStatus("p0")
					journal(cycle)
				}
			}
			return float64(cycles) / time.Since(start).Seconds() / 1000
		}
		off := speed(nil)

		dir, err := os.MkdirTemp("", "lsrec")
		if err != nil {
			fatal(err)
		}
		defer os.RemoveAll(dir)
		w, _, err := wal.Open(dir+"/bench.wal", wal.Options{SyncEvery: 100 * time.Millisecond})
		if err != nil {
			fatal(err)
		}
		on := speed(func(cycle uint64) {
			rec := &wal.Record{Type: wal.TypeCmd, Verb: "run",
				Args: []string{"tb0", "p0", "256"}, Version: "v0", Cycle: cycle}
			if err := w.Append(rec); err != nil {
				fatal(err)
			}
		})
		w.Close()

		// (b) Replay latency per journaled change, on a 64-change journal.
		const changes, chunk = 64, 50
		src := recoverySession(n, true)
		recs := []*wal.Record{{Type: wal.TypeCmd, Verb: "instpipe",
			Args: []string{"p0"}, Version: src.Version()}}
		for i := 0; i < changes; i++ {
			if err := src.Run("tb0", "p0", chunk); err != nil {
				fatal(err)
			}
			cycle, _, _ := src.PipeStatus("p0")
			recs = append(recs, &wal.Record{Type: wal.TypeCmd, Verb: "run",
				Args: []string{"tb0", "p0", strconv.Itoa(chunk)}, Version: src.Version(), Cycle: cycle})
		}

		full := recoverySession(n, false)
		t0 := time.Now()
		if _, err := full.ReplayFull(dir, recs, recoveryExec(full)); err != nil {
			fatal(err)
		}
		fullMs := ms(time.Since(t0)) / changes

		// Fast path: a watermark saved near the journal's end (as the
		// server's journal-ckpt-every cadence would) covers all but the
		// last two changes.
		if err := src.SaveCheckpoint("p0", dir+"/bench.p0.lscp"); err != nil {
			fatal(err)
		}
		cycle, histLen, _ := src.PipeStatus("p0")
		marked := append(append([]*wal.Record{}, recs...),
			&wal.Record{Type: wal.TypeMark, Pipe: "p0", Path: "bench.p0.lscp", Cycle: cycle, HistoryLen: histLen},
			&wal.Record{Type: wal.TypeCmd, Verb: "run", Args: []string{"tb0", "p0", strconv.Itoa(chunk)}, Version: src.Version()})
		if err := src.Run("tb0", "p0", chunk); err != nil {
			fatal(err)
		}
		c2, _, _ := src.PipeStatus("p0")
		marked[len(marked)-1].Cycle = c2

		fast := recoverySession(n, false)
		t1 := time.Now()
		rep, err := fast.ReplayFrom(dir, marked, recoveryExec(fast))
		if err != nil {
			fatal(err)
		}
		if !rep.FastPath {
			fmt.Fprintln(os.Stderr, "lsbench: warning: fast-path replay fell back to full re-execution")
		}
		fastMs := ms(time.Since(t1)) / float64(changes+1)

		fmt.Printf("%-8s %12.1f %12.1f %9.1f%% %16.3f %16.3f\n",
			meshLabel(n), off, on, 100*(off-on)/off, fullMs, fastMs)
	}
	fmt.Println()
}

// ---------------------------------------------------------------- util

func ms(d time.Duration) float64 { return float64(d.Microseconds()) / 1000.0 }

func must(err error) {
	if err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "lsbench:", err)
	os.Exit(1)
}
