package livesim

// Benchmarks regenerating the paper's evaluation, one per table/figure.
// `go test -bench=. -benchmem` runs small configurations; cmd/lsbench
// runs the full parameter sweeps and prints the paper-style tables.

import (
	"fmt"
	"testing"

	"livesim/internal/checkpoint"
	"livesim/internal/codegen"
	"livesim/internal/command"
	"livesim/internal/core"
	"livesim/internal/flatsim"
	"livesim/internal/hdl/ast"
	"livesim/internal/hdl/elab"
	"livesim/internal/hdl/parser"
	"livesim/internal/hostmodel"
	"livesim/internal/livecompiler"
	"livesim/internal/pgas"
	"livesim/internal/sim"
	"livesim/internal/verify"
	"livesim/internal/vm"
)

func buildLiveSim(b *testing.B, n int) *sim.Sim {
	b.Helper()
	s, err := pgas.NewSim(n, codegen.StyleGrouped)
	if err != nil {
		b.Fatal(err)
	}
	images, err := pgas.ComputeImages(n, 1<<30)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := pgas.LoadImage(s, n, i, images[i]); err != nil {
			b.Fatal(err)
		}
	}
	return s
}

func buildFlatSim(b *testing.B, n int) *flatsim.Sim {
	b.Helper()
	srcs := map[string]*ast.Module{}
	for name, text := range pgas.DesignSource(n) {
		sf, err := parser.ParseFile(name, text)
		if err != nil {
			b.Fatal(err)
		}
		for _, m := range sf.Modules {
			srcs[m.Name] = m
		}
	}
	d, err := elab.Elaborate(srcs, pgas.TopName(n), nil)
	if err != nil {
		b.Fatal(err)
	}
	obj, err := flatsim.Compile(d, codegen.StyleMux)
	if err != nil {
		b.Fatal(err)
	}
	fs := flatsim.NewSim(obj)
	images, err := pgas.ComputeImages(n, 1<<30)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < n; i++ {
		path := fmt.Sprintf("n%d.u_mem.mem", i)
		for w, v := range images[i] {
			if err := fs.PokeMem(path, uint64(w), v); err != nil {
				b.Fatal(err)
			}
		}
	}
	return fs
}

// Figure 7 (simulation-speed series): cycles/sec for both simulators.
func BenchmarkFig7SimLiveSim(b *testing.B) {
	for _, n := range []int{1, 4} {
		b.Run(pgasName(n), func(b *testing.B) {
			s := buildLiveSim(b, n)
			b.ResetTimer()
			if err := s.Tick(b.N); err != nil {
				b.Fatal(err)
			}
		})
	}
}

func BenchmarkFig7SimFlat(b *testing.B) {
	for _, n := range []int{1, 4} {
		b.Run(pgasName(n), func(b *testing.B) {
			s := buildFlatSim(b, n)
			b.ResetTimer()
			s.Tick(b.N)
		})
	}
}

func pgasName(n int) string {
	return fmt.Sprintf("nodes%d", n)
}

// Figure 8: the full hot-reload ERD loop (edit -> compile -> swap ->
// checkpoint reload -> re-execute).
func BenchmarkFig8HotReload(b *testing.B) {
	const n = 1
	s, err := command.BootPGAS(n, core.Config{
		Style: codegen.StyleGrouped, CheckpointEvery: 500, Lookback: 500,
	})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := s.InstPipe("p0"); err != nil {
		b.Fatal(err)
	}
	if err := s.Run("tb0", "p0", 2000); err != nil {
		b.Fatal(err)
	}
	edits := []int{0, 3} // alternate two behavioural changes
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var src = pgas.Source(n)
		if i%2 == 0 {
			src, err = pgas.Changes[edits[0]].Apply(src)
		} else {
			src, err = pgas.Changes[edits[1]].Apply(src)
		}
		if err != nil {
			b.Fatal(err)
		}
		rep, err := s.ApplyChange(src)
		if err != nil {
			b.Fatal(err)
		}
		rep.WaitVerification()
	}
}

// Table VII: profiled execution through the host cache model.
func BenchmarkTable7Profiled(b *testing.B) {
	s := buildLiveSim(b, 4)
	host := hostmodel.NewHost()
	b.ResetTimer()
	if err := s.TickProfiled(b.N, host); err != nil {
		b.Fatal(err)
	}
}

// Table VIII: compilation paths.
func BenchmarkTable8CompileLiveFull(b *testing.B) {
	for i := 0; i < b.N; i++ {
		c := livecompiler.New(pgas.TopName(4), codegen.StyleGrouped, nil)
		if _, err := c.Build(pgas.Source(4)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable8CompileLiveIncremental(b *testing.B) {
	c := livecompiler.New(pgas.TopName(4), codegen.StyleGrouped, nil)
	if _, err := c.Build(pgas.Source(4)); err != nil {
		b.Fatal(err)
	}
	edited, err := pgas.Changes[0].Apply(pgas.Source(4))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		if i%2 == 0 {
			_, err = c.Build(edited)
		} else {
			_, err = c.Build(pgas.Source(4))
		}
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable8CompileFlat(b *testing.B) {
	srcs := map[string]*ast.Module{}
	for name, text := range pgas.DesignSource(4) {
		sf, err := parser.ParseFile(name, text)
		if err != nil {
			b.Fatal(err)
		}
		for _, m := range sf.Modules {
			srcs[m.Name] = m
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d, err := elab.Elaborate(srcs, pgas.TopName(4), nil)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := flatsim.Compile(d, codegen.StyleMux); err != nil {
			b.Fatal(err)
		}
	}
}

// Section V-B: checkpoint capture cost (the stop-the-world part).
func BenchmarkCheckpointSnapshot(b *testing.B) {
	s := buildLiveSim(b, 4)
	if err := s.Tick(100); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st := s.Snapshot()
		if st.Bytes() == 0 {
			b.Fatal("empty snapshot")
		}
	}
}

// Figure 6: parallel consistency verification over checkpoint segments.
func BenchmarkFig6Verify(b *testing.B) {
	s := buildLiveSim(b, 1)
	store := checkpoint.NewStore()
	for i := 0; i < 9; i++ {
		store.Add(s.Snapshot(), "v0", 0)
		if err := s.Tick(200); err != nil {
			b.Fatal(err)
		}
	}
	cps := store.Before(1 << 62)
	objs, top, err := pgas.Build(1, codegen.StyleGrouped)
	if err != nil {
		b.Fatal(err)
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
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := verify.Run(cps, replay, func(replayed *sim.State, recorded *checkpoint.Checkpoint) (bool, string) {
			return sim.StateEqual(replayed, recorded.State)
		})
		if err != nil {
			b.Fatal(err)
		}
		if !res.Consistent() {
			b.Fatal("unexpected divergence")
		}
	}
}

// Ablation: codegen styles on the same design (Section V-A's if/else
// grouping claim).
func BenchmarkCodegenStyleGrouped(b *testing.B) { benchStyle(b, codegen.StyleGrouped) }
func BenchmarkCodegenStyleMux(b *testing.B)     { benchStyle(b, codegen.StyleMux) }

func benchStyle(b *testing.B, style codegen.Style) {
	s, err := pgas.NewSim(1, style)
	if err != nil {
		b.Fatal(err)
	}
	images, err := pgas.ComputeImages(1, 1<<30)
	if err != nil {
		b.Fatal(err)
	}
	if err := pgas.LoadImage(s, 1, 0, images[0]); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	if err := s.Tick(b.N); err != nil {
		b.Fatal(err)
	}
}

// Microbenchmark: raw VM dispatch rate.
func BenchmarkVMExec(b *testing.B) {
	m := vm.Mask(32)
	obj := &vm.Object{
		Key: "bench", ModName: "bench", NumSlots: 8,
		Comb: []vm.Instr{
			{Op: vm.OpAdd, Dst: 2, A: 0, B: 1, Imm: m},
			{Op: vm.OpXor, Dst: 3, A: 2, B: 0},
			{Op: vm.OpShlImm, Dst: 4, A: 3, B: 5, Imm: m},
			{Op: vm.OpLtU, Dst: 5, A: 4, B: 1},
			{Op: vm.OpMux, Dst: 6, A: 5, B: 2, C: 3},
		},
	}
	inst := vm.NewInstance(obj)
	inst.Slots[0], inst.Slots[1] = 12345, 67890
	var st vm.Stats
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		inst.RunComb(&st)
	}
}
