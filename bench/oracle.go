package main

import (
	"fmt"
	"strings"

	"livesim/internal/codegen"
	"livesim/internal/flatsim"
	"livesim/internal/hdl/ast"
	"livesim/internal/hdl/elab"
	"livesim/internal/hdl/parser"
	"livesim/internal/pgas"
	"livesim/internal/riscv"
)

// cosimIters is the halting compute program co-simulated against the ISS.
const cosimIters = 8

// runOracle checks forward simulation two ways. First a halting compute
// program over the seeded data is run on the RTL core and on the RISC-V
// instruction-set simulator, and registers and memory must agree — the
// kernel computes what the ISA says. Then the architectural state the
// timed session ended in must agree, word by word, with the flattened
// simulator (a second compiler and a second kernel) at the same cycle.
func runOracle(x *runCtx, r *round) error {
	if err := cosimISS(x.in); err != nil {
		return fmt.Errorf("oracle: %w", err)
	}
	p, ok := r.session.Pipe(sessionPipe)
	if !ok {
		return fmt.Errorf("oracle: round kept no session")
	}
	fs, err := newFlat(x.in)
	if err != nil {
		return fmt.Errorf("oracle: %w", err)
	}
	fs.Tick(int(r.sim.FinalCycle))
	if fs.Cycle() != p.Sim.Cycle() {
		return fmt.Errorf("oracle: flat simulator at cycle %d, session at %d", fs.Cycle(), p.Sim.Cycle())
	}
	// The flat simulator names the same state without the "top." root.
	for _, l := range archLocs(x.in.mesh) {
		want, err := l.read(fs, strings.TrimPrefix(l.path, "top."))
		if err != nil {
			return fmt.Errorf("oracle: flat simulator: %w", err)
		}
		got, err := l.read(p.Sim, l.path)
		if err != nil {
			return fmt.Errorf("oracle: %w", err)
		}
		if got != want {
			return fmt.Errorf("oracle: %v: session %#x, flat simulator %#x", l, got, want)
		}
	}
	return nil
}

// newFlat compiles the flattened simulator of the input's mesh and loads
// the seeded images.
func newFlat(in *inputs) (*flatsim.Sim, error) {
	mods := map[string]*ast.Module{}
	for name, text := range pgas.DesignSource(in.mesh) {
		sf, err := parser.ParseFile(name, text)
		if err != nil {
			return nil, err
		}
		for _, m := range sf.Modules {
			mods[m.Name] = m
		}
	}
	d, err := elab.Elaborate(mods, pgas.TopName(in.mesh), nil)
	if err != nil {
		return nil, err
	}
	obj, err := flatsim.Compile(d, codegen.StyleMux)
	if err != nil {
		return nil, err
	}
	fs := flatsim.NewSim(obj)
	for i, img := range in.images {
		mem := strings.TrimPrefix(pgas.MemPath(in.mesh, i), "top.")
		for w, v := range img {
			if err := fs.PokeMem(mem, uint64(w), v); err != nil {
				return nil, err
			}
		}
	}
	return fs, nil
}

// cosimISS runs the halting compute kernel over node 0's seeded data on
// a one-node RTL core and on the ISS and compares architectural state.
func cosimISS(in *inputs) error {
	prog, err := riscv.Assemble(pgas.ComputeProgram(cosimIters))
	if err != nil {
		return err
	}
	image := append([]uint64(nil), in.images[0]...)
	copy(image, prog.Words64())

	mem := make(riscv.SliceMemory, localStoreWords*8)
	for w, v := range image {
		if err := mem.Store(uint64(w*8), 8, v); err != nil {
			return err
		}
	}
	cpu := riscv.NewCPU(mem)
	const maxSteps = 100_000
	if err := cpu.Run(maxSteps); err != nil {
		return fmt.Errorf("ISS: %w", err)
	}
	if !cpu.Halted {
		return fmt.Errorf("ISS did not halt in %d steps", maxSteps)
	}

	s, err := pgas.NewSim(1, codegen.StyleGrouped)
	if err != nil {
		return err
	}
	if err := pgas.LoadImage(s, 1, 0, image); err != nil {
		return err
	}
	if _, err := pgas.RunToHalt(s, 4*maxSteps); err != nil {
		return fmt.Errorf("RTL: %w", err)
	}
	for reg := 1; reg < 32; reg++ {
		got, err := pgas.ReadReg(s, 1, 0, reg)
		if err != nil {
			return err
		}
		if got != cpu.Regs[reg] {
			return fmt.Errorf("cosim x%d: RTL %#x, ISS %#x", reg, got, cpu.Regs[reg])
		}
	}
	for w := 0; w < localStoreWords; w++ {
		want, _ := mem.Load(uint64(w*8), 8)
		got, err := s.PeekMem(pgas.MemPath(1, 0), uint64(w))
		if err != nil {
			return err
		}
		if got != want {
			return fmt.Errorf("cosim mem[%#x]: RTL %#x, ISS %#x", w*8, got, want)
		}
	}
	return nil
}
