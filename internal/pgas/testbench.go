package pgas

import (
	"fmt"

	"livesim/internal/codegen"
	"livesim/internal/core"
	"livesim/internal/livecompiler"
	"livesim/internal/liveparser"
	"livesim/internal/sim"
	"livesim/internal/vm"
)

// Source returns the design as a liveparser.Source.
func Source(n int) liveparser.Source {
	return liveparser.Source{Files: DesignSource(n)}
}

// Build compiles the n-node PGAS design and returns the object table and
// top key.
func Build(n int, style codegen.Style) (map[string]*vm.Object, string, error) {
	c := livecompiler.New(TopName(n), style, nil)
	res, err := c.Build(Source(n))
	if err != nil {
		return nil, "", err
	}
	return res.Objects, res.TopKey, nil
}

// NewSim builds a ready simulation of an n-node PGAS.
func NewSim(n int, style codegen.Style, opts ...sim.Option) (*sim.Sim, error) {
	objs, top, err := Build(n, style)
	if err != nil {
		return nil, err
	}
	return sim.New(sim.ResolverFunc(func(key string) (*vm.Object, error) {
		if o, ok := objs[key]; ok {
			return o, nil
		}
		return nil, fmt.Errorf("no object %q", key)
	}), top, opts...)
}

// LoadImage writes a program image into node i's local store.
func LoadImage(s *sim.Sim, n, i int, image []uint64) error {
	mem := MemPath(n, i)
	for w, v := range image {
		if err := s.PokeMem(mem, uint64(w), v); err != nil {
			return err
		}
	}
	return nil
}

// ReadReg reads architectural register r of node i.
func ReadReg(s *sim.Sim, n, i, r int) (uint64, error) {
	if r == 0 {
		return 0, nil
	}
	return s.PeekMem(RegfilePath(n, i), uint64(r))
}

// HaltedAll reports whether every node has executed ecall/ebreak.
func HaltedAll(s *sim.Sim) (bool, error) {
	if err := s.Settle(); err != nil {
		return false, err
	}
	v, err := s.Out("halted_all")
	return v == 1, err
}

// RunToHalt advances the simulation until all nodes halt or maxCycles
// elapse, returning the cycle count.
func RunToHalt(s *sim.Sim, maxCycles int) (uint64, error) {
	const chunk = 64
	for remaining := maxCycles; remaining > 0; remaining -= chunk {
		c := chunk
		if remaining < c {
			c = remaining
		}
		if err := s.Tick(c); err != nil {
			return s.Cycle(), err
		}
		halted, err := HaltedAll(s)
		if err != nil {
			return s.Cycle(), err
		}
		if halted {
			return s.Cycle(), nil
		}
	}
	return s.Cycle(), fmt.Errorf("not halted after %d cycles", maxCycles)
}

// Testbench is the PGAS session testbench (the paper's tb0): it loads the
// per-node program images on cycle 0 and then runs the mesh, stopping
// early when all nodes have halted. It is stateless — everything is keyed
// off the simulation cycle — so it is trivially resumable and
// checkpoint-safe.
type Testbench struct {
	N      int
	Images [][]uint64
}

// NewTestbench builds a testbench factory for an n-node mesh running the
// given per-node images (index = node id; missing/nil images leave the
// node's memory zeroed, which halts immediately via an illegal-free path:
// word 0 = 0 decodes as an unknown opcode and is treated as a bubble —
// so give every node at least an "ecall" image).
func NewTestbench(n int, images [][]uint64) core.TestbenchFactory {
	return func() core.Testbench { return &Testbench{N: n, Images: images} }
}

// Run implements core.Testbench.
func (tb *Testbench) Run(d *core.Driver, cycles int) error {
	if d.Cycle() == 0 {
		for i := 0; i < tb.N && i < len(tb.Images); i++ {
			mem := MemPath(tb.N, i)
			for w, v := range tb.Images[i] {
				if err := d.PokeMem(mem, uint64(w), v); err != nil {
					return err
				}
			}
		}
	}
	const chunk = 64
	for cycles > 0 {
		c := chunk
		if cycles < c {
			c = cycles
		}
		if err := d.Tick(c); err != nil {
			return err
		}
		cycles -= c
		if err := d.Settle(); err != nil {
			return err
		}
		if v, err := d.Out("halted_all"); err == nil && v == 1 {
			return nil
		}
	}
	return nil
}

// Snapshot implements core.Testbench (stateless).
func (tb *Testbench) Snapshot() []byte { return nil }

// Restore implements core.Testbench (stateless).
func (tb *Testbench) Restore([]byte) error { return nil }
