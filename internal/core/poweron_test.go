package core_test

import (
	"testing"

	"livesim/internal/core"
	"livesim/internal/pgas"
)

// TestPowerOnRestoreRunsAsFresh: a pipe put back to power-on (the restore
// an edit makes when no checkpoint precedes its cycle) runs the PGAS
// testbench's first Run with exactly the VM ops a fresh pipe's first Run
// executes, and ends in the same state. The testbench pokes the program
// images at cycle 0; a restore that settled every instance first would
// evaluate every poked node twice.
func TestPowerOnRestoreRunsAsFresh(t *testing.T) {
	const n, cycles = 4, 300
	images, err := pgas.ComputeImages(n, 1)
	if err != nil {
		t.Fatal(err)
	}
	s := core.NewSession(pgas.TopName(n), core.Config{})
	if _, err := s.LoadDesign(pgas.Source(n)); err != nil {
		t.Fatal(err)
	}
	s.RegisterTestbench("tb0", pgas.NewTestbench(n, images))
	run := func(pipe string, before func()) (ops uint64, out uint64) {
		t.Helper()
		p, ok := s.Pipe(pipe)
		if !ok {
			var err error
			if p, err = s.InstPipe(pipe); err != nil {
				t.Fatal(err)
			}
		}
		from := p.Sim.Stats.Ops
		if before != nil {
			before()
		}
		if err := s.Run("tb0", pipe, cycles); err != nil {
			t.Fatal(err)
		}
		if p.Sim.Cycle() == 0 {
			t.Fatalf("pipe %s did not run", pipe)
		}
		snap := p.Sim.Snapshot()
		for _, ns := range snap.Nodes {
			for _, v := range ns.Slots {
				out = out*31 + v
			}
		}
		return p.Sim.Stats.Ops - from, out ^ p.Sim.Cycle()
	}
	freshOps, freshState := run("fresh", nil)
	run("again", nil)
	ops, state := run("again", func() {
		if err := s.PowerOn("again"); err != nil {
			t.Fatal(err)
		}
	})
	if ops != freshOps || state != freshState {
		t.Fatalf("power-on restore + first Run: %d VM ops, state %x; a fresh pipe's first Run: %d ops, state %x",
			ops, state, freshOps, freshState)
	}
}
