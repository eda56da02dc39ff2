package command

import (
	"bytes"
	"fmt"
	"maps"
	"testing"

	"livesim/internal/core"
	"livesim/internal/pgas"
	"livesim/internal/sim"
)

// TestRegisteredTestbenchesAreChunkInvariant: run a then run b lands on
// the same state — kernel and testbench — as one run of a+b, for every
// testbench the daemons and the shell register and for the two the core
// package offers. The run journal merges consecutive runs of one
// testbench into one op and verification replays a segment from the
// middle of an op, so both rest on this. Checkpoints are off, so each
// run reaches the testbench as one call.
func TestRegisteredTestbenchesAreChunkInvariant(t *testing.T) {
	cfg := core.Config{}
	bootPGAS := func(t *testing.T) *core.Session {
		s, err := BootPGAS(1, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	bootSource := func(t *testing.T) *core.Session {
		s, err := BootSource("top", map[string]string{"top.v": tinyDesign}, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	bootTB := func(handle string, f core.TestbenchFactory) func(t *testing.T) *core.Session {
		return func(t *testing.T) *core.Session {
			s := bootSource(t)
			s.RegisterTestbench(handle, f)
			return s
		}
	}
	drive := func(d *core.Driver, v uint64) error {
		if err := d.SetIn("en", v&1); err != nil {
			return err
		}
		return d.SetIn("d", v*7+1)
	}
	splits := [][2]int{{0, 200}, {1, 199}, {7, 193}, {63, 137}, {64, 136}, {65, 135}, {199, 1}}

	for _, c := range []struct {
		name, tb string
		boot     func(t *testing.T) *core.Session
	}{
		{"BootPGAS/tb0", "tb0", bootPGAS},
		{"BootSource/clock", "clock", bootSource},
		{"StatelessTB", "st", bootTB("st", core.NewStatelessTB(func(d *core.Driver, cycle uint64) error {
			return drive(d, cycle)
		}))},
		{"CountingTB", "ct", bootTB("ct", core.NewCountingTB(func(d *core.Driver, step uint64) error {
			return drive(d, step/3)
		}))},
	} {
		t.Run(c.name, func(t *testing.T) {
			for _, sp := range splits {
				requireSameRun(t, c.boot, c.tb, sp[0], sp[1])
			}
		})
	}

	// tb0 stops a call early once every node has halted; the runs around
	// the halt, and across it, must still agree. BootPGAS's program never
	// halts, so this is the same testbench on a short one.
	t.Run("BootPGAS/tb0-halted_all", func(t *testing.T) {
		images, err := pgas.ComputeImages(1, 2)
		if err != nil {
			t.Fatal(err)
		}
		bootHalt := func(t *testing.T) *core.Session {
			s := bootPGAS(t)
			s.RegisterTestbench("short", pgas.NewTestbench(1, images))
			return s
		}
		halt := haltCycle(t, bootHalt(t), "short")
		for _, a := range []int{halt - 1, halt, halt + 1, halt + 70} {
			requireSameRun(t, bootHalt, "short", a, halt+150-a)
		}
	})
}

// haltCycle is the first cycle, run one at a time, at which every node
// of the mesh has halted.
func haltCycle(t *testing.T, s *core.Session, tb string) int {
	t.Helper()
	if _, err := s.InstPipe("p0"); err != nil {
		t.Fatal(err)
	}
	p, _ := s.Pipe("p0")
	for c := 1; c <= 5000; c++ {
		if err := s.Run(tb, "p0", 1); err != nil {
			t.Fatal(err)
		}
		if halted, err := pgas.HaltedAll(p.Sim); err != nil {
			t.Fatal(err)
		} else if halted {
			return c
		}
	}
	t.Fatal("the mesh did not halt in 5000 cycles")
	return 0
}

// requireSameRun compares run a then run b against one run of a+b on two
// fresh sessions: the cycle, the kernel state and every testbench's
// snapshot.
func requireSameRun(t *testing.T, boot func(t *testing.T) *core.Session, tb string, a, b int) {
	t.Helper()
	fingerprint := func(runs ...int) (*sim.State, map[string][]byte) {
		s := boot(t)
		if _, err := s.InstPipe("p0"); err != nil {
			t.Fatal(err)
		}
		for _, n := range runs {
			if err := s.Run(tb, "p0", n); err != nil {
				t.Fatal(err)
			}
		}
		cp, err := s.Checkpoint("p0")
		if err != nil {
			t.Fatal(err)
		}
		return cp.State, cp.Aux
	}
	split, splitAux := fingerprint(a, b)
	whole, wholeAux := fingerprint(a + b)
	where := fmt.Sprintf("%s: run %d then %d vs run %d", tb, a, b, a+b)
	if split.Cycle != whole.Cycle {
		t.Fatalf("%s: cycle %d vs %d", where, split.Cycle, whole.Cycle)
	}
	if ok, why := sim.StateEqual(split, whole); !ok {
		t.Fatalf("%s: %s", where, why)
	}
	if !maps.EqualFunc(splitAux, wholeAux, bytes.Equal) {
		t.Fatalf("%s: testbench snapshots %v vs %v", where, splitAux, wholeAux)
	}
}
