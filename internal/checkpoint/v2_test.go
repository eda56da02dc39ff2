package checkpoint_test

import (
	"os"
	"path/filepath"
	"testing"

	"livesim/internal/checkpoint"
	"livesim/internal/codegen"
	"livesim/internal/pgas"
	"livesim/internal/sim"
)

// TestFileV2Readable: a version 2 file (testdata/v2.lscp, written by the
// last build that wrote version 2 from a capture of PGAS 1x1 after 300
// cycles of the compute kernel, see testdata/README.md) holds every slot.
// It decodes with every slot present, restores into a fresh simulation,
// and after the restore's settle that simulation holds every slot and
// memory word a simulation run to the same cycle holds.
func TestFileV2Readable(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("testdata", "v2.lscp"))
	if err != nil {
		t.Fatal(err)
	}
	cp, err := checkpoint.DecodeFile(data)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range cp.State.Nodes {
		if n.Present != nil {
			t.Fatalf("%s decodes with %d of its slots present, want every one", n.Path, len(n.Slots))
		}
	}
	newSim := func() *sim.Sim {
		s, err := pgas.NewSim(1, codegen.StyleGrouped)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	ran := newSim()
	images, err := pgas.ComputeImages(1, 1<<30)
	if err != nil {
		t.Fatal(err)
	}
	if err := pgas.LoadImage(ran, 1, 0, images[0]); err != nil {
		t.Fatal(err)
	}
	if err := ran.Tick(300); err != nil {
		t.Fatal(err)
	}
	restored := newSim()
	if err := restored.Restore(cp.State); err != nil {
		t.Fatal(err)
	}
	if restored.Cycle() != 300 || cp.Version != "v0" {
		t.Fatalf("restored at cycle %d, version %q; the fixture is cycle 300 of v0", restored.Cycle(), cp.Version)
	}
	rn := restored.Nodes()
	for i, n := range ran.Nodes() {
		for x, v := range n.Inst.Slots {
			if got := rn[i].Inst.Slots[x]; got != v {
				t.Errorf("%s slot %d: restored %#x, ran %#x", n.Path, x, got, v)
			}
		}
		for mi, m := range n.Inst.Mems {
			for a, v := range m {
				if got := rn[i].Inst.Mems[mi][a]; got != v {
					t.Errorf("%s.%s[%d]: restored %#x, ran %#x", n.Path, n.Obj.Mems[mi].Name, a, got, v)
				}
			}
		}
	}
	if ok, detail := sim.StateEqual(restored.Snapshot(), ran.Snapshot()); !ok {
		t.Errorf("captures differ: %s", detail)
	}
}
