package sim_test

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"livesim/internal/checkpoint"
	"livesim/internal/codegen"
	"livesim/internal/livecompiler"
	"livesim/internal/pgas"
	"livesim/internal/sim"
	"livesim/internal/vm"
)

// Shared pages: a Snapshot keeps every memory page of the previous
// capture whose words the live memory still holds. A chain of captures
// taken between ticks, pokes, restores to earlier captures and a hot
// reload must hold: each capture encodes to the bytes of an unshared copy
// of the live state taken at the same moment, shares pages with the
// capture before it, and still encodes to the same bytes when the chain is
// done — a page is never written once a State holds it. Each restore,
// which writes a capture's state slots and settles, leaves every slot a
// reader can name as a restore of every slot does.

type captureChain struct {
	t     *testing.T
	s     *sim.Sim
	table *objTable
	rng   uint64
	// states are the captures in order, encoded their bytes at capture,
	// and full every slot at the same moment; states from restorable on
	// were taken under the current objects.
	states     []*sim.State
	encoded    [][]byte
	full       []*sim.State
	restorable int
}

func (c *captureChain) rand(mod int) int {
	c.rng = c.rng*6364136223846793005 + 1442695040888963407
	return int((c.rng >> 33) % uint64(mod))
}

func encodeState(st *sim.State) []byte { return (&checkpoint.Checkpoint{State: st}).Bytes() }

// sharedPages counts the pages b holds at the same node, memory and page
// index as a.
func sharedPages(a, b *sim.State) int {
	n := 0
	for i := range b.Nodes {
		if i >= len(a.Nodes) {
			break
		}
		for mi, m := range b.Nodes[i].Mems {
			if mi >= len(a.Nodes[i].Mems) {
				continue
			}
			am := a.Nodes[i].Mems[mi]
			for pi := range m {
				if pi < len(am) && sim.SamePage(m[pi], am[pi]) {
					n++
				}
			}
		}
	}
	return n
}

func (c *captureChain) capture() {
	c.t.Helper()
	st := c.s.Snapshot()
	got := encodeState(st)
	if want := encodeState(sim.UnsharedState(c.s)); !bytes.Equal(got, want) {
		c.t.Fatalf("capture %d at cycle %d encodes differently from an unshared copy", len(c.states), st.Cycle)
	}
	if len(c.states) > 0 {
		if sharedPages(c.states[len(c.states)-1], st) == 0 {
			c.t.Fatalf("capture %d at cycle %d shares no page with the one before", len(c.states), st.Cycle)
		}
	}
	c.states = append(c.states, st)
	c.encoded = append(c.encoded, got)
	c.full = append(c.full, sim.FullState(c.s))
}

// restore restores capture k and holds every slot a reader can name, and
// every memory word, to a restore of every slot of it in a new simulation.
func (c *captureChain) restore(k int) {
	c.t.Helper()
	if err := c.s.Restore(c.states[k]); err != nil {
		c.t.Fatal(err)
	}
	whole, err := sim.New(c.table, c.s.Root.Obj.Key)
	if err != nil {
		c.t.Fatal(err)
	}
	if err := whole.Restore(c.full[k]); err != nil {
		c.t.Fatal(err)
	}
	if d := sim.SlotDiff(c.s, whole, unnamed); d != "" {
		c.t.Fatalf("restore of capture %d: %s (state-only vs every slot)", k, d)
	}
}

// driveInputs sets every root input except the clock to a random value.
func (c *captureChain) driveInputs() {
	c.t.Helper()
	for _, p := range c.s.Root.Obj.Ports {
		if p.Dir == vm.In && p.Name != "clk" {
			if err := c.s.SetIn(p.Name, uint64(c.rand(1<<31))*0x100000001); err != nil {
				c.t.Fatal(err)
			}
		}
	}
}

func (c *captureChain) poke() {
	c.t.Helper()
	nodes := c.s.Nodes()
	for try := 0; try < 16; try++ {
		n := nodes[c.rand(len(nodes))]
		if len(n.Obj.Debug) > 0 {
			path := n.Path + "." + n.Obj.Debug[c.rand(len(n.Obj.Debug))].Name
			if err := c.s.Poke(path, uint64(c.rand(1<<31))); err != nil {
				c.t.Fatal(err)
			}
			return
		}
	}
}

func (c *captureChain) pokeMem() {
	c.t.Helper()
	var withMem []*sim.Node
	for _, n := range c.s.Nodes() {
		if len(n.Obj.Mems) > 0 {
			withMem = append(withMem, n)
		}
	}
	n := withMem[c.rand(len(withMem))]
	m := n.Obj.Mems[c.rand(len(n.Obj.Mems))]
	if err := c.s.PokeMem(n.Path+"."+m.Name, uint64(c.rand(int(m.Depth))), uint64(c.rand(1<<31))); err != nil {
		c.t.Fatal(err)
	}
}

// reload hot-reloads every key of recompiled on the simulation.
func (c *captureChain) reload(recompiled map[string]*vm.Object) {
	c.t.Helper()
	for key, obj := range recompiled {
		c.table.objs[key] = obj
		if n, err := c.s.Reload(key, nil); err != nil || n == 0 {
			c.t.Fatalf("reload %s: %d instances, %v", key, n, err)
		}
	}
	c.restorable = len(c.states)
}

// run captures steps times, reloading halfway, then checks that every
// capture still encodes to its bytes at capture.
func (c *captureChain) run(steps int, recompiled map[string]*vm.Object) {
	c.t.Helper()
	c.capture()
	for i := 0; i < steps; i++ {
		c.driveInputs()
		if err := c.s.Tick(1 + c.rand(48)); err != nil {
			c.t.Fatal(err)
		}
		switch c.rand(6) {
		case 0:
			c.pokeMem()
		case 1:
			c.poke()
		case 2:
			if k := len(c.states) - c.restorable; k > 0 {
				c.restore(c.restorable + c.rand(k))
			}
		}
		if i == steps/2 {
			c.reload(recompiled)
		}
		c.capture()
	}
	for i, st := range c.states {
		if !bytes.Equal(encodeState(st), c.encoded[i]) {
			c.t.Fatalf("capture %d at cycle %d changed after it was taken", i, st.Cycle)
		}
	}
}

// withMemory wraps randomHierarchy's top in a module with a 16-page
// memory that the clock edge writes in its first eight pages only, so
// the other eight stay shared from capture to capture unless poked.
func withMemory(src string) string {
	var hi int
	if _, err := fmt.Sscanf(src[strings.Index(src, "module rndtop"):], "module rndtop (input clk, input [%d:0]", &hi); err != nil {
		panic(err)
	}
	return src + fmt.Sprintf(`
module memtop (input clk, input [%[1]d:0] a, b, c, output [%[1]d:0] o0);
  wire [%[1]d:0] o1, o2, o3;
  reg [%[1]d:0] ram [0:%[2]d];
  rndtop u (.clk(clk), .a(a), .b(b), .c(c), .o0(o0), .o1(o1), .o2(o2), .o3(o3));
  always @(posedge clk) begin
    if (b[0]) ram[a[2:0] * %[3]d] <= o1;
  end
endmodule
`, hi, 16*sim.PageWords-1, sim.PageWords)
}

func TestSnapshotChainRandomHierarchies(t *testing.T) {
	for seed := uint64(1); seed <= 8; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			objs, top := sim.BuildDesign(t, withMemory(randomHierarchy(seed, -1)), "memtop", codegen.StyleGrouped)
			last := objs["rndtop"].Children[len(objs["rndtop"].Children)-1].ObjectKey
			var alt int
			if _, err := fmt.Sscanf(last, "leaf%d", &alt); err != nil {
				t.Fatalf("rndtop's last child is %q: %v", last, err)
			}
			newObjs, _ := sim.BuildDesign(t, withMemory(randomHierarchy(seed, alt)), "memtop", codegen.StyleGrouped)
			table := &objTable{objs}
			s, err := sim.New(table, top)
			if err != nil {
				t.Fatal(err)
			}
			c := &captureChain{t: t, s: s, table: table, rng: seed}
			c.run(24, map[string]*vm.Object{last: newObjs[last]})
		})
	}
}

func TestSnapshotChainPGAS(t *testing.T) {
	var hazard pgas.Change
	for _, ch := range pgas.Changes {
		if ch.Name == "id-hazard-tighten" {
			hazard = ch
		}
	}
	for _, n := range []int{1, 16} {
		n := n
		t.Run(fmt.Sprintf("%dnodes", n), func(t *testing.T) {
			objs, top, err := pgas.Build(n, codegen.StyleGrouped)
			if err != nil {
				t.Fatal(err)
			}
			edited, err := hazard.Apply(pgas.Source(n))
			if err != nil {
				t.Fatal(err)
			}
			res, err := livecompiler.New(pgas.TopName(n), codegen.StyleGrouped, nil).Build(edited)
			if err != nil {
				t.Fatal(err)
			}
			recompiled := map[string]*vm.Object{}
			for key, obj := range res.Objects {
				if obj.Hash() != objs[key].Hash() {
					recompiled[key] = obj
				}
			}
			table := &objTable{objs}
			s, err := sim.New(table, top)
			if err != nil {
				t.Fatal(err)
			}
			images, err := pgas.ComputeImages(n, 1<<30)
			if err != nil {
				t.Fatal(err)
			}
			for i, img := range images {
				if err := pgas.LoadImage(s, n, i, img); err != nil {
					t.Fatal(err)
				}
			}
			c := &captureChain{t: t, s: s, table: table, rng: uint64(n)}
			c.run(16, recompiled)
		})
	}
}

// TestRefusedRestoreChangesNothing: a state whose last node does not fit
// is refused before any node is written, so the simulation keeps the
// state it had, not a mix of the two.
func TestRefusedRestoreChangesNothing(t *testing.T) {
	d := sim.TestDesigns[0]
	objs, top := sim.BuildDesign(t, d.Src, d.Top, codegen.StyleGrouped)
	s, err := sim.New(sim.TableResolver(objs), top)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.SetIn("in", 7); err != nil {
		t.Fatal(err)
	}
	if err := s.Tick(5); err != nil {
		t.Fatal(err)
	}
	at5 := s.Snapshot()
	if err := s.SetIn("in", 100); err != nil {
		t.Fatal(err)
	}
	if err := s.Tick(4); err != nil {
		t.Fatal(err)
	}
	at9 := sim.FullState(s)
	last := &at5.Nodes[len(at5.Nodes)-1]
	last.NumSlots += 2
	if err := s.Restore(at5); err == nil {
		t.Fatalf("Restore of a state of two more slots in %s succeeded", last.Path)
	}
	if ok, detail := sim.StateEqual(sim.FullState(s), at9); !ok {
		t.Fatalf("a refused Restore changed the simulation: %s", detail)
	}
}
