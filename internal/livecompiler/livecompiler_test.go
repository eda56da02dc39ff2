package livecompiler

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"livesim/internal/codegen"
	"livesim/internal/hdl/ast"
	"livesim/internal/hdl/elab"
	"livesim/internal/liveparser"
	"livesim/internal/vm"
)

const design = `
module stage_a (input clk, input [7:0] d, output reg [7:0] q);
  always @(posedge clk) q <= d + 1;
endmodule
module stage_b (input clk, input [7:0] d, output reg [7:0] q);
  always @(posedge clk) q <= d * 2;
endmodule
module pipe (input clk, input [7:0] in, output [7:0] out);
  wire [7:0] mid;
  stage_a a0 (.clk(clk), .d(in), .q(mid));
  stage_b b0 (.clk(clk), .d(mid), .q(out));
endmodule
`

func files(s string) liveparser.Source {
	return liveparser.Source{Files: map[string]string{"design.v": s}}
}

func TestFullBuild(t *testing.T) {
	c := New("pipe", codegen.StyleGrouped, nil)
	res, err := c.Build(files(design))
	if err != nil {
		t.Fatal(err)
	}
	if res.TopKey != "pipe" {
		t.Errorf("top %q", res.TopKey)
	}
	if len(res.Objects) != 3 {
		t.Errorf("objects %d", len(res.Objects))
	}
	if res.Stats.Compiled != 3 || res.Stats.CacheHits != 0 {
		t.Errorf("stats %+v", res.Stats)
	}
	if len(res.Swapped) != 3 {
		t.Errorf("first build should swap everything: %v", res.Swapped)
	}
	if res.Diff != nil {
		t.Error("first build has no diff")
	}
}

func TestIncrementalOnlyRecompilesDirty(t *testing.T) {
	c := New("pipe", codegen.StyleGrouped, nil)
	if _, err := c.Build(files(design)); err != nil {
		t.Fatal(err)
	}
	edited := strings.Replace(design, "d + 1", "d + 3", 1)
	res, err := c.Build(files(edited))
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Compiled != 1 {
		t.Errorf("compiled %d, want 1 (only stage_a)", res.Stats.Compiled)
	}
	if res.Stats.CacheHits != 2 {
		t.Errorf("cache hits %d, want 2", res.Stats.CacheHits)
	}
	if len(res.Swapped) != 1 || res.Swapped[0] != "stage_a" {
		t.Errorf("swapped %v", res.Swapped)
	}
	// Unchanged objects must keep identity so the kernel skips them:
	// a no-op rebuild must return identical pointers.
	res2, err := c.Build(files(edited))
	if err != nil {
		t.Fatal(err)
	}
	if len(res2.Swapped) != 0 {
		t.Errorf("no-op rebuild swapped %v", res2.Swapped)
	}
	if res2.Objects["pipe"] != res.Objects["pipe"] {
		t.Error("unchanged object lost identity")
	}
}

func TestCommentEditSwapsNothing(t *testing.T) {
	c := New("pipe", codegen.StyleGrouped, nil)
	if _, err := c.Build(files(design)); err != nil {
		t.Fatal(err)
	}
	edited := strings.Replace(design, "q <= d + 1;", "q <= d + 1; // same", 1)
	res, err := c.Build(files(edited))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Swapped) != 0 {
		t.Errorf("comment edit swapped %v", res.Swapped)
	}
	if res.Diff == nil || !res.Diff.NoChange() {
		t.Errorf("diff %+v", res.Diff)
	}
	if res.Stats.Compiled != 0 {
		t.Errorf("comment edit recompiled %d modules", res.Stats.Compiled)
	}
}

func TestInterfaceChangeSwapsParentToo(t *testing.T) {
	c := New("pipe", codegen.StyleGrouped, nil)
	if _, err := c.Build(files(design)); err != nil {
		t.Fatal(err)
	}
	edited := strings.Replace(design,
		"module stage_a (input clk, input [7:0] d, output reg [7:0] q);",
		"module stage_a (input clk, input en, input [7:0] d, output reg [7:0] q);", 1)
	edited = strings.Replace(edited,
		"always @(posedge clk) q <= d + 1;",
		"always @(posedge clk) if (en) q <= d + 1;", 1)
	edited = strings.Replace(edited,
		"stage_a a0 (.clk(clk), .d(in), .q(mid));",
		"stage_a a0 (.clk(clk), .en(1'b1), .d(in), .q(mid));", 1)
	res, err := c.Build(files(edited))
	if err != nil {
		t.Fatal(err)
	}
	wantSwap := map[string]bool{"stage_a": true, "pipe": true}
	if len(res.Swapped) != 2 || !wantSwap[res.Swapped[0]] || !wantSwap[res.Swapped[1]] {
		t.Errorf("swapped %v", res.Swapped)
	}
}

func TestParameterSpecializationKeys(t *testing.T) {
	src := `
module leaf #(parameter W = 4) (input [W-1:0] x, output [W-1:0] y);
  assign y = x + 1;
endmodule
module top ();
  wire [3:0] a, b;
  wire [7:0] c, d;
  leaf #(.W(4)) l4 (.x(a), .y(b));
  leaf #(.W(8)) l8 (.x(c), .y(d));
endmodule
`
	c := New("top", codegen.StyleGrouped, nil)
	res, err := c.Build(liveparser.Source{Files: map[string]string{"t.v": src}})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := res.Objects["leaf#W=4"]; !ok {
		t.Error("missing leaf#W=4")
	}
	if _, ok := res.Objects["leaf#W=8"]; !ok {
		t.Error("missing leaf#W=8")
	}
	if res.Stats.Compiled != 3 {
		t.Errorf("compiled %d", res.Stats.Compiled)
	}
}

func TestRemovedModules(t *testing.T) {
	c := New("pipe", codegen.StyleGrouped, nil)
	if _, err := c.Build(files(design)); err != nil {
		t.Fatal(err)
	}
	// Replace stage_b instantiation with stage_a; stage_b object vanishes.
	edited := strings.Replace(design, "stage_b b0", "stage_a b0", 1)
	edited = strings.Replace(edited, "module stage_b", "module stage_b_unused", 1)
	res, err := c.Build(files(edited))
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, r := range res.Removed {
		if r == "stage_b" {
			found = true
		}
	}
	if !found {
		t.Errorf("removed %v", res.Removed)
	}
}

func TestBuildErrorsPropagate(t *testing.T) {
	c := New("pipe", codegen.StyleGrouped, nil)
	if _, err := c.Build(files("module broken (")); err == nil {
		t.Fatal("want parse error")
	}
	if _, err := c.Build(files("module nottop (); endmodule")); err == nil {
		t.Fatal("want missing-top error")
	}
}

func TestOverrides(t *testing.T) {
	src := `
module m #(parameter W = 4) (input [W-1:0] x, output [W-1:0] y);
  assign y = x;
endmodule
`
	c := New("m", codegen.StyleGrouped, map[string]uint64{"W": 16})
	res, err := c.Build(liveparser.Source{Files: map[string]string{"t.v": src}})
	if err != nil {
		t.Fatal(err)
	}
	if res.TopKey != "m#W=16" {
		t.Errorf("top %q", res.TopKey)
	}
}

// TestPersistentObjectCache: a second compiler instance (a "new session")
// reuses the first one's on-disk objects instead of recompiling.
func TestPersistentObjectCache(t *testing.T) {
	dir := t.TempDir()
	c1 := New("pipe", codegen.StyleGrouped, nil)
	c1.SetObjectDir(dir)
	res1, err := c1.Build(files(design))
	if err != nil {
		t.Fatal(err)
	}
	if res1.Stats.Compiled != 3 || res1.Stats.DiskHits != 0 {
		t.Fatalf("first build stats %+v", res1.Stats)
	}

	c2 := New("pipe", codegen.StyleGrouped, nil)
	c2.SetObjectDir(dir)
	res2, err := c2.Build(files(design))
	if err != nil {
		t.Fatal(err)
	}
	if res2.Stats.Compiled != 0 || res2.Stats.DiskHits != 3 {
		t.Fatalf("second build stats %+v", res2.Stats)
	}
	for key, o1 := range res1.Objects {
		if res2.Objects[key].Hash() != o1.Hash() {
			t.Errorf("disk-loaded %s differs", key)
		}
	}

	// A corrupted object file falls back to compilation.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 3 {
		t.Fatalf("object files %d", len(entries))
	}
	bad := filepath.Join(dir, entries[0].Name())
	if err := os.WriteFile(bad, []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	c3 := New("pipe", codegen.StyleGrouped, nil)
	c3.SetObjectDir(dir)
	res3, err := c3.Build(files(design))
	if err != nil {
		t.Fatal(err)
	}
	if res3.Stats.Compiled != 1 || res3.Stats.DiskHits != 2 {
		t.Fatalf("corrupt-fallback stats %+v", res3.Stats)
	}
}

// TestObjectCacheKeyedOnCodegenVersion: objects another code generator
// version left in the object directory are recompiled, not loaded.
func TestObjectCacheKeyedOnCodegenVersion(t *testing.T) {
	a, err := liveparser.Analyze(files(design))
	if err != nil {
		t.Fatal(err)
	}
	srcs := map[string]*ast.Module{}
	for name, mi := range a.Modules {
		srcs[name] = mi.AST
	}
	d, err := elab.Elaborate(srcs, "pipe", nil)
	if err != nil {
		t.Fatal(err)
	}

	// The files an older binary would have left: valid objects for the same
	// sources, under keys that differ in the generator's version only.
	c := New("pipe", codegen.StyleGrouped, nil)
	c.SetObjectDir(t.TempDir())
	this := fmt.Sprintf("|gen=%d|", codegen.Version)
	for _, key := range d.Order {
		em := d.Modules[key]
		obj, err := codegen.Compile(em, codegen.Options{Style: codegen.StyleGrouped})
		if err != nil {
			t.Fatal(err)
		}
		ck := c.contentKey(a, em)
		// The key's spelling names the files of an existing object
		// directory: it is this format, however it is assembled.
		spelled := fmt.Sprintf("%s|gen=%d|style=%d|body=%x", em.Key, codegen.Version, codegen.StyleGrouped, a.Modules[em.Name].BodyHash)
		for _, inst := range em.Instances {
			spelled += fmt.Sprintf("|child=%s:%x", inst.ChildKey, a.Modules[inst.Child.Name].IfaceHash)
		}
		if ck != spelled {
			t.Fatalf("content key %q, want %q", ck, spelled)
		}
		if strings.Count(ck, this) != 1 {
			t.Fatalf("content key %q does not name the generator as %q", ck, this)
		}
		older := strings.Replace(ck, this, fmt.Sprintf("|gen=%d|", codegen.Version-1), 1)
		if err := os.WriteFile(c.objectFile(older), vm.EncodeObject(obj), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	res, err := c.Build(files(design))
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Compiled != 3 || res.Stats.DiskHits != 0 {
		t.Fatalf("build over another version's objects: %+v, want 3 compiled and no disk hit", res.Stats)
	}
	if entries, _ := os.ReadDir(c.objDir); len(entries) != 6 {
		t.Errorf("%d object files, want each version's 3 side by side", len(entries))
	}
}
