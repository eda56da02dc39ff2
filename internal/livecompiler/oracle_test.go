package livecompiler_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"livesim/internal/codegen"
	"livesim/internal/hdl/ast"
	"livesim/internal/hdl/printer"
	"livesim/internal/livecompiler"
	"livesim/internal/liveparser"
	"livesim/internal/pgas"
	"livesim/internal/randrtl"
)

// oracle walks one incremental Compiler through a sequence of snapshots and
// holds every build against compilers that have never seen anything: a
// fresh Compiler's Build of the snapshot for TopKey, the key set and every
// object's Hash, and — for what depends on the predecessor — the fresh
// builds and stateless analyses of both snapshots for Swapped, Removed and
// Diff. Nothing the expectation is made from has a memo. It also holds
// that a build writes to no AST it shares with the builds before it: every
// module that is the same *ast.Module as at an earlier step still prints
// as it did when first seen.
type oracle struct {
	t   *testing.T
	top string
	inc *livecompiler.Compiler
	// printed is printer.Module of every AST inc has built from.
	printed map[*ast.Module]string

	// The last snapshot that built, cold: what inc's next build diffs against.
	prev  *livecompiler.Result
	prevA *liveparser.Analysis
}

func newOracle(t *testing.T, top string) *oracle {
	return &oracle{t: t, top: top, inc: livecompiler.New(top, codegen.StyleGrouped, nil), printed: map[*ast.Module]string{}}
}

// step builds cur incrementally and checks it. A snapshot that does not
// build must fail with the cold build's error text and leave the
// predecessor in place. It returns the incremental result (nil on error).
func (o *oracle) step(what string, cur liveparser.Source) *livecompiler.Result {
	o.t.Helper()
	got, gerr := o.inc.Build(cur)
	cold, cerr := livecompiler.New(o.top, codegen.StyleGrouped, nil).Build(cur)
	if (gerr == nil) != (cerr == nil) || (gerr != nil && gerr.Error() != cerr.Error()) {
		o.t.Fatalf("%s: incremental error %v, cold error %v", what, gerr, cerr)
	}
	if gerr != nil {
		return nil
	}
	if got.TopKey != cold.TopKey {
		o.t.Errorf("%s: top %s, cold %s", what, got.TopKey, cold.TopKey)
	}
	if len(got.Objects) != len(cold.Objects) {
		o.t.Errorf("%s: %d objects, cold %d", what, len(got.Objects), len(cold.Objects))
	}
	for key, c := range cold.Objects {
		if g := got.Objects[key]; g == nil {
			o.t.Errorf("%s: no object %s", what, key)
		} else if g.Hash() != c.Hash() {
			o.t.Errorf("%s: object %s differs from the cold build's", what, key)
		}
	}

	curA, err := liveparser.Analyze(cur)
	if err != nil {
		o.t.Fatal(err)
	}
	var swapped, removed []string
	var diff *liveparser.Diff
	for key, c := range cold.Objects {
		if o.prev == nil || o.prev.Objects[key] == nil || o.prev.Objects[key].Hash() != c.Hash() {
			swapped = append(swapped, key)
		}
	}
	if o.prev != nil {
		for key := range o.prev.Objects {
			if cold.Objects[key] == nil {
				removed = append(removed, key)
			}
		}
		diff = liveparser.Compare(o.prevA, curA)
	}
	sort.Strings(swapped)
	sort.Strings(removed)
	if !reflect.DeepEqual(got.Swapped, swapped) || !reflect.DeepEqual(got.Removed, removed) {
		o.t.Errorf("%s: swapped %v removed %v, want %v and %v", what, got.Swapped, got.Removed, swapped, removed)
	}
	if !reflect.DeepEqual(got.Diff, diff) {
		o.t.Errorf("%s: diff %+v, want %+v", what, got.Diff, diff)
	}
	o.prev, o.prevA = cold, curA

	for name, m := range o.inc.ASTs() {
		now := printer.Module(m)
		if was, seen := o.printed[m]; !seen {
			o.printed[m] = now
		} else if was != now {
			o.t.Errorf("%s: the shared AST of %s was written to", what, name)
		}
	}
	return got
}

// pgasState is the PGAS source with the catalogue changes of mask applied.
func pgasState(t *testing.T, n int, mask uint) liveparser.Source {
	t.Helper()
	src := pgas.Source(n)
	for i, ch := range pgas.Changes {
		if mask&(1<<i) != 0 {
			var err error
			if src, err = ch.Apply(src); err != nil {
				t.Fatal(err)
			}
		}
	}
	return src
}

// TestIncrementalEqualsColdPGAS: seeded random walks over the whole change
// catalogue — behavioural and comment-only, applied and reverted in any
// order, sometimes two in one snapshot — at 1x1 and 4x4.
func TestIncrementalEqualsColdPGAS(t *testing.T) {
	for _, c := range []struct {
		nodes, steps int
		seeds        []int64
	}{{1, 30, []int64{1, 2, 3}}, {16, 14, []int64{4}}} {
		for _, seed := range c.seeds {
			c, seed := c, seed
			t.Run(fmt.Sprintf("%dnodes/seed%d", c.nodes, seed), func(t *testing.T) {
				rng := rand.New(rand.NewSource(seed))
				o := newOracle(t, pgas.TopName(c.nodes))
				mask := uint(0)
				o.step("base", pgasState(t, c.nodes, mask))
				for i := 0; i < c.steps; i++ {
					mask ^= 1 << rng.Intn(len(pgas.Changes))
					if rng.Intn(4) == 0 {
						mask ^= 1 << rng.Intn(len(pgas.Changes))
					}
					o.step(fmt.Sprintf("step %d (changes %06b)", i, mask), pgasState(t, c.nodes, mask))
				}
			})
		}
	}
}

// randHier is a three-level design of randrtl leaves: top -> mid0, mid1,
// midK -> leaf(2K), leaf(2K+1), one module per file. seeds[i] draws leaf i.
func randHier(seeds [4]uint64) liveparser.Source {
	files := map[string]string{}
	const ports = "(input clk, input [7:0] a, b, c, output [7:0] o0, o1, o2, o3);\n"
	inst := func(mod, name, a, b, c, o string) string {
		return fmt.Sprintf("  %s %s (.clk(clk), .a(%s), .b(%s), .c(%s), .o0(%s0), .o1(%s1), .o2(%s2), .o3(%s3));\n",
			mod, name, a, b, c, o, o, o, o)
	}
	for i, seed := range seeds {
		name := fmt.Sprintf("leaf%d", i)
		files[name+".v"] = randrtl.Module(seed, name, 8)
	}
	for k := 0; k < 2; k++ {
		files[fmt.Sprintf("mid%d.v", k)] = fmt.Sprintf("module mid%d ", k) + ports +
			"  wire [7:0] x0, x1, x2, x3;\n" +
			inst(fmt.Sprintf("leaf%d", 2*k), "u0", "a", "b", "c", "x") +
			inst(fmt.Sprintf("leaf%d", 2*k+1), "u1", "x0", "x1 ^ c", "x2 & x3", "o") +
			"endmodule\n"
	}
	files["top.v"] = "module top " + ports +
		"  wire [7:0] y0, y1, y2, y3;\n" +
		inst("mid0", "m0", "a", "b", "c", "y") +
		inst("mid1", "m1", "y0", "y1", "y2 | y3", "o") +
		"endmodule\n"
	return liveparser.Source{Files: files}
}

// TestIncrementalEqualsColdRandom: random hierarchies in which one module's
// text at a time is drawn again from another seed, or from the seed before.
func TestIncrementalEqualsColdRandom(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			seeds := [4]uint64{rng.Uint64(), rng.Uint64(), rng.Uint64(), rng.Uint64()}
			before := seeds
			o := newOracle(t, "top")
			o.step("base", randHier(seeds))
			for i := 0; i < 20; i++ {
				leaf := rng.Intn(len(seeds))
				if rng.Intn(3) == 0 {
					seeds[leaf], before[leaf] = before[leaf], seeds[leaf]
				} else {
					seeds[leaf], before[leaf] = rng.Uint64(), seeds[leaf]
				}
				o.step(fmt.Sprintf("step %d (leaf%d)", i, leaf), randHier(seeds))
			}
		})
	}
}

// The design of the stale-memo cases: one module per file.
const (
	stageA = "module stage_a (input clk, input [7:0] d, output reg [7:0] q);\n  always @(posedge clk) q <= d + 1;\nendmodule\n"
	stageB = "module stage_b #(parameter K = 2) (input clk, input [7:0] d, output reg [7:0] q);\n  always @(posedge clk) q <= d * K;\nendmodule\n"
	pipeV  = "module pipe (input clk, input [7:0] in, output [7:0] out);\n  wire [7:0] mid;\n  stage_a a0 (.clk(clk), .d(in), .q(mid));\n  stage_b b0 (.clk(clk), .d(mid), .q(out));\nendmodule\n"
)

func three(a, b, pipe string) liveparser.Source {
	return liveparser.Source{Files: map[string]string{"a.v": a, "b.v": b, "pipe.v": pipe}}
}

// TestIncrementalEqualsColdWhereAMemoGoesStale: the edits that change what
// a kept analysis or elaboration depended on without touching the bytes it
// is keyed by, or that move a module out from under its key.
func TestIncrementalEqualsColdWhereAMemoGoesStale(t *testing.T) {
	base := three(stageA, stageB, pipeV)

	t.Run("file added, removed, renamed with identical bytes", func(t *testing.T) {
		o := newOracle(t, "pipe")
		o.step("base", base)
		extra := "module extra (input x, output y);\n  assign y = x;\nendmodule\n"
		o.step("file added", liveparser.Source{Files: map[string]string{"a.v": stageA, "b.v": stageB, "pipe.v": pipeV, "extra.v": extra}})
		o.step("file removed", base)
		o.step("file renamed", liveparser.Source{Files: map[string]string{"a2.v": stageA, "b.v": stageB, "pipe.v": pipeV}})
		o.step("renamed back", base)
	})

	t.Run("module moved between files", func(t *testing.T) {
		o := newOracle(t, "pipe")
		o.step("base", base)
		o.step("stage_a moved into b.v", liveparser.Source{Files: map[string]string{"b.v": stageB + stageA, "pipe.v": pipeV}})
		o.step("and into pipe.v", liveparser.Source{Files: map[string]string{"b.v": stageB, "pipe.v": stageA + pipeV}})
		o.step("and back", base)
	})

	t.Run("module defined in two files", func(t *testing.T) {
		o := newOracle(t, "pipe")
		o.step("base", base)
		if o.step("stage_a twice", three(stageA, stageB+stageA, pipeV)) != nil {
			t.Error("a module defined in two files built")
		}
		o.step("once again", base)
	})

	t.Run("define value changed, files untouched", func(t *testing.T) {
		src := three(stageA, strings.Replace(stageB, "d * K", "d * `FACTOR", 1), pipeV)
		src.Defines = map[string]string{"FACTOR": "2"}
		o := newOracle(t, "pipe")
		o.step("base", src)
		src.Defines["FACTOR"] = "3" // in place: the compiler may not hold on to the map
		if res := o.step("FACTOR=3", src); !reflect.DeepEqual(res.Swapped, []string{"stage_b#K=2"}) {
			t.Errorf("swapped %v", res.Swapped)
		}
		src.Defines["FACTOR"] = "2"
		o.step("FACTOR=2", src)
	})

	t.Run("included file changed, files untouched", func(t *testing.T) {
		src := three("`include \"inc.vh\"\n"+strings.Replace(stageA, "d + 1", "d + `INC", 1), stageB, pipeV)
		inc := "`define INC 1"
		src.Include = func(path string) (string, error) {
			if path != "inc.vh" {
				return "", fmt.Errorf("no file %s", path)
			}
			return inc, nil
		}
		o := newOracle(t, "pipe")
		o.step("base", src)
		inc = "`define INC 5"
		if res := o.step("INC=5", src); !reflect.DeepEqual(res.Swapped, []string{"stage_a"}) {
			t.Errorf("swapped %v", res.Swapped)
		}
		inc = "`define INC 1 // as before"
		o.step("INC=1", src)
	})

	t.Run("parameter default changes specialization keys", func(t *testing.T) {
		o := newOracle(t, "pipe")
		o.step("base", base)
		res := o.step("K=3", three(stageA, strings.Replace(stageB, "K = 2", "K = 3", 1), pipeV))
		if !reflect.DeepEqual(res.Removed, []string{"stage_b#K=2"}) || res.Objects["stage_b#K=3"] == nil {
			t.Errorf("removed %v, objects %v", res.Removed, len(res.Objects))
		}
		o.step("K=2", base)
	})

	t.Run("port added to a child", func(t *testing.T) {
		o := newOracle(t, "pipe")
		o.step("base", base)
		withEn := strings.Replace(stageA, "input clk,", "input clk, input en,", 1)
		withEn = strings.Replace(withEn, "q <= d + 1;", "if (en) q <= d + 1;", 1)
		// The new port is left unconnected: pipe.v's bytes are untouched, and
		// pipe must be elaborated and compiled again all the same.
		res := o.step("en added", three(withEn, stageB, pipeV))
		if !reflect.DeepEqual(res.Swapped, []string{"pipe", "stage_a"}) || res.Stats.Compiled != 2 || res.Stats.FilesParsed != 1 {
			t.Errorf("swapped %v, stats %+v", res.Swapped, res.Stats)
		}
		o.step("en removed", base)
		o.step("a port narrowed", three(strings.Replace(stageA, "input [7:0] d", "input [3:0] d", 1), stageB, pipeV))
	})

	t.Run("syntax error, then the fix", func(t *testing.T) {
		o := newOracle(t, "pipe")
		o.step("base", base)
		if o.step("broken", three(strings.Replace(stageA, "d + 1", "d + ", 1), stageB, pipeV)) != nil {
			t.Error("a syntax error built")
		}
		if o.step("does not elaborate", three(stageA, stageB, strings.Replace(pipeV, "stage_b b0", "stage_c b0", 1))) != nil {
			t.Error("a missing module built")
		}
		res := o.step("fixed", three(strings.Replace(stageA, "d + 1", "d + 2", 1), stageB, pipeV))
		if !reflect.DeepEqual(res.Swapped, []string{"stage_a"}) {
			t.Errorf("swapped %v", res.Swapped)
		}
	})
}

// above counts the specializations from which key is reachable, itself
// included: what an edit of key's module has to elaborate again.
func above(res *livecompiler.Result, key string) int {
	reaches := map[string]bool{key: true}
	for changed := true; changed; {
		changed = false
		for k, obj := range res.Objects {
			for _, ch := range obj.Children {
				if reaches[ch.ObjectKey] && !reaches[k] {
					reaches[k], changed = true, true
				}
			}
		}
	}
	return len(reaches)
}

// TestRebuildCounts is what "O(changed file)" means in counts, and they do
// not depend on the mesh: a one-stage edit parses one file, elaborates the
// specializations from that stage up to the top and compiles one; undoing
// it parses and compiles nothing; a comment-only edit parses one file and
// elaborates nothing.
func TestRebuildCounts(t *testing.T) {
	for _, n := range []int{1, 16, 64, 256} {
		n := n
		t.Run(fmt.Sprint(n), func(t *testing.T) {
			base, edited := stageEdit(t, n)
			comment, err := pgas.Changes[1].Apply(base)
			if err != nil {
				t.Fatal(err)
			}
			if pgas.Changes[1].Behavioral || pgas.Changes[0].Stage != "stage_ex" {
				t.Fatal("the catalogue moved")
			}
			c := livecompiler.New(pgas.TopName(n), codegen.StyleGrouped, nil)
			cold, err := c.Build(base)
			if err != nil {
				t.Fatal(err)
			}
			if st := cold.Stats; st.FilesParsed != len(base.Files) || st.Elaborated != len(cold.Objects) || st.Compiled != len(cold.Objects) {
				t.Errorf("cold build: %+v for %d files, %d specializations", st, len(base.Files), len(cold.Objects))
			}
			path := above(cold, "stage_ex")
			if path != 4 { // stage_ex, rv_core, pgas_node, the top
				t.Errorf("%d specializations from stage_ex up", path)
			}

			check := func(what string, src liveparser.Source, parsed, elaborated, compiled int) {
				t.Helper()
				res, err := c.Build(src)
				if err != nil {
					t.Fatal(err)
				}
				st := res.Stats
				if st.FilesParsed != parsed || st.FilesReused != len(src.Files)-parsed || st.Elaborated != elaborated || st.Compiled != compiled {
					t.Errorf("%s: %d files parsed, %d reused, %d elaborated, %d compiled; want %d, %d, %d, %d",
						what, st.FilesParsed, st.FilesReused, st.Elaborated, st.Compiled, parsed, len(src.Files)-parsed, elaborated, compiled)
				}
				if st.CacheHits+st.Compiled != len(res.Objects) {
					t.Errorf("%s: %d cache hits + %d compiled for %d objects", what, st.CacheHits, st.Compiled, len(res.Objects))
				}
			}
			check("stage edit", edited, 1, path, 1)
			check("its revert", base, 0, path, 0)
			check("comment-only edit", comment, 1, 0, 0)
			check("its revert", base, 0, 0, 0)
			// stage_ex.v has had three texts: the edit's is no longer one of
			// the two kept, its object is still in the cache.
			check("stage edit again", edited, 1, path, 0)
		})
	}
}
