package liveparser

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
)

// step is one snapshot handed to a warm Analyzer and how many of its files
// that must parse; the others must be reused.
type step struct {
	name   string
	src    Source
	parsed int
}

// analyzeBoth analyzes one snapshot on z and holds the result, or the error
// text, against the stateless Analyze of the same snapshot. It returns the
// warm analysis, nil when the snapshot does not analyze.
func analyzeBoth(t *testing.T, z *Analyzer, st step) *Analysis {
	t.Helper()
	warm, werr := z.Analyze(st.src)
	cold, cerr := Analyze(st.src)
	if (werr == nil) != (cerr == nil) || (werr != nil && werr.Error() != cerr.Error()) {
		t.Fatalf("%s: warm error %v, cold error %v", st.name, werr, cerr)
	}
	if werr != nil {
		return nil
	}
	if reused := len(st.src.Files) - st.parsed; warm.FilesParsed != st.parsed || warm.FilesReused != reused {
		t.Errorf("%s: parsed %d reused %d, want %d and %d", st.name, warm.FilesParsed, warm.FilesReused, st.parsed, reused)
	}
	sameAnalysis(t, st.name, warm, cold)
	return warm
}

func runSteps(t *testing.T, steps []step) {
	t.Helper()
	var z Analyzer
	for _, st := range steps {
		analyzeBoth(t, &z, st)
	}
}

func sameAnalysis(t *testing.T, what string, got, want *Analysis) {
	t.Helper()
	if len(got.Modules) != len(want.Modules) {
		t.Fatalf("%s: %d modules, want %d", what, len(got.Modules), len(want.Modules))
	}
	for name, w := range want.Modules {
		g := got.Modules[name]
		if g == nil {
			t.Fatalf("%s: module %s missing", what, name)
		}
		if g.File != w.File || g.BodyHash != w.BodyHash || g.IfaceHash != w.IfaceHash || !reflect.DeepEqual(g.MacroDeps, w.MacroDeps) {
			t.Errorf("%s: module %s = {%s %x %x %v}, want {%s %x %x %v}", what, name,
				g.File, g.BodyHash, g.IfaceHash, g.MacroDeps, w.File, w.BodyHash, w.IfaceHash, w.MacroDeps)
		}
	}
	if !reflect.DeepEqual(got.Instantiates, want.Instantiates) || !reflect.DeepEqual(got.InstantiatedBy, want.InstantiatedBy) {
		t.Errorf("%s: instantiation graph %v / %v, want %v / %v", what, got.Instantiates, got.InstantiatedBy, want.Instantiates, want.InstantiatedBy)
	}
}

const (
	leafV  = "module leaf (input [7:0] d, output [7:0] q);\n  assign q = d + 1;\nendmodule\n"
	leafV2 = "module leaf (input [7:0] d, output [7:0] q);\n  assign q = d + 2;\nendmodule\n"
	leafV3 = "module leaf (input [7:0] d, output [7:0] q);\n  assign q = d + 3;\nendmodule\n"
	rootV  = "module root (input [7:0] in, output [7:0] out);\n  leaf l0 (.d(in), .q(out));\nendmodule\n"
)

func two(leaf, root string) Source {
	return Source{Files: map[string]string{"leaf.v": leaf, "root.v": root}}
}

// TestAnalyzerKeepsTwoGenerations: an edit parses the edited file, undoing
// it parses nothing, and so does redoing it; a third text pushes the oldest
// one out.
func TestAnalyzerKeepsTwoGenerations(t *testing.T) {
	runSteps(t, []step{
		{"cold", two(leafV, rootV), 2},
		{"same again", two(leafV, rootV), 0},
		{"edit", two(leafV2, rootV), 1},
		{"undo", two(leafV, rootV), 0},
		{"redo", two(leafV2, rootV), 0},
		{"third text", two(leafV3, rootV), 1},
		{"second text is still kept", two(leafV2, rootV), 0},
		{"first text is gone", two(leafV, rootV), 1},
	})
}

func TestAnalyzerReusesModuleInfo(t *testing.T) {
	var z Analyzer
	a1, err := z.Analyze(two(leafV, rootV))
	if err != nil {
		t.Fatal(err)
	}
	a2, err := z.Analyze(two(leafV2, rootV))
	if err != nil {
		t.Fatal(err)
	}
	if a1.Modules["root"] != a2.Modules["root"] || a1.Modules["root"].AST != a2.Modules["root"].AST {
		t.Error("the untouched file's module was analyzed again")
	}
	if a1.Modules["leaf"] == a2.Modules["leaf"] {
		t.Error("the edited file's module was not")
	}
}

// TestAnalyzerFilesComeAndGo: the memo is per file name, so a file added,
// removed or renamed with the same bytes, and a module moved from one file
// to another, are parsed where their positions now are.
func TestAnalyzerFilesComeAndGo(t *testing.T) {
	both := Source{Files: map[string]string{"all.v": leafV + rootV}}
	runSteps(t, []step{
		{"cold", two(leafV, rootV), 2},
		{"renamed", Source{Files: map[string]string{"leaf2.v": leafV, "root.v": rootV}}, 1},
		{"renamed back", two(leafV, rootV), 1},
		{"root removed", Source{Files: map[string]string{"leaf.v": leafV}}, 0},
		{"root back", two(leafV, rootV), 1},
		{"one file", both, 1},
		{"leaf moved out", Source{Files: map[string]string{"all.v": rootV, "leaf.v": leafV}}, 2},
		{"defined twice", Source{Files: map[string]string{"all.v": leafV + rootV, "leaf.v": leafV}}, 0},
		{"and once again", both, 0},
	})
}

// TestAnalyzerDefinesAndIncludes: a kept analysis depends on the seed
// defines and on what its includes resolve to, not only on the file.
func TestAnalyzerDefinesAndIncludes(t *testing.T) {
	files := map[string]string{
		"leaf.v": "`include \"inc.vh\"\nmodule leaf (input [7:0] d, output [7:0] q);\n  assign q = d + `INC;\nendmodule\n",
		"root.v": "module root (input [`W-1:0] in, output [`W-1:0] out);\n  leaf l0 (.d(in), .q(out));\nendmodule\n",
	}
	inc := "`define INC 1"
	defines := map[string]string{"W": "8"}
	src := Source{Files: files, Defines: defines, Include: func(path string) (string, error) {
		if path != "inc.vh" || inc == "" {
			return "", fmt.Errorf("no %s", path)
		}
		return inc, nil
	}}

	var z Analyzer
	check := func(what string, parsed int) *Analysis {
		t.Helper()
		return analyzeBoth(t, &z, step{what, src, parsed})
	}
	base := check("cold", 2)
	check("nothing changed", 0)

	inc = "`define INC 2"
	a := check("include text changed", 1)
	if a.Modules["leaf"].BodyHash == base.Modules["leaf"].BodyHash {
		t.Error("the new include text did not reach the module")
	}
	inc = ""
	check("include gone", 0) // an error, the same one as cold
	inc = "`define INC 2"
	check("include back", 0)

	// The caller changes its Defines map in place.
	defines["W"] = "16"
	a = check("define value changed", 2)
	if a.Modules["root"].IfaceHash == base.Modules["root"].IfaceHash {
		t.Error("the new define value did not reach the module")
	}
	defines["UNUSED"] = ""
	check("define added", 2)
	delete(defines, "UNUSED")
	check("define removed", 0) // the generation before
}

// TestAnalyzerSurvivesErrors: a snapshot that fails leaves nothing behind
// that the fix, or the snapshot before it, could wrongly match.
func TestAnalyzerSurvivesErrors(t *testing.T) {
	broken := strings.Replace(leafV, "assign q = d + 1;", "assign q = d + ;", 1)
	runSteps(t, []step{
		{"cold", two(leafV, rootV), 2},
		{"syntax error", two(broken, rootV), 0},
		{"the snapshot before", two(leafV, rootV), 0},
		{"syntax error again", two(broken, rootV), 0},
		{"fixed", two(leafV2, rootV), 1},
	})
}
