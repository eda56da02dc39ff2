package catalogue_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"livesim/internal/catalogue"
)

// TestVerbSemanticsLiveInTheCatalogue fails if a non-test file of the
// session core, the server or the journal decides anything by a verb's
// name — a case clause or an ==/!= comparison against a string literal
// naming a catalogue verb. What a verb is (its place, cost, resend
// class, the pipe it changes, how replay treats it) is read from the
// catalogue, so that a new verb cannot be half-classified.
func TestVerbSemanticsLiveInTheCatalogue(t *testing.T) {
	verb := map[string]bool{}
	for _, v := range catalogue.Verbs(func(*catalogue.Verb) bool { return true }) {
		verb[v.Name] = true
	}
	named := func(e ast.Expr) (string, bool) {
		lit, ok := e.(*ast.BasicLit)
		if !ok || lit.Kind != token.STRING {
			return "", false
		}
		s, _ := strconv.Unquote(lit.Value)
		return s, verb[s]
	}
	fset := token.NewFileSet()
	for _, dir := range []string{"core", "server", "wal"} {
		err := filepath.WalkDir(filepath.Join("..", dir), func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return err
			}
			f, err := parser.ParseFile(fset, path, nil, 0)
			if err != nil {
				return err
			}
			ast.Inspect(f, func(n ast.Node) bool {
				var exprs []ast.Expr
				switch n := n.(type) {
				case *ast.CaseClause:
					exprs = n.List
				case *ast.BinaryExpr:
					if n.Op == token.EQL || n.Op == token.NEQ {
						exprs = []ast.Expr{n.X, n.Y}
					}
				}
				for _, e := range exprs {
					if name, ok := named(e); ok {
						t.Errorf("%s: decides by the verb name %q — read its catalogue entry", fset.Position(e.Pos()), name)
					}
				}
				return true
			})
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

// The replay facts recovery reads: which argument names the pipe a
// record changes, and which records the watermark fast path may skip.
func TestReplayFacts(t *testing.T) {
	for _, tc := range []struct {
		name   string
		args   []string
		pipe   string
		replay catalogue.Replay
	}{
		{"instpipe", []string{"p0"}, "", catalogue.Structural},
		{"run", []string{"tb0", "p0", "10"}, "p0", catalogue.Covered},
		{"poke", []string{"p0", "top.d", "1"}, "p0", catalogue.Covered},
		{"trace", []string{"tb0", "p0", "10", "w.vcd"}, "p0", catalogue.Reexec},
		{"ldch", []string{"p0", "f.lscp"}, "p0", catalogue.Reexec},
		{"copypipe", []string{"p1", "p0"}, "", catalogue.Reexec},
		{"apply", nil, "", catalogue.Reexec},
		{"run", []string{"tb0"}, "", catalogue.Covered}, // too short to name one
	} {
		v, ok := catalogue.Lookup(tc.name)
		if !ok {
			t.Fatalf("%s: not in the catalogue", tc.name)
		}
		if got := v.PipeOf(tc.args); got != tc.pipe {
			t.Errorf("%s %v: pipe %q, want %q", tc.name, tc.args, got, tc.pipe)
		}
		if v.Replay != tc.replay {
			t.Errorf("%s: replay class %d, want %d", tc.name, v.Replay, tc.replay)
		}
	}
}
