package sim

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"
)

// layoutReaders are the only functions outside vm, sim and flatsim that
// may select .Slots, .MemBases or .Mems, by package directory and
// function name ("" for the whole package), each with why.
var layoutReaders = map[string]map[string]string{
	"internal/codegen": {"": "builds an object's memory table, which is metadata, not instance state"},
	"internal/xform":   {"NewPlan": "pairs the two objects' memory tables by name"},
	"internal/checkpoint": {
		"stateSize":   "sizes the LSCP state record",
		"appendState": "writes the LSCP state record",
		"decodeState": "reads the LSCP state record, in either layout",
	},
}

// TestOneOwnerOfTheSlotLayout fails if a non-test file outside vm, sim
// and flatsim selects .Slots, .MemBases or .Mems outside layoutReaders:
// everything else hands sim objects, ops and plans, so that a change to
// how instance state is laid out is a change to vm and sim alone.
func TestOneOwnerOfTheSlotLayout(t *testing.T) {
	root := filepath.Join("..", "..")
	owners := map[string]bool{"internal/vm": true, "internal/sim": true, "internal/flatsim": true}
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		rel = filepath.ToSlash(rel)
		if d.IsDir() {
			if owners[rel] || strings.HasPrefix(d.Name(), ".") && rel != "." {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		allowed := layoutReaders[filepath.ToSlash(filepath.Dir(rel))]
		if _, all := allowed[""]; all {
			return nil
		}
		for _, decl := range f.Decls {
			fn := ""
			if fd, ok := decl.(*ast.FuncDecl); ok {
				fn = fd.Name.Name
			}
			if _, ok := allowed[fn]; ok && fn != "" {
				continue
			}
			ast.Inspect(decl, func(n ast.Node) bool {
				if sel, ok := n.(*ast.SelectorExpr); ok {
					switch sel.Sel.Name {
					case "Slots", "MemBases", "Mems":
						t.Errorf("%s: selects .%s — instance state is read and written through internal/sim",
							fset.Position(sel.Sel.Pos()), sel.Sel.Name)
					}
				}
				return true
			})
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
