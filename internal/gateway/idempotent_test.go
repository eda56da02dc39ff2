package gateway_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"strconv"
	"testing"

	"livesim/internal/command"
	"livesim/internal/server/client"
)

// caseStrings returns every string literal that appears in a case clause
// of the named function in a Go source file.
func caseStrings(t *testing.T, file, fn string) map[string]bool {
	t.Helper()
	f, err := parser.ParseFile(token.NewFileSet(), file, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]bool{}
	for _, d := range f.Decls {
		fd, ok := d.(*ast.FuncDecl)
		if !ok || fd.Name.Name != fn {
			continue
		}
		ast.Inspect(fd, func(n ast.Node) bool {
			if cc, ok := n.(*ast.CaseClause); ok {
				for _, e := range cc.List {
					if lit, ok := e.(*ast.BasicLit); ok && lit.Kind == token.STRING {
						s, _ := strconv.Unquote(lit.Value)
						out[s] = true
					}
				}
			}
			return true
		})
	}
	if len(out) == 0 {
		t.Fatalf("no string cases found in %s of %s", fn, file)
	}
	return out
}

// Every verb the gateway answers itself — each case of handle's switch —
// must be classified by client.Idempotent on purpose: named in its
// switch, or a command-table verb whose Mutates flag decides. `backends`
// was forgotten, so it failed across a reconnect instead of being resent.
func TestEveryGatewayVerbIsClassified(t *testing.T) {
	classified := caseStrings(t, "../server/client/client.go", "Idempotent")
	for v := range caseStrings(t, "gateway.go", "handle") {
		if _, inTable := command.Lookup(v); !inTable && !classified[v] {
			t.Errorf("gateway verb %q is not classified in client.Idempotent", v)
		}
	}
	if !client.Idempotent("backends") || client.Idempotent("migrate") {
		t.Error("backends must be resendable, migrate must not")
	}
}
