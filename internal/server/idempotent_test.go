package server_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"slices"
	"sort"
	"strconv"
	"testing"

	"livesim/internal/command"
	"livesim/internal/server"
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

// Every verb the server answers must be classified by client.Idempotent
// on purpose — named in its switch — not by falling through to "not
// resendable": `spans` was forgotten that way, so a spans call in flight
// across a reconnect failed instead of being resent.
func TestEveryServerVerbIsClassified(t *testing.T) {
	classified := caseStrings(t, "client/client.go", "Idempotent")
	verbs := server.WireVerbs()
	sort.Strings(verbs)
	for _, v := range verbs {
		if _, ok := command.Lookup(v); ok {
			t.Errorf("%q is both a server verb and a command-table verb", v)
		}
		if !classified[v] {
			t.Errorf("server verb %q is not classified in client.Idempotent", v)
		}
	}
	for _, v := range []string{"ping", "sessions", "spans", "backends"} {
		if !client.Idempotent(v) {
			t.Errorf("read-only verb %q must be resendable", v)
		}
	}
	for _, v := range []string{"create", "close", "import", "drain", "replicate", "replapply", "promote"} {
		if client.Idempotent(v) {
			t.Errorf("verb %q must not be resendable", v)
		}
	}
	// And the other way: every verb the switch names is still answered by
	// the server or the gateway, so a verb removed from both leaves no
	// stale entry.
	gatewayVerbs := caseStrings(t, "../gateway/gateway.go", "handle")
	for v := range classified {
		if !slices.Contains(verbs, v) && !gatewayVerbs[v] {
			t.Errorf("client.Idempotent classifies %q, which no server or gateway answers", v)
		}
	}
}
