package livesim_test

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// The docs a reader runs commands from.
var referenceDocs = []string{"README.md", "DESIGN.md", "EXPERIMENTS.md"}

var (
	flagDecl  = regexp.MustCompile(`flag\.\w+\("([^"]+)"`)
	benchDecl = regexp.MustCompile(`(?m)^func (Benchmark\w*)\(`)
	// An lsbench command line: its flags, each with an optional value.
	lsbenchCmd = regexp.MustCompile(`lsbench((?:\s+-[a-z]\w*(?:[ =][0-9][\w.,]*)?)+)`)
	flagUse    = regexp.MustCompile(`-([a-z]\w*)`)
	benchUse   = regexp.MustCompile(`Benchmark\w*\*?`)
)

// TestDocReferences holds the docs' commands to the code: every
// `lsbench -<flag>` written in README.md, DESIGN.md or EXPERIMENTS.md
// is a flag cmd/lsbench declares, and every Benchmark<Name> is a
// benchmark some test file declares, or the prefix of one when written
// Benchmark<Prefix>*.
func TestDocReferences(t *testing.T) {
	flags := map[string]bool{}
	srcs, err := filepath.Glob("cmd/lsbench/*.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range srcs {
		if !strings.HasSuffix(path, "_test.go") {
			for _, m := range flagDecl.FindAllStringSubmatch(readFile(t, path), -1) {
				flags[m[1]] = true
			}
		}
	}
	var benches []string
	err = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
			return filepath.SkipDir
		}
		if strings.HasSuffix(path, "_test.go") {
			for _, m := range benchDecl.FindAllStringSubmatch(readFile(t, path), -1) {
				benches = append(benches, m[1])
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	benchExists := func(ref string) bool {
		prefix, wild := strings.CutSuffix(ref, "*")
		for _, b := range benches {
			if b == prefix || wild && strings.HasPrefix(b, prefix) {
				return true
			}
		}
		return false
	}

	for _, doc := range referenceDocs {
		text := readFile(t, doc)
		for _, cmd := range lsbenchCmd.FindAllStringSubmatch(text, -1) {
			for _, f := range flagUse.FindAllStringSubmatch(cmd[1], -1) {
				if !flags[f[1]] {
					t.Errorf("%s: %q names -%s, which lsbench does not declare", doc, strings.TrimSpace(cmd[0]), f[1])
				}
			}
		}
		seen := map[string]bool{}
		for _, ref := range benchUse.FindAllString(text, -1) {
			if !seen[ref] && !benchExists(ref) {
				t.Errorf("%s: %s matches no benchmark", doc, ref)
			}
			seen[ref] = true
		}
	}
}

func readFile(t *testing.T, path string) string {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}
