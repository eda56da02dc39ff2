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
	fuzzDecl   = regexp.MustCompile(`(?m)^func (Fuzz\w*)\(\w+ \*testing\.F\)`)
	// One fuzz-smoke line: the target it fuzzes and the package.
	fuzzRun = regexp.MustCompile(`-fuzz=(Fuzz\w*)\s.*\s(\./\S+/)$`)
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
	eachTestFile(t, func(_, text string) {
		for _, m := range benchDecl.FindAllStringSubmatch(text, -1) {
			benches = append(benches, m[1])
		}
	})
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

// TestFuzzTargetsInSmoke holds the Makefile's fuzz-smoke target to the
// module's fuzz targets: each func Fuzz* has a line there fuzzing it in
// its own package, and each line fuzzes a target that exists.
func TestFuzzTargetsInSmoke(t *testing.T) {
	targets := map[string]bool{} // "name ./dir/"
	eachTestFile(t, func(path, text string) {
		for _, m := range fuzzDecl.FindAllStringSubmatch(text, -1) {
			targets[m[1]+" ./"+filepath.ToSlash(filepath.Dir(path))+"/"] = true
		}
	})
	if len(targets) == 0 {
		t.Fatal("no fuzz targets found")
	}
	_, smoke, _ := strings.Cut(readFile(t, "Makefile"), "\nfuzz-smoke:\n")
	smoked := map[string]bool{}
	for _, line := range strings.Split(smoke, "\n") {
		if !strings.HasPrefix(line, "\t") {
			break
		}
		m := fuzzRun.FindStringSubmatch(line)
		if m == nil {
			t.Errorf("Makefile fuzz-smoke: %q fuzzes no one target in one package", line)
			continue
		}
		smoked[m[1]+" "+m[2]] = true
		if !targets[m[1]+" "+m[2]] {
			t.Errorf("Makefile fuzz-smoke fuzzes %s in %s, which declares no such target", m[1], m[2])
		}
	}
	for target := range targets {
		if !smoked[target] {
			name, dir, _ := strings.Cut(target, " ")
			t.Errorf("%s in %s is missing from the Makefile's fuzz-smoke target", name, dir)
		}
	}
}

// eachTestFile calls f with the path and text of every test file in the
// module outside testdata and hidden directories.
func eachTestFile(t *testing.T, f func(path, text string)) {
	t.Helper()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
			return filepath.SkipDir
		}
		if strings.HasSuffix(path, "_test.go") {
			f(path, readFile(t, path))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
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
