// Package liveparser implements the LiveParser of Section III-C: it
// watches source text, decides which modules an edit actually changed
// *behaviourally* (comment and whitespace edits are not changes), and
// computes the set of modules LiveCompiler must recompile.
//
// The rules follow the paper:
//
//   - an edit inside one module dirties that module only;
//   - a change to a module's interface (ports/parameters) additionally
//     dirties every module that instantiates it, because instantiation
//     binds ports positionally/by name at compile time;
//   - preprocessor directives act globally: the analysis preprocesses
//     each file first, so a `define edit automatically shows up as a
//     behavioural change in every module whose expanded text changed
//     ("this could affect any code below the affected lines").
//
// An Analyzer keeps the analysis of each file between snapshots, so the
// work of an analysis is that of the files whose bytes changed.
package liveparser

import (
	"fmt"
	"sort"

	"livesim/internal/hdl/ast"
	"livesim/internal/hdl/parser"
	"livesim/internal/hdl/preproc"
	"livesim/internal/hdl/token"
)

// Source is a snapshot of the design's source text.
type Source struct {
	// Files maps file names to contents. Iteration is sorted by name, so
	// duplicate module definitions resolve deterministically (and error).
	Files map[string]string
	// Defines seeds the preprocessor.
	Defines map[string]string
	// Include resolves `include directives.
	Include preproc.Includer
}

// ModuleInfo is the analyzed form of one module.
type ModuleInfo struct {
	Name string
	File string
	// AST is the parsed module (post-preprocessing).
	AST *ast.Module
	// BodyHash covers the whole module's behavioural token stream.
	BodyHash uint64
	// IfaceHash covers only the header (name, parameters, ports).
	IfaceHash uint64
	// MacroDeps lists macros the module's lines depended on.
	MacroDeps []string

	// children lists the distinct modules this one instantiates, in order
	// of first appearance.
	children []string
}

// Analysis is the result of analyzing one source snapshot.
type Analysis struct {
	Modules map[string]*ModuleInfo
	// Instantiates maps a module to the distinct modules it instantiates
	// (the slices are shared between analyses: read-only).
	Instantiates map[string][]string
	// InstantiatedBy is the reverse edge set.
	InstantiatedBy map[string][]string
	// FilesParsed and FilesReused count the snapshot's files that were
	// preprocessed and parsed for this analysis and those whose kept
	// analysis was still current.
	FilesParsed, FilesReused int
}

// Analyzer analyzes successive snapshots of one design. Per file name it
// keeps the analysis of the last two contents it saw — the current text and
// the one before it, so undoing an edit parses nothing — and reuses one
// when everything that analysis was a function of is byte-for-byte what it
// was: the file's text, Source.Defines, and the text of every path its
// preprocessing included, asked of Source.Include again. Entries are keyed
// by that content and nothing else, so an analysis that failed, or one the
// caller discarded, leaves nothing behind that a later snapshot could
// wrongly match. The zero value is an empty Analyzer.
//
// A reused analysis hands out the same *ModuleInfo and *ast.Module as
// before: both are shared between snapshots and must not be written to.
type Analyzer struct {
	files map[string][2]*fileAnalysis // [0] is the more recently used
}

// fileAnalysis is the analysis of one file and the inputs it depended on.
// The expanded text and the token slice are not kept.
type fileAnalysis struct {
	text     string
	defines  map[string]string
	includes []preproc.Include
	modules  []*ModuleInfo
}

// Analyze preprocesses and parses all files and fingerprints each module.
func Analyze(src Source) (*Analysis, error) {
	return new(Analyzer).Analyze(src)
}

// Analyze is the package-level Analyze that parses only the files whose
// kept analysis is out of date.
func (z *Analyzer) Analyze(src Source) (*Analysis, error) {
	a := &Analysis{
		Modules:        make(map[string]*ModuleInfo),
		Instantiates:   make(map[string][]string),
		InstantiatedBy: make(map[string][]string),
	}
	files := make([]string, 0, len(src.Files))
	for f := range src.Files {
		files = append(files, f)
	}
	sort.Strings(files)

	// One private copy of Defines serves every file parsed in this call;
	// the caller may change its map afterwards.
	var defines map[string]string
	for _, file := range files {
		fa := z.lookup(file, src)
		if fa != nil {
			a.FilesReused++
		} else {
			if defines == nil {
				defines = make(map[string]string, len(src.Defines))
				for k, v := range src.Defines {
					defines[k] = v
				}
			}
			var err error
			if fa, err = analyzeFile(file, src, defines); err != nil {
				return nil, err
			}
			if z.files == nil {
				z.files = make(map[string][2]*fileAnalysis)
			}
			z.files[file] = [2]*fileAnalysis{fa, z.files[file][0]}
			a.FilesParsed++
		}
		for _, info := range fa.modules {
			if prev, dup := a.Modules[info.Name]; dup {
				return nil, fmt.Errorf("module %s defined in both %s and %s", info.Name, prev.File, file)
			}
			a.Modules[info.Name] = info
			if len(info.children) > 0 {
				a.Instantiates[info.Name] = info.children
			}
			for _, child := range info.children {
				a.InstantiatedBy[child] = append(a.InstantiatedBy[child], info.Name)
			}
		}
	}
	for name := range z.files {
		if _, ok := src.Files[name]; !ok {
			delete(z.files, name)
		}
	}
	return a, nil
}

// lookup returns the kept analysis of file that is current for src, or nil.
func (z *Analyzer) lookup(file string, src Source) *fileAnalysis {
	gens := z.files[file]
	for i, fa := range gens {
		if fa == nil || !fa.current(src.Files[file], src) {
			continue
		}
		if i == 1 {
			z.files[file] = [2]*fileAnalysis{gens[1], gens[0]}
		}
		return fa
	}
	return nil
}

// current reports whether analyzing text under src would repeat fa:
// byte equality of every input, never a hash of it.
func (fa *fileAnalysis) current(text string, src Source) bool {
	if fa.text != text || len(fa.defines) != len(src.Defines) {
		return false
	}
	for k, v := range src.Defines {
		if old, ok := fa.defines[k]; !ok || old != v {
			return false
		}
	}
	for _, inc := range fa.includes {
		if src.Include == nil {
			return false
		}
		if now, err := src.Include(inc.Path); err != nil || now != inc.Text {
			return false
		}
	}
	return true
}

// analyzeFile preprocesses, lexes (once) and parses one file and
// fingerprints its modules from the parser's own tokens.
func analyzeFile(file string, src Source, defines map[string]string) (*fileAnalysis, error) {
	text := src.Files[file]
	res, err := preproc.Process(file, text, preproc.Options{
		Defines: src.Defines,
		Include: src.Include,
	})
	if err != nil {
		return nil, fmt.Errorf("preprocess %s: %w", file, err)
	}
	sf, toks, err := parser.ParseFileTokens(file, res.Text)
	if err != nil {
		return nil, fmt.Errorf("parse %s: %w", file, err)
	}
	fa := &fileAnalysis{text: text, defines: defines, includes: res.Includes}
	for i, m := range sf.Modules {
		info := &ModuleInfo{
			Name:      m.Name,
			File:      file,
			AST:       m,
			MacroDeps: macroDeps(res, m.Pos.Line, m.End.Line),
		}
		info.BodyHash, info.IfaceHash = fingerprint(toks[i])
		seen := map[string]bool{}
		for _, it := range m.Items {
			if inst, ok := it.(*ast.Instance); ok && !seen[inst.ModName] {
				seen[inst.ModName] = true
				info.children = append(info.children, inst.ModName)
			}
		}
		fa.modules = append(fa.modules, info)
	}
	return fa, nil
}

// FNV-1a, 64 bit: the function hash/fnv computes, written out so hashing a
// token allocates nothing.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// fingerprint hashes a module's tokens, `module` through `endmodule`, each
// as kind, text, NUL. Comments and whitespace never reach the parser's
// token stream, so they do not contribute. body is the hash of all of
// them; iface is its value after the `;` that closes the header, i.e. the
// hash of name, parameters and ports alone. Object cache keys and .lso
// file names are built from these values: they must not change.
func fingerprint(toks []token.Token) (body, iface uint64) {
	h := uint64(fnvOffset64)
	inHeader := true
	for i := range toks {
		t := &toks[i]
		h = (h ^ uint64(t.Kind)) * fnvPrime64
		for j := 0; j < len(t.Text); j++ {
			h = (h ^ uint64(t.Text[j])) * fnvPrime64
		}
		h *= fnvPrime64 // the NUL: h ^ 0
		if inHeader && t.Kind == token.Semi {
			iface, inHeader = h, false
		}
	}
	if inHeader {
		iface = h
	}
	return h, iface
}

func macroDeps(res *preproc.Result, fromLine, toLine int) []string {
	if len(res.LineDeps) == 0 {
		return nil // a file that uses no macro
	}
	seen := map[string]bool{}
	var out []string
	for line := fromLine; line <= toLine; line++ {
		for _, d := range res.LineDeps[line] {
			if !seen[d] {
				seen[d] = true
				out = append(out, d)
			}
		}
	}
	sort.Strings(out)
	return out
}

// Diff describes what changed between two analyzed snapshots.
type Diff struct {
	// BodyChanged lists modules whose behaviour changed but whose
	// interface did not.
	BodyChanged []string
	// IfaceChanged lists modules whose header changed.
	IfaceChanged []string
	// Added and Removed list modules that appear/disappear.
	Added, Removed []string
	// Dirty is the full recompilation set: changed modules plus the
	// parents of interface-changed or added/removed modules.
	Dirty []string
	// Reasons explains, per dirty module, why it must be recompiled.
	Reasons map[string]string
}

// NoChange reports whether the edit had no behavioural effect at all —
// the LiveParser fast path that skips LiveCompiler entirely.
func (d *Diff) NoChange() bool {
	return len(d.BodyChanged) == 0 && len(d.IfaceChanged) == 0 &&
		len(d.Added) == 0 && len(d.Removed) == 0
}

// Compare diffs two snapshots.
func Compare(oldA, newA *Analysis) *Diff {
	d := &Diff{Reasons: make(map[string]string)}
	dirty := map[string]bool{}
	mark := func(name, reason string) {
		if !dirty[name] {
			dirty[name] = true
			d.Reasons[name] = reason
		}
	}

	for name, ni := range newA.Modules {
		oi, ok := oldA.Modules[name]
		if !ok {
			d.Added = append(d.Added, name)
			mark(name, "module added")
			continue
		}
		if ni.IfaceHash != oi.IfaceHash {
			d.IfaceChanged = append(d.IfaceChanged, name)
			mark(name, "interface changed")
			continue
		}
		if ni.BodyHash != oi.BodyHash {
			d.BodyChanged = append(d.BodyChanged, name)
			mark(name, "behaviour changed")
		}
	}
	for name := range oldA.Modules {
		if _, ok := newA.Modules[name]; !ok {
			d.Removed = append(d.Removed, name)
		}
	}

	// Interface changes and added/removed modules dirty their
	// instantiating parents: the parents' compiled objects embed port
	// bindings and child object keys.
	var propagate []string
	propagate = append(propagate, d.IfaceChanged...)
	propagate = append(propagate, d.Added...)
	propagate = append(propagate, d.Removed...)
	for _, name := range propagate {
		for _, parent := range newA.InstantiatedBy[name] {
			mark(parent, "instantiates changed-interface module "+name)
		}
		for _, parent := range oldA.InstantiatedBy[name] {
			if _, stillThere := newA.Modules[parent]; stillThere {
				mark(parent, "instantiated removed/changed module "+name)
			}
		}
	}

	for name := range dirty {
		if _, exists := newA.Modules[name]; exists {
			d.Dirty = append(d.Dirty, name)
		}
	}
	sort.Strings(d.Dirty)
	sort.Strings(d.BodyChanged)
	sort.Strings(d.IfaceChanged)
	sort.Strings(d.Added)
	sort.Strings(d.Removed)
	return d
}

// DiffSources is the convenience entry point: analyze two source
// snapshots and compare them.
func DiffSources(oldSrc, newSrc Source) (*Diff, error) {
	oldA, err := Analyze(oldSrc)
	if err != nil {
		return nil, fmt.Errorf("old snapshot: %w", err)
	}
	newA, err := Analyze(newSrc)
	if err != nil {
		return nil, fmt.Errorf("new snapshot: %w", err)
	}
	return Compare(oldA, newA), nil
}
