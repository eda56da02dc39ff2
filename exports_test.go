package livesim_test

import (
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// modulePath is go.mod's module line; a directory d of the module is the
// package modulePath/d.
const modulePath = "livesim"

// modulePackages type-checks every non-test package of the module from
// source, the standard library included, with no go command.
type modulePackages struct {
	fset  *token.FileSet
	std   types.Importer
	pkgs  map[string]*types.Package
	infos map[*types.Package]*types.Info
	order []*types.Package
}

func (m *modulePackages) Import(path string) (*types.Package, error) {
	if path != modulePath && !strings.HasPrefix(path, modulePath+"/") {
		return m.std.Import(path)
	}
	if p := m.pkgs[path]; p != nil {
		return p, nil
	}
	dir := strings.TrimPrefix(strings.TrimPrefix(path, modulePath), "/")
	if dir == "" {
		dir = "."
	}
	names, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, name := range names {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(m.fset, name, nil, 0)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{Uses: map[*ast.Ident]types.Object{}, Types: map[ast.Expr]types.TypeAndValue{}}
	p, err := (&types.Config{Importer: m}).Check(path, m.fset, files, info)
	if err != nil {
		return nil, err
	}
	m.pkgs[path] = p
	m.infos[p] = info
	m.order = append(m.order, p)
	return p, nil
}

// loadModule type-checks every directory under the root that holds
// non-test Go files (bench/, cmd/ and examples/ included: they are users).
func loadModule(t *testing.T) *modulePackages {
	t.Helper()
	// Cgo files would need the cgo tool; the pure-Go variants type-check
	// the same API.
	ctxt := build.Default
	build.Default.CgoEnabled = false
	t.Cleanup(func() { build.Default = ctxt })
	fset := token.NewFileSet()
	m := &modulePackages{
		fset:  fset,
		std:   importer.ForCompiler(fset, "source", nil),
		pkgs:  map[string]*types.Package{},
		infos: map[*types.Package]*types.Info{},
	}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if path != "." && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
			return filepath.SkipDir
		}
		if names, _ := filepath.Glob(filepath.Join(path, "*.go")); len(names) == 0 {
			return nil
		}
		ip := modulePath
		if path != "." {
			ip += "/" + filepath.ToSlash(path)
		}
		_, err = m.Import(ip)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// exportScan is what the scan finds: the exported names no non-test code
// uses at all, and the number no non-test code uses outside the package
// that declares them.
type exportScan struct {
	unused     []string
	ownPkgOnly int
}

// errorsProtocol holds the interface literals errors.Is, As and Unwrap
// assert, which no scope names.
var errorsProtocol = func() *types.Package {
	const src = `package errorsprotocol
type unwrapper interface{ Unwrap() error }
type joined interface{ Unwrap() []error }
type iser interface{ Is(error) bool }
type aser interface{ As(any) bool }
`
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "errorsprotocol.go", src, 0)
	if err != nil {
		panic(err)
	}
	p, err := (&types.Config{}).Check("errorsprotocol", fset, []*ast.File{f}, nil)
	if err != nil {
		panic(err)
	}
	return p
}()

// scanExports lists the module's exported package-level names and
// exported methods. A method that some interface the module can name
// also declares is left out: it may be called through that interface,
// which leaves no trace in the uses. Struct fields are data, not API,
// and are left out too. Names are printed as dir.Name or
// dir.Type.Method, with internal/ dropped and the root package as
// livesim.
func scanExports(m *modulePackages) exportScan {
	used := map[types.Object]bool{}
	usedOutside := map[types.Object]bool{}
	origin := func(o types.Object) types.Object {
		switch o := o.(type) {
		case *types.Func:
			return o.Origin()
		case *types.Var:
			return o.Origin()
		}
		return o
	}
	// Interfaces by method name: every named interface in the module and
	// in the standard packages it imports, every interface literal the
	// module writes, error and the errors package's.
	ifaces := map[string][]*types.Interface{}
	addIface := func(it *types.Interface) {
		for i := 0; i < it.NumMethods(); i++ {
			ifaces[it.Method(i).Name()] = append(ifaces[it.Method(i).Name()], it)
		}
	}
	addScope := func(s *types.Scope) {
		for _, name := range s.Names() {
			if tn, ok := s.Lookup(name).(*types.TypeName); ok {
				if it, ok := tn.Type().Underlying().(*types.Interface); ok {
					addIface(it)
				}
			}
		}
	}
	addScope(types.Universe)
	addScope(errorsProtocol.Scope())
	stdSeen := map[*types.Package]bool{}
	for _, p := range m.order {
		info := m.infos[p]
		for _, o := range info.Uses {
			if o.Pkg() == nil || m.infos[o.Pkg()] == nil {
				continue
			}
			o = origin(o)
			used[o] = true
			if o.Pkg() != p {
				usedOutside[o] = true
			}
		}
		for _, tv := range info.Types {
			if it, ok := tv.Type.(*types.Interface); ok && tv.IsType() {
				addIface(it)
			}
		}
		addScope(p.Scope())
		for _, imp := range p.Imports() {
			if m.infos[imp] == nil && !stdSeen[imp] {
				stdSeen[imp] = true
				addScope(imp.Scope())
			}
		}
	}
	implements := func(recv types.Type, name string) bool {
		for _, it := range ifaces[name] {
			if types.Implements(recv, it) || types.Implements(types.NewPointer(recv), it) {
				return true
			}
		}
		return false
	}

	var scan exportScan
	check := func(p *types.Package, name string, o types.Object) {
		if !used[o] {
			dir := strings.TrimPrefix(strings.TrimPrefix(p.Path(), modulePath+"/"), "internal/")
			scan.unused = append(scan.unused, dir+"."+name)
		}
		if !usedOutside[o] && p.Name() != "main" {
			scan.ownPkgOnly++
		}
	}
	for _, p := range m.order {
		s := p.Scope()
		for _, name := range s.Names() {
			o := s.Lookup(name)
			if o.Exported() {
				check(p, name, o)
			}
			tn, ok := o.(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok {
				continue
			}
			if _, ok := named.Underlying().(*types.Interface); ok {
				continue
			}
			for i := 0; i < named.NumMethods(); i++ {
				if fn := named.Method(i); fn.Exported() && !implements(named, fn.Name()) {
					check(p, name+"."+fn.Name(), fn)
				}
			}
		}
	}
	sort.Strings(scan.unused)
	return scan
}

// TestExportsGolden pins the exported names that no non-test code in the
// module uses. Each such name has a stated reason below; one added
// without a reason shows up here as a diff, and needs a caller or a
// reason. One that gains a caller leaves the list.
func TestExportsGolden(t *testing.T) {
	scan := scanExports(loadModule(t))
	t.Logf("%d exported names with no non-test use, %d with none outside their own package", len(scan.unused), scan.ownPkgOnly)
	want := map[string]bool{}
	var reasons []string
	for _, g := range exportsGolden {
		for _, name := range strings.Fields(g.names) {
			want[name] = true
		}
		reasons = append(reasons, g.why)
	}
	var added []string
	for _, name := range scan.unused {
		if !want[name] {
			added = append(added, name)
		}
		delete(want, name)
	}
	if len(added) > 0 {
		t.Errorf("exported but used by no non-test code: %s\ngive each a caller, or add it to exportsGolden under one of these reasons or a new one:\n  %s",
			strings.Join(added, " "), strings.Join(reasons, "\n  "))
	}
	if len(want) > 0 {
		gone := make([]string, 0, len(want))
		for name := range want {
			gone = append(gone, name)
		}
		sort.Strings(gone)
		t.Errorf("in exportsGolden but now used or gone: %s; take them out", strings.Join(gone, " "))
	}
}

// TestUnimportedPackagesGolden pins the packages that no non-test code
// outside themselves imports: tests alone reach them. Each has a stated
// reason below; one added without a reason shows up here as a diff, and
// needs an importer, a reason or a move into the tests that use it.
func TestUnimportedPackagesGolden(t *testing.T) {
	m := loadModule(t)
	imported := map[*types.Package]bool{}
	for _, p := range m.order {
		for _, imp := range p.Imports() {
			imported[imp] = true
		}
	}
	var got []string
	for _, p := range m.order {
		if p.Name() != "main" && !imported[p] {
			got = append(got, strings.TrimPrefix(strings.TrimPrefix(p.Path(), modulePath+"/"), "internal/"))
		}
	}
	sort.Strings(got)
	var want []string
	for _, g := range unimportedGolden {
		want = append(want, strings.Fields(g.names)...)
	}
	sort.Strings(want)
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("packages no non-test code imports:\n got %s\nwant %s", strings.Join(got, " "), strings.Join(want, " "))
	}
}

var unimportedGolden = []struct{ why, names string }{
	{"ROADMAP item 2's AST round trip; today the incremental compiler's oracle prints every shared AST to see that no build writes to it", "hdl/printer"},
	{"the shared random design generator: the codegen, flatsim, livecompiler, sim and vm tests and fuzzers build their designs with it", "randrtl"},
}

var exportsGolden = []struct{ why, names string }{
	{"the library API: livesim.go and the Session methods it documents, used by examples/, cmd/ and TestFacadeEndToEnd", `
core.Session.Metrics livesim.NewCountingTB livesim.NewTracer
livesim.StyleGrouped livesim.StyleMux livesim.TraceUnder`},
	{"test seams: other packages' tests arm faults, crash and recover daemons, read daemon metrics and events, and build or inspect designs through these", `
faultinject.Plan.CorruptCheckpoint faultinject.Plan.CrashSaveAt
faultinject.Plan.DropConnAfter faultinject.Plan.DropReplStream
faultinject.Plan.FailCompileAt faultinject.Plan.FailWALSync
faultinject.Plan.Fired
faultinject.Plan.ForceDiskFree faultinject.Plan.ForcePromoteStale
faultinject.Plan.PanicTestbenchAt faultinject.Plan.SlowClient
faultinject.Plan.StallRunAt faultinject.Plan.TornWALWrite
gateway.Gateway.Events gateway.Gateway.Metrics server.Server.Events
server.Server.Halt server.Server.Metrics server.Server.WaitRecovered
hdl/parser.ParseExpr hdl/printer.Module
pgas.ReduceImages randrtl.Module riscv.Program.Bytes sim.PagedMem
sim.Sim.Counts sim.Sim.NumInstances vm.CheckEdge vm.Object.RegByName
xform.History.Versions`},
}
