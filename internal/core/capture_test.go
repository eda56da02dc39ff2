package core

import (
	"errors"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"livesim/internal/sim"
)

// snapshotBomb counts Snapshot calls across every testbench its factory
// made and panics on the armed one (0 = never).
type snapshotBomb struct{ calls, at atomic.Int64 }

// bombTB is a CountingTB whose Snapshot goes through its bomb.
type bombTB struct {
	CountingTB
	bomb *snapshotBomb
}

func (tb *bombTB) Snapshot() []byte {
	if tb.bomb.calls.Add(1) == tb.bomb.at.Load() {
		panic("snapshot bomb")
	}
	return tb.CountingTB.Snapshot()
}

// bombStep drives the accumulator from the testbench's own step count,
// so a replay reaches the same state only with the testbench state the
// journal implies.
func bombStep(d *Driver, step uint64) error { return d.SetIn("d", step%5) }

// newBombSession is newAccSession with every checkpoint in `every` cycles
// and tb0 a bombTB whose Snapshot panics on call number at.
func newBombSession(t *testing.T, every uint64, at int64) (*Session, *snapshotBomb) {
	t.Helper()
	s := NewSession("acc_top", Config{CheckpointEvery: every, Lookback: every})
	if _, err := s.LoadDesign(srcOf(accDesign)); err != nil {
		t.Fatal(err)
	}
	bomb := &snapshotBomb{}
	bomb.at.Store(at)
	s.RegisterTestbench("tb0", func() Testbench { return &bombTB{CountingTB{OnStep: bombStep}, bomb} })
	if _, err := s.InstPipe("p0"); err != nil {
		t.Fatal(err)
	}
	return s, bomb
}

// TestRunSnapshotPanicIsAnError: a testbench Snapshot that panics at the
// second periodic checkpoint fails the run with an error; the journal
// holds the cycles the pipe really advanced, and replaying it lands on
// the same state.
func TestRunSnapshotPanicIsAnError(t *testing.T) {
	s, _ := newBombSession(t, 10, 2) // call 1: cycle 0, call 2: cycle 10
	err := s.Run("tb0", "p0", 50)
	if err == nil || !strings.Contains(err.Error(), "snapshot bomb") {
		t.Fatalf("run: %v, want the Snapshot panic as an error", err)
	}
	p := mustPipe(t, s, "p0")
	if c := p.Sim.Cycle(); c != 10 {
		t.Fatalf("pipe at cycle %d, want 10", c)
	}
	next := uint64(0)
	for _, op := range p.History {
		if op.StartCycle != next {
			t.Fatalf("history %+v: op starts at %d, want %d", p.History, op.StartCycle, next)
		}
		next += uint64(op.Cycles)
	}
	if next != p.Sim.Cycle() {
		t.Fatalf("history %+v adds up to %d cycles, pipe advanced %d", p.History, next, p.Sim.Cycle())
	}
	if h := s.Health(); h.TestbenchPanics != 1 {
		t.Errorf("health counts %d testbench panics, want 1", h.TestbenchPanics)
	}

	ref := newAccSession(t, accDesign)
	ref.RegisterTestbench("tb0", NewCountingTB(bombStep))
	if _, err := ref.InstPipe("p0"); err != nil {
		t.Fatal(err)
	}
	for _, op := range p.History {
		if err := ref.Run(op.TB, "p0", op.Cycles); err != nil {
			t.Fatal(err)
		}
	}
	rp := mustPipe(t, ref, "p0")
	if rp.Sim.Cycle() != p.Sim.Cycle() {
		t.Fatalf("replay reached cycle %d, pipe is at %d", rp.Sim.Cycle(), p.Sim.Cycle())
	}
	if ok, why := sim.StateEqual(rp.Sim.Snapshot(), p.Sim.Snapshot()); !ok {
		t.Errorf("replay state differs: %s", why)
	}
	// The pipe stays usable: the next run continues from cycle 10.
	if err := s.Run("tb0", "p0", 5); err != nil || p.Sim.Cycle() != 15 {
		t.Errorf("run after the panic: %v, cycle %d", err, p.Sim.Cycle())
	}
}

// TestCopyPipeSnapshotPanicIsAnError: a Snapshot panic while copying a
// pipe fails the copy and registers nothing.
func TestCopyPipeSnapshotPanicIsAnError(t *testing.T) {
	s, bomb := newBombSession(t, 0, 0)
	if err := s.Run("tb0", "p0", 5); err != nil {
		t.Fatal(err)
	}
	bomb.at.Store(bomb.calls.Load() + 1)
	if _, err := s.CopyPipe("p1", "p0"); err == nil || !strings.Contains(err.Error(), "snapshot bomb") {
		t.Fatalf("copypipe: %v, want the Snapshot panic as an error", err)
	}
	if _, ok := s.Pipe("p1"); ok {
		t.Error("failed copy registered p1")
	}
	if names := s.PipeNames(); !reflect.DeepEqual(names, []string{"p0"}) {
		t.Errorf("pipes %v, want [p0]", names)
	}
	if h := s.Health(); h.TestbenchPanics != 1 {
		t.Errorf("health counts %d testbench panics, want 1", h.TestbenchPanics)
	}
}

// TestCheckpointSnapshotPanicIsAnError: chkp and SaveCheckpoint fail on a
// Snapshot panic, write no file and leave the store as it was.
func TestCheckpointSnapshotPanicIsAnError(t *testing.T) {
	s, bomb := newBombSession(t, 10, 0)
	if err := s.Run("tb0", "p0", 20); err != nil {
		t.Fatal(err)
	}
	p := mustPipe(t, s, "p0")
	ids := func() []int {
		var out []int
		for _, cp := range p.Checkpoints.All() {
			out = append(out, cp.ID)
		}
		return out
	}
	before := ids()

	path := filepath.Join(t.TempDir(), "p0.lscp")
	bomb.at.Store(bomb.calls.Load() + 1)
	if err := s.SaveCheckpoint("p0", path); err == nil || !strings.Contains(err.Error(), "snapshot bomb") {
		t.Fatalf("save: %v, want the Snapshot panic as an error", err)
	}
	if _, err := os.Stat(path); !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("failed save left a file: %v", err)
	}
	bomb.at.Store(bomb.calls.Load() + 1)
	if _, err := s.Checkpoint("p0"); err == nil || !strings.Contains(err.Error(), "snapshot bomb") {
		t.Fatalf("chkp: %v, want the Snapshot panic as an error", err)
	}
	if after := ids(); !reflect.DeepEqual(after, before) {
		t.Errorf("store %v after the failed captures, was %v", after, before)
	}
	if h := s.Health(); h.TestbenchPanics != 2 {
		t.Errorf("health counts %d testbench panics, want 2", h.TestbenchPanics)
	}
}

// safeCallers are the only functions in this package that may call a
// Testbench method: each calls it under panic recovery.
var safeCallers = map[string]bool{"safeRun": true, "safeSnapshot": true, "safeRestore": true}

// typedCore parses and type-checks the non-test files of this package.
func typedCore(t *testing.T) (*token.FileSet, []*ast.File, *types.Info, *types.Package) {
	t.Helper()
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, ".", func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	var files []*ast.File
	for _, f := range pkgs["core"].Files {
		files = append(files, f)
	}
	// Imports come from the build cache's export data, which go list
	// names; type-checking them from source takes seconds.
	out, err := exec.Command("go", "list", "-export", "-deps", "-f", "{{.ImportPath}}={{.Export}}", ".").Output()
	if err != nil {
		t.Fatalf("go list: %v", err)
	}
	exports := make(map[string]string)
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		path, file, _ := strings.Cut(line, "=")
		exports[path] = file
	}
	info := &types.Info{Selections: make(map[*ast.SelectorExpr]*types.Selection)}
	conf := types.Config{Importer: importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		return os.Open(exports[path])
	})}
	pkg, err := conf.Check("livesim/internal/core", fset, files, info)
	if err != nil {
		t.Fatal(err)
	}
	return fset, files, info, pkg
}

// eachMethodCall calls f with every method selection in the package's
// functions but those skip names.
func eachMethodCall(files []*ast.File, info *types.Info, skip map[string]bool, f func(*ast.SelectorExpr, *types.Selection)) {
	for _, file := range files {
		for _, decl := range file.Decls {
			if fd, isFunc := decl.(*ast.FuncDecl); isFunc && skip[fd.Name.Name] {
				continue
			}
			ast.Inspect(decl, func(n ast.Node) bool {
				if se, ok := n.(*ast.SelectorExpr); ok {
					if sel := info.Selections[se]; sel != nil && sel.Kind() == types.MethodVal {
						f(se, sel)
					}
				}
				return true
			})
		}
	}
}

// TestTestbenchCallsRecoverPanics fails if a non-test file of this
// package calls a Testbench method outside safeCallers: testbench code is
// user code, and a panic in it must come back as an error.
func TestTestbenchCallsRecoverPanics(t *testing.T) {
	fset, files, info, pkg := typedCore(t)
	tb := pkg.Scope().Lookup("Testbench").Type().Underlying().(*types.Interface)
	isTestbench := func(recv types.Type) bool {
		return types.Implements(recv, tb) || types.Implements(types.NewPointer(recv), tb)
	}
	eachMethodCall(files, info, safeCallers, func(se *ast.SelectorExpr, sel *types.Selection) {
		if !isTestbench(sel.Recv()) {
			return
		}
		if m, _, _ := types.LookupFieldOrMethod(tb, false, nil, sel.Obj().Name()); m != nil {
			t.Errorf("%s: calls Testbench.%s outside safeRun, safeSnapshot and safeRestore",
				fset.Position(se.Sel.Pos()), sel.Obj().Name())
		}
	})
}

// TestOneRestoreRule fails if a non-test file of this package puts state
// into a kernel (sim.Sim's Restore, RestoreAdapted or PowerOn) anywhere
// but restoreStateLocked, the one rule that picks among them by the
// capture's version.
func TestOneRestoreRule(t *testing.T) {
	fset, files, info, _ := typedCore(t)
	restores := map[string]bool{"Restore": true, "RestoreAdapted": true, "PowerOn": true}
	eachMethodCall(files, info, map[string]bool{"restoreStateLocked": true}, func(se *ast.SelectorExpr, sel *types.Selection) {
		fn := sel.Obj().(*types.Func)
		if restores[fn.Name()] && fn.Pkg().Path() == "livesim/internal/sim" {
			t.Errorf("%s: calls sim.Sim.%s outside restoreStateLocked", fset.Position(se.Sel.Pos()), fn.Name())
		}
	})
}
