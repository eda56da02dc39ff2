package xform

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"livesim/internal/vm"
)

func TestHistoryLinearPath(t *testing.T) {
	h := NewHistory("1.0")
	if err := h.Add("1.1", "1.0", map[string][]Op{"m": {{Kind: Create, Name: "newR"}}}); err != nil {
		t.Fatal(err)
	}
	if err := h.Add("1.2", "1.1", map[string][]Op{"m": {{Kind: Rename, Name: "someR", NewName: "newR2"}}}); err != nil {
		t.Fatal(err)
	}
	ops, err := h.PathOps("m", "1.0", "1.2")
	if err != nil {
		t.Fatal(err)
	}
	if len(ops) != 2 || ops[0].Kind != Create || ops[1].Kind != Rename {
		t.Fatalf("ops %v", ops)
	}
	// Ops are per object: another object's path is empty.
	if ops, err := h.PathOps("other", "1.0", "1.2"); err != nil || len(ops) != 0 {
		t.Fatalf("other object's path %v %v", ops, err)
	}
	// Self path is empty.
	ops, err = h.PathOps("m", "1.2", "1.2")
	if err != nil || len(ops) != 0 {
		t.Fatalf("self path %v %v", ops, err)
	}
}

// TestHistoryBranching reproduces Table VI: 1.2 has two children, 1.3 and
// 1.3a, with different transforms.
func TestHistoryBranching(t *testing.T) {
	h := NewHistory("1.1")
	h.Add("1.2", "1.1", map[string][]Op{"m": {{Kind: Create, Name: "newR1"}}})
	h.Add("1.3", "1.2", map[string][]Op{"m": {{Kind: Rename, Name: "someR", NewName: "newR"}, {Kind: Delete, Name: "otherR"}}})
	h.Add("1.3a", "1.2", map[string][]Op{"m": {{Kind: Rename, Name: "newR1", NewName: "myR1"}, {Kind: Delete, Name: "newR"}}})

	opsA, err := h.PathOps("m", "1.1", "1.3")
	if err != nil {
		t.Fatal(err)
	}
	opsB, err := h.PathOps("m", "1.1", "1.3a")
	if err != nil {
		t.Fatal(err)
	}
	vals := map[string]uint64{"someR": 7, "otherR": 9, "newR": 5}
	a := applyOps(vals, opsA)
	if a["newR"] != 7 || a["newR1"] != 0 {
		t.Errorf("branch A: %v", a)
	}
	if _, ok := a["otherR"]; ok {
		t.Errorf("otherR should be deleted: %v", a)
	}
	b := applyOps(vals, opsB)
	if b["myR1"] != 0 {
		t.Errorf("branch B myR1: %v", b)
	}
	if _, ok := b["newR"]; ok {
		t.Errorf("newR should be deleted on branch B: %v", b)
	}
	// Sibling is not an ancestor.
	if _, err := h.PathOps("m", "1.3", "1.3a"); err == nil {
		t.Error("want error for cross-branch path")
	}
	want := "Version | Operations | Parent\n" +
		"1.1 | - | null\n" +
		"1.2 | m: create newR1 | 1.1\n" +
		"1.3 | m: rename someR, newR; m: delete otherR | 1.2\n" +
		"1.3a | m: rename newR1, myR1; m: delete newR | 1.2\n"
	if got := h.Describe(); got != want {
		t.Errorf("Describe:\n%s\nwant:\n%s", got, want)
	}
}

func TestHistoryErrors(t *testing.T) {
	h := NewHistory("r")
	if err := h.Add("r", "r", nil); err == nil {
		t.Error("duplicate version")
	}
	if err := h.Add("x", "nope", nil); err == nil {
		t.Error("missing parent")
	}
	if _, err := h.PathOps("m", "nope", "r"); err == nil {
		t.Error("missing from")
	}
	if _, err := h.PathOps("m", "r", "nope"); err == nil {
		t.Error("missing to")
	}
	if v := h.Versions(); len(v) != 1 || v[0] != "r" {
		t.Error("versions/root wrong")
	}
}

// TestHistoryEditAndRemove: a manual edit replaces one object's ops at
// one version; Remove takes out only childless non-root versions, as a
// rolled-back change needs.
func TestHistoryEditAndRemove(t *testing.T) {
	h := NewHistory("v0")
	if err := h.Add("v1", "v0", map[string][]Op{"m": {{Kind: Rename, Name: "x", NewName: "y"}}}); err != nil {
		t.Fatal(err)
	}
	if err := h.Add("v2", "v1", map[string][]Op{"m": {{Kind: Delete, Name: "x"}}}); err != nil {
		t.Fatal(err)
	}
	if ops, err := h.PathOps("m", "v0", "v2"); err != nil || len(ops) != 2 || ops[0].Kind != Rename || ops[1].Kind != Delete {
		t.Fatalf("path %v %v", ops, err)
	}
	if _, err := h.PathOps("m", "v1", "v0"); err == nil {
		t.Error("descendant->ancestor should fail")
	}
	if err := h.Remove("v0"); err == nil {
		t.Error("removed the root")
	}
	if err := h.Remove("v1"); err == nil {
		t.Error("removed a version with a child")
	}
	if err := h.Remove("nope"); err == nil {
		t.Error("removed a missing version")
	}
	if err := h.Remove("v2"); err != nil {
		t.Fatal(err)
	}
	if v := h.Versions(); len(v) != 2 || v[1] != "v1" {
		t.Errorf("versions %v", v)
	}
	if want := "Version | Operations | Parent\nv0 | - | null\nv1 | m: rename x, y | v0\n"; h.Describe() != want {
		t.Errorf("Describe:\n%s\nwant:\n%s", h.Describe(), want)
	}
	if _, err := h.PathOps("m", "v0", "v2"); err == nil {
		t.Error("removed version still reachable")
	}
	if err := h.Add("v2", "v1", nil); err != nil {
		t.Errorf("re-adding a removed id: %v", err)
	}
}

// applyOps is the reference for the register rules of Table V: a
// register-name → value map translated through the ops one at a time.
// NewPlan must land the same values by name (TestPlanMatchesReference).
func applyOps(values map[string]uint64, ops []Op) map[string]uint64 {
	out := make(map[string]uint64, len(values))
	for k, v := range values {
		out[k] = v
	}
	for _, op := range ops {
		switch op.Kind {
		case Create:
			out[op.Name] = op.Init
		case Delete:
			delete(out, op.Name)
		case Rename:
			if v, ok := out[op.Name]; ok {
				delete(out, op.Name)
				out[op.NewName] = v
			}
		}
	}
	return out
}

func TestApplyOpsRules(t *testing.T) {
	vals := map[string]uint64{"a": 1, "b": 2}
	out := applyOps(vals, []Op{
		{Kind: Create, Name: "c", Init: 42},
		{Kind: Delete, Name: "a"},
		{Kind: Rename, Name: "b", NewName: "bb"},
		{Kind: Rename, Name: "ghost", NewName: "gg"}, // rename of absent: no-op
	})
	if out["c"] != 42 || out["bb"] != 2 {
		t.Errorf("out %v", out)
	}
	if _, ok := out["a"]; ok {
		t.Error("a survived delete")
	}
	if _, ok := out["gg"]; ok {
		t.Error("ghost rename materialized")
	}
	// Input map untouched.
	if vals["a"] != 1 || len(vals) != 2 {
		t.Errorf("input mutated: %v", vals)
	}
}

var regNames = []string{"a", "b", "c", "d", "e"}

// planCase is one generated Table V case: two register tables over the
// names in regNames, the old registers' values by Cur slot, and an op
// list over the same names.
type planCase struct {
	oldObj, newObj *vm.Object
	old            []uint64
	ops            []Op
}

// genPlanCase builds a case from next, which returns a value in [0, n).
func genPlanCase(next func(n int) int) planCase {
	word := func() uint64 { return uint64(next(1<<16)) * 0x9E3779B97F4A7C15 }
	table := func() *vm.Object {
		obj := &vm.Object{Key: "t", ModName: "t"}
		for _, name := range regNames {
			if next(2) == 1 {
				i := uint32(len(obj.Regs))
				obj.Regs = append(obj.Regs, vm.Reg{Name: name, Cur: 2 * i, Next: 2*i + 1, Mask: vm.Mask(1 + next(63))})
			}
		}
		obj.NumSlots = uint32(2 * len(obj.Regs))
		return obj
	}
	c := planCase{oldObj: table(), newObj: table()}
	c.old = make([]uint64, c.oldObj.NumSlots)
	for _, r := range c.oldObj.Regs {
		c.old[r.Cur] = word() & r.Mask
	}
	for range next(9) {
		op := Op{Kind: OpKind(next(3)), Name: regNames[next(len(regNames))]}
		switch op.Kind {
		case Create:
			op.Init = word()
		case Rename:
			op.NewName = regNames[next(len(regNames))]
		}
		c.ops = append(c.ops, op)
	}
	return c
}

// checkPlan holds the register values NewPlan's pairs and inits land
// against the reference: applyOps on the old values, then by name,
// masked. A new register lands at most once, and one the reference has
// no value for is not landed.
func checkPlan(t *testing.T, c planCase) {
	t.Helper()
	p := NewPlan(c.oldObj, c.newObj, c.ops)
	got := make(map[uint32]uint64) // new Cur slot -> landed value
	land := func(slot uint32, v uint64) {
		if _, dup := got[slot]; dup {
			t.Fatalf("ops %v: slot %d landed twice", c.ops, slot)
		}
		got[slot] = v
	}
	for _, r := range p.Regs {
		land(r.To, c.old[r.From]&r.Mask)
	}
	for _, in := range p.Inits {
		land(in.Slot, in.Value)
	}
	vals := make(map[string]uint64)
	for _, r := range c.oldObj.Regs {
		vals[r.Name] = c.old[r.Cur]
	}
	want := applyOps(vals, c.ops)
	for _, r := range c.newObj.Regs {
		w, ok := want[r.Name]
		g, landed := got[r.Cur]
		if ok != landed || g != w&r.Mask {
			t.Fatalf("old %v new %v ops %v: reg %s = %#x (landed %v), reference %#x (%v)",
				c.oldObj.Regs, c.newObj.Regs, c.ops, r.Name, g, landed, w&r.Mask, ok)
		}
		delete(got, r.Cur)
	}
	if len(got) != 0 {
		t.Fatalf("ops %v: slots %v landed that are no register's", c.ops, got)
	}
}

// TestPlanMatchesReference: random register tables and op lists land the
// same register values through NewPlan as through applyOps.
func TestPlanMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for range 5000 {
		checkPlan(t, genPlanCase(rng.Intn))
	}
}

// FuzzPlan is TestPlanMatchesReference on fuzzed cases: each input byte
// is one choice of genPlanCase, and a spent input chooses 0.
func FuzzPlan(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 7, 1, 9, 0, 1, 3, 1, 1, 1, 5, 0, 1, 8, 1, 2, 4, 0, 3, 3, 2, 0, 2, 1, 1, 4, 0, 1, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		checkPlan(t, genPlanCase(func(n int) int {
			if len(data) == 0 {
				return 0
			}
			b := int(data[0])
			data = data[1:]
			return b % n
		}))
	})
}

// TestPlanMemsAndInputs: memories pair by name, masked to the new width;
// input ports pair by name only when an input in both versions.
func TestPlanMemsAndInputs(t *testing.T) {
	oldObj := &vm.Object{
		Mems:     []vm.Mem{{Name: "gone", Index: 0, Depth: 2, Mask: vm.Mask(8)}, {Name: "ram", Index: 1, Depth: 4, Mask: vm.Mask(16)}},
		Ports:    []vm.Port{{Name: "d", Dir: vm.In, Slot: 0, Mask: vm.Mask(16)}, {Name: "q", Dir: vm.Out, Slot: 1, Mask: vm.Mask(16)}},
		NumSlots: 2,
	}
	newObj := &vm.Object{
		Mems:     []vm.Mem{{Name: "ram", Index: 0, Depth: 6, Mask: vm.Mask(8)}},
		Ports:    []vm.Port{{Name: "q", Dir: vm.In, Slot: 0, Mask: vm.Mask(8)}, {Name: "d", Dir: vm.In, Slot: 1, Mask: vm.Mask(8)}},
		NumSlots: 2,
	}
	p := NewPlan(oldObj, newObj, nil)
	if want := []Pair{{"d", 0, 1, vm.Mask(8)}}; !slices.Equal(p.Ins, want) {
		t.Errorf("inputs %v, want %v: d carried and masked, q (an output before) left alone", p.Ins, want)
	}
	if want := []Pair{{"ram", 1, 0, vm.Mask(8)}}; !slices.Equal(p.Mems, want) {
		t.Errorf("memories %v, want %v", p.Mems, want)
	}
}

func regObj(names ...string) *vm.Object {
	obj := &vm.Object{Key: "t", ModName: "t"}
	for i, n := range names {
		obj.Regs = append(obj.Regs, vm.Reg{Name: n, Cur: uint32(2 * i), Next: uint32(2*i + 1), Mask: vm.Mask(8)})
	}
	obj.NumSlots = uint32(2 * len(names))
	return obj
}

func TestBestGuessExactAndRename(t *testing.T) {
	oldObj := regObj("pc", "instr_reg", "valid")
	newObj := regObj("pc", "instr_r", "valid")
	ops := BestGuess(oldObj, newObj)
	if len(ops) != 1 || ops[0].Kind != Rename || ops[0].Name != "instr_reg" || ops[0].NewName != "instr_r" {
		t.Fatalf("ops %v", ops)
	}
}

func TestBestGuessCreateDelete(t *testing.T) {
	oldObj := regObj("alpha", "beta")
	newObj := regObj("alpha", "completely_different_thing")
	ops := BestGuess(oldObj, newObj)
	var kinds []OpKind
	for _, op := range ops {
		kinds = append(kinds, op.Kind)
	}
	if len(ops) != 2 {
		t.Fatalf("ops %v", ops)
	}
	hasDel, hasCre := false, false
	for _, op := range ops {
		if op.Kind == Delete && op.Name == "beta" {
			hasDel = true
		}
		if op.Kind == Create && op.Name == "completely_different_thing" {
			hasCre = true
		}
	}
	if !hasDel || !hasCre {
		t.Errorf("ops %v kinds %v", ops, kinds)
	}
}

func TestBestGuessIdentical(t *testing.T) {
	a := regObj("x", "y", "z")
	b := regObj("x", "y", "z")
	if ops := BestGuess(a, b); len(ops) != 0 {
		t.Errorf("ops %v", ops)
	}
}

func TestMigratorAppliesRename(t *testing.T) {
	oldObj := regObj("old_name")
	newObj := regObj("new_name")
	p := Migrator([]Op{{Kind: Rename, Name: "old_name", NewName: "new_name"}})(oldObj, newObj)
	if want := []Pair{{"new_name", oldObj.Regs[0].Cur, newObj.Regs[0].Cur, vm.Mask(8)}}; !slices.Equal(p.Regs, want) || len(p.Inits) != 0 {
		t.Errorf("plan %+v, want the renamed register carried: %v", p, want)
	}
}

func TestMigratorCreateInit(t *testing.T) {
	oldObj := regObj()
	newObj := regObj("fresh")
	p := Migrator([]Op{{Kind: Create, Name: "fresh", Init: 0x133}})(oldObj, newObj)
	if want := []Init{{newObj.Regs[0].Cur, 0x33}}; !slices.Equal(p.Inits, want) || len(p.Regs) != 0 {
		t.Errorf("plan %+v, want fresh created at its masked Init: %v", p, want)
	}
}

func TestSimilarity(t *testing.T) {
	if similarity("abc", "abc") != 1 {
		t.Error("identical")
	}
	if s := similarity("instr_reg", "instr_r"); s < 0.7 {
		t.Errorf("close names score %v", s)
	}
	if s := similarity("alpha", "zzzzz"); s > 0.3 {
		t.Errorf("far names score %v", s)
	}
}

func TestEditDistanceProperty(t *testing.T) {
	f := func(a, b string) bool {
		if len(a) > 30 {
			a = a[:30]
		}
		if len(b) > 30 {
			b = b[:30]
		}
		d := editDistance(a, b)
		if d != editDistance(b, a) {
			return false
		}
		if (d == 0) != (a == b) {
			return false
		}
		max := len(a)
		if len(b) > max {
			max = len(b)
		}
		return d <= max
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: applyOps with only renames is invertible.
func TestRenameInvertibleProperty(t *testing.T) {
	f := func(v1, v2, v3 uint64) bool {
		vals := map[string]uint64{"a": v1, "b": v2, "c": v3}
		fwd := []Op{{Kind: Rename, Name: "a", NewName: "x"}, {Kind: Rename, Name: "b", NewName: "y"}}
		bwd := []Op{{Kind: Rename, Name: "x", NewName: "a"}, {Kind: Rename, Name: "y", NewName: "b"}}
		out := applyOps(applyOps(vals, fwd), bwd)
		if len(out) != len(vals) {
			return false
		}
		for k, v := range vals {
			if out[k] != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestOpString(t *testing.T) {
	cases := map[string]Op{
		"create r":       {Kind: Create, Name: "r"},
		"create r = 0x5": {Kind: Create, Name: "r", Init: 5},
		"delete r":       {Kind: Delete, Name: "r"},
		"rename a, b":    {Kind: Rename, Name: "a", NewName: "b"},
	}
	for want, op := range cases {
		if got := op.String(); got != want {
			t.Errorf("got %q want %q", got, want)
		}
	}
	if Create.String() != "create" || Delete.String() != "delete" || Rename.String() != "rename" {
		t.Error("kind strings")
	}
}
