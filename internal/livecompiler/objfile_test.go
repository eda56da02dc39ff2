package livecompiler_test

import (
	"bytes"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"livesim/internal/codegen"
	"livesim/internal/livecompiler"
	"livesim/internal/pgas"
	"livesim/internal/vm"
)

// buildInto builds PGAS 1x1 with a fresh compiler on the object directory.
func buildInto(t *testing.T, dir string) *livecompiler.Result {
	t.Helper()
	c := livecompiler.New(pgas.TopName(1), codegen.StyleGrouped, nil)
	c.SetObjectDir(dir)
	res, err := c.Build(pgas.Source(1))
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// objectFileOf returns the file in dir holding exactly obj's encoding.
func objectFileOf(t *testing.T, dir string, obj *vm.Object) string {
	t.Helper()
	want := vm.EncodeObject(obj)
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		path := filepath.Join(dir, e.Name())
		if data, err := os.ReadFile(path); err == nil && bytes.Equal(data, want) {
			return path
		}
	}
	t.Fatalf("no object file holds %s", obj.Key)
	return ""
}

// requireRecompiledOnly checks that a build over dir compiled exactly the
// object whose file was damaged, loaded the rest from disk, and rewrote
// the damaged file with the object a cold compile produces.
func requireRecompiledOnly(t *testing.T, dir, file string, cold *vm.Object, n int) {
	t.Helper()
	res := buildInto(t, dir)
	if res.Stats.Compiled != 1 || res.Stats.DiskHits != n-1 {
		t.Fatalf("stats %+v, want 1 compiled and %d disk hits", res.Stats, n-1)
	}
	if got := res.Objects[cold.Key]; got.Hash() != cold.Hash() {
		t.Errorf("%s served with a different body than a cold compile", cold.Key)
	}
	if data, err := os.ReadFile(file); err != nil || !bytes.Equal(data, vm.EncodeObject(cold)) {
		t.Errorf("damaged object file not rewritten (err %v)", err)
	}
	if ents, _ := os.ReadDir(dir); len(ents) != n {
		t.Errorf("%d files in the object directory, want %d (no backups)", len(ents), n)
	}
}

// TestFlippedImmediateIsRecompiled: one flipped byte inside an
// instruction's immediate decodes to a valid object of different
// behaviour; the object file's checksum must refuse it.
func TestFlippedImmediateIsRecompiled(t *testing.T) {
	dir := t.TempDir()
	cold := buildInto(t, dir)
	keys := make([]string, 0, len(cold.Objects))
	for k := range cold.Objects {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, key := range keys {
		obj := cold.Objects[key]
		for i, in := range obj.Comb {
			if in.Op == vm.OpDisplay || in.Imm == 0 {
				continue
			}
			// The immediate's byte is the last one the two encodings of
			// obj and obj-with-that-immediate-changed disagree on.
			a := vm.EncodeObject(obj)
			flipped, err := vm.DecodeObject(a)
			if err != nil {
				t.Fatal(err)
			}
			flipped.Comb[i].Imm ^= 1
			b := vm.EncodeObject(flipped)
			at := len(a) - 1
			for a[at] == b[at] {
				at--
			}
			file := objectFileOf(t, dir, obj)
			data, _ := os.ReadFile(file)
			data[at] ^= 1
			if err := os.WriteFile(file, data, 0o644); err != nil {
				t.Fatal(err)
			}
			requireRecompiledOnly(t, dir, file, obj, len(cold.Objects))
			return
		}
	}
	t.Fatal("no instruction with an immediate in PGAS 1x1")
}

// TestParentLayoutObjectFileIsReplaced: an object file in the layout
// before the frame container (testdata/node_mem-parent.lso, that build's
// encoding of PGAS 1x1's node_mem) fails the header check and is
// recompiled and overwritten, as after a codegen.Version bump.
func TestParentLayoutObjectFileIsReplaced(t *testing.T) {
	old, err := os.ReadFile(filepath.Join("testdata", "node_mem-parent.lso"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := vm.DecodeObject(old); err == nil {
		t.Fatal("the old layout decodes")
	}
	dir := t.TempDir()
	cold := buildInto(t, dir)
	obj := cold.Objects["node_mem"]
	file := objectFileOf(t, dir, obj)
	if err := os.WriteFile(file, old, 0o644); err != nil {
		t.Fatal(err)
	}
	requireRecompiledOnly(t, dir, file, obj, len(cold.Objects))
}
