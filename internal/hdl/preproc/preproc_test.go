package preproc

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
)

func mustProcess(t *testing.T, src string, opts Options) *Result {
	t.Helper()
	r, err := Process("t.v", src, opts)
	if err != nil {
		t.Fatalf("Process: %v", err)
	}
	return r
}

func TestDefineAndExpand(t *testing.T) {
	src := "`define W 8\nwire [`W-1:0] x;"
	r := mustProcess(t, src, Options{})
	lines := strings.Split(r.Text, "\n")
	if lines[0] != "" {
		t.Errorf("directive line should be blank, got %q", lines[0])
	}
	if lines[1] != "wire [8-1:0] x;" {
		t.Errorf("expanded line %q", lines[1])
	}
	if deps := r.LineDeps[2]; len(deps) != 1 || deps[0] != "W" {
		t.Errorf("line 2 deps = %v", deps)
	}
}

func TestNestedMacro(t *testing.T) {
	src := "`define A 2\n`define B (`A+1)\nassign x = `B;"
	r := mustProcess(t, src, Options{})
	if !strings.Contains(r.Text, "assign x = (2+1);") {
		t.Errorf("text %q", r.Text)
	}
	deps := r.LineDeps[3]
	if len(deps) != 2 || deps[0] != "A" || deps[1] != "B" {
		t.Errorf("deps %v", deps)
	}
}

func TestIfdefTaken(t *testing.T) {
	src := "`define FEATURE 1\n`ifdef FEATURE\nassign a = 1;\n`else\nassign a = 0;\n`endif"
	r := mustProcess(t, src, Options{})
	if !strings.Contains(r.Text, "assign a = 1;") || strings.Contains(r.Text, "assign a = 0;") {
		t.Errorf("text %q", r.Text)
	}
	if deps := r.LineDeps[3]; len(deps) != 1 || deps[0] != "FEATURE" {
		t.Errorf("deps %v", deps)
	}
}

func TestIfndefAndElse(t *testing.T) {
	src := "`ifndef MISSING\nassign a = 1;\n`else\nassign a = 0;\n`endif"
	r := mustProcess(t, src, Options{})
	if !strings.Contains(r.Text, "assign a = 1;") || strings.Contains(r.Text, "assign a = 0;") {
		t.Errorf("text %q", r.Text)
	}
}

func TestNestedIfdef(t *testing.T) {
	src := "`define A 1\n`ifdef A\n`ifdef B\nx\n`else\ny\n`endif\n`endif"
	r := mustProcess(t, src, Options{})
	if strings.Contains(r.Text, "x") || !strings.Contains(r.Text, "y") {
		t.Errorf("text %q", r.Text)
	}
}

func TestInactiveOuterSuppressesInnerElse(t *testing.T) {
	src := "`ifdef NO\n`ifndef ALSO_NO\nhidden\n`endif\n`endif\nvisible"
	r := mustProcess(t, src, Options{})
	if strings.Contains(r.Text, "hidden") || !strings.Contains(r.Text, "visible") {
		t.Errorf("text %q", r.Text)
	}
}

func TestUndef(t *testing.T) {
	src := "`define X 1\n`undef X\n`ifdef X\nbad\n`endif"
	r := mustProcess(t, src, Options{})
	if strings.Contains(r.Text, "bad") {
		t.Errorf("text %q", r.Text)
	}
	if lines := r.DefineLines["X"]; len(lines) != 2 {
		t.Errorf("DefineLines %v", lines)
	}
}

func TestSeededDefines(t *testing.T) {
	r := mustProcess(t, "value `V", Options{Defines: map[string]string{"V": "42"}})
	if strings.TrimSpace(r.Text) != "value 42" {
		t.Errorf("text %q", r.Text)
	}
}

func TestInclude(t *testing.T) {
	inc := func(path string) (string, error) {
		switch path {
		case "defs.vh":
			return "`include \"width.vh\"", nil
		case "width.vh":
			return "`define W 16", nil
		}
		return "", fmt.Errorf("not found")
	}
	src := "`include \"defs.vh\"\nwire [`W-1:0] x;\n`ifdef NOPE\n`include \"skipped.vh\"\n`endif"
	r := mustProcess(t, src, Options{Include: inc})
	if !strings.Contains(r.Text, "wire [16-1:0] x;") {
		t.Errorf("text %q", r.Text)
	}
	// Every resolved include is recorded with the text it resolved to,
	// nested ones too, inactive ones not.
	want := []Include{{"defs.vh", "`include \"width.vh\""}, {"width.vh", "`define W 16"}}
	if !reflect.DeepEqual(r.Includes, want) {
		t.Errorf("includes %q, want %q", r.Includes, want)
	}
}

func TestIncludeMissing(t *testing.T) {
	if _, err := Process("t.v", "`include \"nope.vh\"", Options{Include: func(string) (string, error) { return "", fmt.Errorf("no") }}); err == nil {
		t.Fatal("want error")
	}
	if _, err := Process("t.v", "`include \"nope.vh\"", Options{}); err == nil {
		t.Fatal("want error with nil includer")
	}
}

func TestErrors(t *testing.T) {
	cases := []string{
		"`else",
		"`endif",
		"`ifdef X\n",
		"use `UNDEFINED here",
		"`define",
	}
	for _, src := range cases {
		if _, err := Process("t.v", src, Options{}); err == nil {
			t.Errorf("%q: want error", src)
		}
	}
}

func TestRecursiveMacroError(t *testing.T) {
	src := "`define A `A\nx `A"
	if _, err := Process("t.v", src, Options{}); err == nil {
		t.Fatal("want recursion error")
	}
}

func TestLineStructurePreserved(t *testing.T) {
	src := "`define X 1\na\n`ifdef X\nb\n`endif\nc"
	r := mustProcess(t, src, Options{})
	lines := strings.Split(r.Text, "\n")
	if len(lines) != 6 {
		t.Fatalf("got %d lines, want 6: %q", len(lines), r.Text)
	}
	if lines[1] != "a" || lines[3] != "b" || lines[5] != "c" {
		t.Errorf("lines %q", lines)
	}
}

func TestRedefine(t *testing.T) {
	src := "`define W 8\n`define W 16\nwire [`W:0] x;"
	r := mustProcess(t, src, Options{})
	if !strings.Contains(r.Text, "wire [16:0] x;") {
		t.Errorf("text %q", r.Text)
	}
	if lines := r.DefineLines["W"]; len(lines) != 2 || lines[0] != 1 || lines[1] != 2 {
		t.Errorf("DefineLines %v", lines)
	}
}

func TestDefineBodyCommentStripped(t *testing.T) {
	r := mustProcess(t, "`define W 8 // width\nx `W", Options{})
	if !strings.Contains(r.Text, "x 8") || strings.Contains(r.Text, "width") {
		t.Errorf("text %q", r.Text)
	}
}
