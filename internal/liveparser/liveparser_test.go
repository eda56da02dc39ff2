package liveparser

import (
	"fmt"
	"reflect"
	"testing"
)

func src(files map[string]string) Source { return Source{Files: files} }

const baseDesign = `
module child (input clk, input [7:0] d, output reg [7:0] q);
  always @(posedge clk) q <= d + 1; // increment
endmodule
module top (input clk, input [7:0] in, output [7:0] out);
  child c0 (.clk(clk), .d(in), .q(out));
endmodule
`

func TestCommentOnlyEditIsNoChange(t *testing.T) {
	edited := `
module child (input clk, input [7:0] d, output reg [7:0] q);
  /* totally new comment */
  always @(posedge clk) q <= d + 1;
endmodule
module top (input clk, input [7:0] in, output [7:0] out);
  child c0 (.clk(clk), .d(in), .q(out));
endmodule
`
	d, err := diffSources(src(map[string]string{"a.v": baseDesign}), src(map[string]string{"a.v": edited}))
	if err != nil {
		t.Fatal(err)
	}
	if !d.NoChange() {
		t.Errorf("comment edit detected as change: %+v", d)
	}
}

func TestBodyEditDirtiesOnlyThatModule(t *testing.T) {
	edited := `
module child (input clk, input [7:0] d, output reg [7:0] q);
  always @(posedge clk) q <= d + 2; // increment
endmodule
module top (input clk, input [7:0] in, output [7:0] out);
  child c0 (.clk(clk), .d(in), .q(out));
endmodule
`
	d, err := diffSources(src(map[string]string{"a.v": baseDesign}), src(map[string]string{"a.v": edited}))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(d.BodyChanged, []string{"child"}) {
		t.Errorf("body changed %v", d.BodyChanged)
	}
	if !reflect.DeepEqual(d.Dirty, []string{"child"}) {
		t.Errorf("dirty %v", d.Dirty)
	}
	if len(d.IfaceChanged) != 0 {
		t.Errorf("iface %v", d.IfaceChanged)
	}
}

func TestInterfaceEditDirtiesParents(t *testing.T) {
	edited := `
module child (input clk, input en, input [7:0] d, output reg [7:0] q);
  always @(posedge clk) if (en) q <= d + 1;
endmodule
module top (input clk, input [7:0] in, output [7:0] out);
  child c0 (.clk(clk), .en(1'b1), .d(in), .q(out));
endmodule
`
	d, err := diffSources(src(map[string]string{"a.v": baseDesign}), src(map[string]string{"a.v": edited}))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(d.IfaceChanged, []string{"child"}) {
		t.Errorf("iface %v", d.IfaceChanged)
	}
	if !reflect.DeepEqual(d.Dirty, []string{"child", "top"}) {
		t.Errorf("dirty %v", d.Dirty)
	}
	if d.Reasons["top"] == "" {
		t.Error("missing reason for top")
	}
}

func TestDefineEditDirtiesUsers(t *testing.T) {
	oldSrc := "`define INC 1\n" + `
module child (input clk, input [7:0] d, output reg [7:0] q);
  always @(posedge clk) q <= d + ` + "`INC" + `;
endmodule
module other (input a, output b);
  assign b = a;
endmodule
`
	newSrc := "`define INC 2\n" + `
module child (input clk, input [7:0] d, output reg [7:0] q);
  always @(posedge clk) q <= d + ` + "`INC" + `;
endmodule
module other (input a, output b);
  assign b = a;
endmodule
`
	d, err := diffSources(src(map[string]string{"a.v": oldSrc}), src(map[string]string{"a.v": newSrc}))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(d.Dirty, []string{"child"}) {
		t.Errorf("dirty %v (macro edit must dirty only expanded-changed modules)", d.Dirty)
	}
}

func TestAddRemoveModule(t *testing.T) {
	newSrc := baseDesign + `
module extra (input x, output y);
  assign y = x;
endmodule
`
	d, err := diffSources(src(map[string]string{"a.v": baseDesign}), src(map[string]string{"a.v": newSrc}))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(d.Added, []string{"extra"}) {
		t.Errorf("added %v", d.Added)
	}
	d2, err := diffSources(src(map[string]string{"a.v": newSrc}), src(map[string]string{"a.v": baseDesign}))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(d2.Removed, []string{"extra"}) {
		t.Errorf("removed %v", d2.Removed)
	}
}

func TestMacroDepsRecorded(t *testing.T) {
	a, err := Analyze(src(map[string]string{"a.v": "`define W 8\nmodule m (input [`W-1:0] x); endmodule"}))
	if err != nil {
		t.Fatal(err)
	}
	if deps := a.Modules["m"].MacroDeps; !reflect.DeepEqual(deps, []string{"W"}) {
		t.Errorf("deps %v", deps)
	}
}

func TestInstantiationGraph(t *testing.T) {
	a, err := Analyze(src(map[string]string{"a.v": baseDesign}))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Instantiates["top"], []string{"child"}) {
		t.Errorf("instantiates %v", a.Instantiates)
	}
	if !reflect.DeepEqual(a.InstantiatedBy["child"], []string{"top"}) {
		t.Errorf("instantiatedBy %v", a.InstantiatedBy)
	}
}

func TestDuplicateModuleError(t *testing.T) {
	files := map[string]string{
		"a.v": "module m (); endmodule",
		"b.v": "module m (); endmodule",
	}
	if _, err := Analyze(src(files)); err == nil {
		t.Fatal("want duplicate error")
	}
}

func TestParseErrorSurfaces(t *testing.T) {
	if _, err := Analyze(src(map[string]string{"a.v": "module ("})); err == nil {
		t.Fatal("want parse error")
	}
	if _, err := diffSources(src(map[string]string{"a.v": "module ("}), src(map[string]string{"a.v": baseDesign})); err == nil {
		t.Fatal("want old-snapshot error")
	}
	if _, err := diffSources(src(map[string]string{"a.v": baseDesign}), src(map[string]string{"a.v": "x"})); err == nil {
		t.Fatal("want new-snapshot error")
	}
}

func TestMultiFileDesign(t *testing.T) {
	oldFiles := map[string]string{
		"child.v": "module child (input clk, input [7:0] d, output reg [7:0] q);\n  always @(posedge clk) q <= d + 1;\nendmodule",
		"top.v":   "module top (input clk, input [7:0] in, output [7:0] out);\n  child c0 (.clk(clk), .d(in), .q(out));\nendmodule",
	}
	newFiles := map[string]string{
		"child.v": "module child (input clk, input [7:0] d, output reg [7:0] q);\n  always @(posedge clk) q <= d - 1;\nendmodule",
		"top.v":   oldFiles["top.v"],
	}
	d, err := diffSources(src(oldFiles), src(newFiles))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(d.Dirty, []string{"child"}) {
		t.Errorf("dirty %v", d.Dirty)
	}
}

func TestIfaceHashIgnoresBody(t *testing.T) {
	a1, _ := Analyze(src(map[string]string{"a.v": "module m (input a, output b); assign b = a; endmodule"}))
	a2, _ := Analyze(src(map[string]string{"a.v": "module m (input a, output b); assign b = ~a; endmodule"}))
	if a1.Modules["m"].IfaceHash != a2.Modules["m"].IfaceHash {
		t.Error("interface hash must not depend on the body")
	}
	if a1.Modules["m"].BodyHash == a2.Modules["m"].BodyHash {
		t.Error("body hash must depend on the body")
	}
}

// diffSources analyzes two source snapshots and compares them.
func diffSources(oldSrc, newSrc Source) (*Diff, error) {
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
