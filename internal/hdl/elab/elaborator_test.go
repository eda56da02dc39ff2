package elab

import (
	"reflect"
	"strings"
	"testing"

	"livesim/internal/hdl/ast"
	"livesim/internal/hdl/parser"
)

// The hierarchy of the Elaborator tests, one module per text so that an
// edit replaces one AST and leaves the others' identity alone:
// top -> {mid m0, mid m1, other o0}, mid -> {leaf#W=8 l0, leaf (default W) l1}.
var tree = map[string]string{
	"leaf": `module leaf #(parameter W = 4) (input [W-1:0] x, output [W-1:0] y);
  assign y = x + 1;
endmodule`,
	"other": `module other (input a, output b);
  assign b = ~a;
endmodule`,
	"mid": `module mid (input [7:0] p, output [7:0] q, output [3:0] r);
  leaf #(.W(8)) l0 (.x(p), .y(q));
  leaf l1 (.x(p[3:0]), .y(r));
endmodule`,
	"top": `module top (input [7:0] i, output [7:0] o0, o1, output z);
  wire [3:0] r0, r1;
  mid m0 (.p(i), .q(o0), .r(r0));
  mid m1 (.p(o0), .q(o1), .r(r1));
  other o0i (.a(r0[0]), .b(z));
endmodule`,
}

// edited returns srcs with module name parsed anew from text.
func edited(t *testing.T, srcs map[string]*ast.Module, name, text string) map[string]*ast.Module {
	t.Helper()
	m, err := parser.ParseModule(name+".v", text)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string]*ast.Module, len(srcs))
	for k, v := range srcs {
		out[k] = v
	}
	out[name] = m
	return out
}

// checkLinks holds what structural equality with a cold design cannot see:
// every instance points at the child that is in this design under its key,
// and every connection at that child's own port signal.
func checkLinks(t *testing.T, what string, d *Design) {
	t.Helper()
	for _, key := range d.Order {
		m := d.Modules[key]
		for _, inst := range m.Instances {
			if d.Modules[inst.ChildKey] != inst.Child {
				t.Errorf("%s: %s.%s points at a %s that is not this design's", what, key, inst.Name, inst.ChildKey)
			}
			for _, c := range inst.Conns {
				if c.Port.PortIdx >= len(inst.Child.Ports) || inst.Child.Ports[c.Port.PortIdx] != c.Port {
					t.Errorf("%s: %s.%s.%s is connected to a signal that is not its child's port", what, key, inst.Name, c.Port.Name)
				}
			}
		}
	}
}

func TestElaboratorReusesWhatDidNotChange(t *testing.T) {
	var el Elaborator
	srcs := map[string]*ast.Module{}
	for name, text := range tree {
		srcs = edited(t, srcs, name, text)
	}
	var last *Design
	// step elaborates srcs warm and cold, holds one against the other, and
	// checks which specializations were elaborated and which kept identity.
	step := func(what string, elaborated []string) {
		t.Helper()
		warm, err := el.Elaborate(srcs, "top", nil)
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		cold, err := Elaborate(srcs, "top", nil)
		if err != nil {
			t.Fatalf("%s: cold: %v", what, err)
		}
		if warm.TopKey != cold.TopKey || !reflect.DeepEqual(warm.Order, cold.Order) {
			t.Fatalf("%s: top %s order %v, cold %s %v", what, warm.TopKey, warm.Order, cold.TopKey, cold.Order)
		}
		if !reflect.DeepEqual(warm.Modules, cold.Modules) {
			t.Errorf("%s: the design differs from a cold elaboration", what)
		}
		checkLinks(t, what, warm)
		if warm.Elaborated != len(elaborated) {
			t.Errorf("%s: elaborated %d specializations, want %v", what, warm.Elaborated, elaborated)
		}
		if last != nil {
			fresh := map[string]bool{}
			for _, key := range elaborated {
				fresh[key] = true
			}
			for key, m := range warm.Modules {
				if kept := last.Modules[key] == m; kept == fresh[key] {
					t.Errorf("%s: %s kept=%v, want elaborated=%v", what, key, kept, fresh[key])
				}
			}
		}
		last = warm
	}

	step("cold", []string{"leaf#W=8", "leaf#W=4", "mid", "other", "top"})
	step("same ASTs", nil)

	srcs = edited(t, srcs, "other", strings.Replace(tree["other"], "~a", "a", 1))
	step("leaf under the top edited", []string{"other", "top"})

	srcs = edited(t, srcs, "leaf", strings.Replace(tree["leaf"], "x + 1", "x + 2", 1))
	step("leaf two levels down edited", []string{"leaf#W=8", "leaf#W=4", "mid", "top"})

	// A port added to the child: the parent's own AST is the same, its
	// connections must still move to the new child's signals.
	srcs = edited(t, srcs, "leaf", strings.Replace(tree["leaf"], "input [W-1:0] x,", "input en, input [W-1:0] x,", 1))
	step("port added to a child", []string{"leaf#W=8", "leaf#W=4", "mid", "top"})
	if got := len(last.Modules["leaf#W=4"].Ports); got != 3 {
		t.Errorf("leaf has %d ports after the edit", got)
	}

	// A parameter default edit changes a specialization key.
	srcs = edited(t, srcs, "leaf", strings.Replace(tree["leaf"], "W = 4", "W = 3", 1))
	step("parameter default changed", []string{"leaf#W=8", "leaf#W=3", "mid", "top"})
	if _, still := last.Modules["leaf#W=4"]; still {
		t.Error("leaf#W=4 outlived its default")
	}

	// A failed elaboration reports what a cold one reports and leaves the
	// last design in place for the fix to build on.
	good := srcs
	srcs = edited(t, srcs, "mid", strings.Replace(tree["mid"], "leaf l1", "nosuch l1", 1))
	_, werr := el.Elaborate(srcs, "top", nil)
	_, cerr := Elaborate(srcs, "top", nil)
	if werr == nil || cerr == nil || werr.Error() != cerr.Error() {
		t.Fatalf("errors: warm %v, cold %v", werr, cerr)
	}
	srcs = good
	step("after a failed elaboration", nil)
}
