package trace

import (
	"bytes"
	"fmt"
	"slices"
	"strings"
	"testing"

	"livesim/internal/codegen"
	"livesim/internal/hdl/ast"
	"livesim/internal/hdl/elab"
	"livesim/internal/hdl/parser"
	"livesim/internal/sim"
	"livesim/internal/vm"
)

func buildSim(t *testing.T, src, top string) *sim.Sim {
	t.Helper()
	objs, topKey := compile(t, src, top)
	s, err := sim.New(sim.ResolverFunc(func(k string) (*vm.Object, error) {
		if o, ok := objs[k]; ok {
			return o, nil
		}
		return nil, fmt.Errorf("no %q", k)
	}), topKey)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// compile elaborates and compiles src under top: the objects by key and
// the top's key.
func compile(t *testing.T, src, top string) (map[string]*vm.Object, string) {
	t.Helper()
	srcs := map[string]*ast.Module{}
	sf, err := parser.ParseFile("t.v", src)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range sf.Modules {
		srcs[m.Name] = m
	}
	d, err := elab.Elaborate(srcs, top, nil)
	if err != nil {
		t.Fatal(err)
	}
	objs := map[string]*vm.Object{}
	for _, key := range d.Order {
		obj, err := codegen.Compile(d.Modules[key], codegen.Options{})
		if err != nil {
			t.Fatal(err)
		}
		objs[key] = obj
	}
	return objs, d.TopKey
}

const counterSrc = `
module cnt (input clk, input en, output reg [3:0] q, output tick);
  always @(posedge clk) if (en) q <= q + 1;
  assign tick = q == 4'd15;
endmodule
module root (input clk, input en, output [3:0] q, output tick);
  cnt u0 (.clk(clk), .en(en), .q(q), .tick(tick));
endmodule
`

func TestVCDHeaderAndChanges(t *testing.T) {
	s := buildSim(t, counterSrc, "root")
	s.SetIn("en", 1)
	var buf bytes.Buffer
	tr, err := New(&buf, s, All())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if err := s.Tick(1); err != nil {
			t.Fatal(err)
		}
		if err := tr.Sample(); err != nil {
			t.Fatal(err)
		}
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	out := buf.String()

	for _, want := range []string{
		"$timescale", "$enddefinitions $end", "$dumpvars",
		"$scope module top $end", "$scope module u0 $end",
		"$var wire 4", "$var wire 1", "$upscope $end",
		"#1\n", "#16\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("VCD missing %q:\n%s", want, out[:min(len(out), 800)])
		}
	}
	// q counts: value b101 (5) must appear at time #5.
	if !strings.Contains(out, "#5\nb101 ") {
		t.Errorf("missing q=5 at #5:\n%s", out)
	}
	// tick is 1 exactly when q==15; the scalar change "1<id>" appears.
	if !strings.Contains(out, "#15\n") {
		t.Error("missing timestamp 15")
	}
}

func TestVCDNoChangeNoTimestamp(t *testing.T) {
	s := buildSim(t, counterSrc, "root")
	// en=0: nothing changes after dumpvars.
	var buf bytes.Buffer
	tr, err := New(&buf, s, All())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		s.Tick(1)
		tr.Sample()
	}
	tr.Close()
	if strings.Contains(buf.String(), "#3") {
		t.Errorf("idle design emitted changes:\n%s", buf.String())
	}
}

// only traces the signals named "path.signal".
func only(names ...string) Filter {
	return func(path, signal string) bool { return slices.Contains(names, path+"."+signal) }
}

func TestVCDFilters(t *testing.T) {
	s := buildSim(t, counterSrc, "root")
	var buf bytes.Buffer
	tr, err := New(&buf, s, only("top.u0.q"))
	if err != nil {
		t.Fatal(err)
	}
	if tr.NumProbes() != 1 {
		t.Errorf("probes %d", tr.NumProbes())
	}
	tr2, err := New(&buf, s, Under("top.u0"))
	if err != nil {
		t.Fatal(err)
	}
	if tr2.NumProbes() < 2 {
		t.Errorf("Under probes %d", tr2.NumProbes())
	}
	if _, err := New(&buf, s, only("nothing.matches")); err == nil {
		t.Error("want error for empty probe set")
	}
}

func TestVCDAfterClose(t *testing.T) {
	s := buildSim(t, counterSrc, "root")
	var buf bytes.Buffer
	tr, err := New(&buf, s, All())
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err) // idempotent
	}
	if err := tr.Sample(); err == nil {
		t.Error("sample after close should fail")
	}
}

func TestIDCodeUnique(t *testing.T) {
	seen := map[string]bool{}
	for i := 0; i < 20000; i++ {
		id := idCode(i)
		if seen[id] {
			t.Fatalf("duplicate id %q at %d", id, i)
		}
		seen[id] = true
		for _, c := range []byte(id) {
			if c < 33 || c > 126 {
				t.Fatalf("id %q has non-printable byte %d", id, c)
			}
		}
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// TestVCDWiringOnlySlot traces a port that only carries a value across a
// wiring level (u_w.q, from u_c.q up to the root): the kernel copies
// straight from producer to consumer, and the tracer still sees every
// value the wire takes.
func TestVCDWiringOnlySlot(t *testing.T) {
	s := buildSim(t, `
module cnt (input clk, output reg [3:0] q);
  always @(posedge clk) q <= q + 1;
endmodule
module wrap (input clk, output [3:0] q);
  cnt u_c (.clk(clk), .q(q));
endmodule
module root (input clk, output [3:0] q);
  wrap u_w (.clk(clk), .q(q));
endmodule
`, "root")
	var buf bytes.Buffer
	tr, err := New(&buf, s, only("top.u_w.q"))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		if err := s.Tick(1); err != nil {
			t.Fatal(err)
		}
		if err := tr.Sample(); err != nil {
			t.Fatal(err)
		}
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	if out := buf.String(); !strings.Contains(out, "#1\nb1 ") || !strings.Contains(out, "#5\nb101 ") {
		t.Errorf("u_w.q missing 1 at #1 or 5 at #5:\n%s", out)
	}
}

// TestVCDFollowsHotReload: a reload that moves a traced register to
// another slot is followed, so the dump shows what Peek reads, and a
// traced register the reload removed is dumped as x once.
func TestVCDFollowsHotReload(t *testing.T) {
	const v1 = `
module top (input clk);
  reg [7:0] cnt, gone;
  always @(posedge clk) begin cnt <= cnt + 1; gone <= cnt; end
endmodule
`
	const v2 = `
module top (input clk);
  reg [7:0] pad0, pad1, pad2;
  reg [7:0] cnt;
  always @(posedge clk) begin pad0 <= 8'hAA; pad1 <= 8'h55; pad2 <= 8'h0F; cnt <= cnt + 1; end
endmodule
`
	objs, top := compile(t, v1, "top")
	s, err := sim.New(sim.ResolverFunc(func(k string) (*vm.Object, error) { return objs[k], nil }), top)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	tr, err := New(&buf, s, only("top.cnt", "top.gone"))
	if err != nil {
		t.Fatal(err)
	}
	step := func(n int) {
		for range n {
			if err := s.Tick(1); err != nil {
				t.Fatal(err)
			}
			if err := tr.Sample(); err != nil {
				t.Fatal(err)
			}
		}
	}
	step(3)
	slot := func() uint32 { return s.Root.Obj.RegByName("cnt").Cur }
	before := slot()
	objs2, _ := compile(t, v2, "top")
	objs[top] = objs2[top]
	if _, err := s.Reload(top, nil); err != nil {
		t.Fatal(err)
	}
	if slot() == before {
		t.Fatalf("cnt stayed at slot %d: the edit must move it", before)
	}
	step(2)
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	if v, err := s.Peek("top.cnt"); err != nil || v != 5 {
		t.Fatalf("Peek top.cnt = %d, %v; want 5", v, err)
	}
	// Signals are declared in name order: cnt is !, gone is ".
	out := buf.String()
	if !strings.Contains(out, "#4\nb100 !\nbx \"\n#5\nb101 !\n") {
		t.Errorf("want cnt 4 and gone x at #4, cnt 5 alone at #5:\n%s", out)
	}
}
