package livesim_test

import (
	"bytes"
	"strings"
	"testing"

	"livesim"
)

const facadeDesign = `
module gray (input clk, input en, output reg [7:0] bin, output [7:0] code);
  always @(posedge clk) if (en) bin <= bin + 1;
  assign code = bin ^ (bin >> 1);
endmodule
module top (input clk, input en, output [7:0] code);
  gray u0 (.clk(clk), .en(en), .code(code));
endmodule
`

// TestFacadeEndToEnd drives the whole public API surface: session setup
// in both codegen styles, metrics, both testbench kinds, run, tables,
// tracing, copy, hot reload with verification, and continued execution.
// Every name livesim.go declares is used here or by examples/ and cmd/.
func TestFacadeEndToEnd(t *testing.T) {
	mux := livesim.NewSession("top", livesim.Config{Style: livesim.StyleMux})
	if _, err := mux.LoadDesign(livesim.Source{Files: map[string]string{"g.v": facadeDesign}}); err != nil {
		t.Fatal(err)
	}

	reg := livesim.NewRegistry()
	s := livesim.NewSession("top", livesim.Config{CheckpointEvery: 50, Lookback: 50, Style: livesim.StyleGrouped, Metrics: reg})
	if s.Metrics() != reg {
		t.Error("Session.Metrics is not Config.Metrics")
	}
	if _, err := s.LoadDesign(livesim.Source{Files: map[string]string{"g.v": facadeDesign}}); err != nil {
		t.Fatal(err)
	}
	s.RegisterTestbench("tb", livesim.NewStatelessTB(func(d *livesim.Driver, cycle uint64) error {
		return d.SetIn("en", 1)
	}))
	var step livesim.TestbenchFactory = livesim.NewCountingTB(func(d *livesim.Driver, step uint64) error {
		return d.SetIn("en", step%2)
	})
	s.RegisterTestbench("step", step)
	p, err := s.InstPipe("p0")
	if err != nil {
		t.Fatal(err)
	}

	// Trace a window while running.
	var vcd bytes.Buffer
	var under livesim.TraceFilter = livesim.TraceUnder("top.u0")
	var tr *livesim.Tracer
	tr, err = livesim.NewTracer(&vcd, p, under)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := s.Run("tb", "p0", 1); err != nil {
			t.Fatal(err)
		}
		if err := tr.Sample(); err != nil {
			t.Fatal(err)
		}
	}
	tr.Close()
	if !strings.Contains(vcd.String(), "$enddefinitions") || !strings.Contains(vcd.String(), "#5") {
		t.Errorf("vcd content:\n%.300s", vcd.String())
	}

	if err := s.Run("tb", "p0", 190); err != nil {
		t.Fatal(err)
	}
	code, _ := p.Sim.Out("code")
	bin := uint64(200)
	if code != (bin^(bin>>1))&0xFF {
		t.Errorf("code %#x", code)
	}

	// Tables.
	if len(s.Library()) == 0 || len(s.Pipes()) != 1 {
		t.Error("tables empty")
	}
	stages, err := s.Stages("p0")
	if err != nil || len(stages) != 2 {
		t.Errorf("stages %v %v", stages, err)
	}

	// Copy, then hot reload the original (count by 3) and check both the
	// verification flow and that the copy kept the old behaviour until it
	// too is touched by the shared object table... (copies share the
	// session's library, so both pipes see the new code).
	if _, err := s.CopyPipe("fork", "p0"); err != nil {
		t.Fatal(err)
	}
	// The counting testbench enables every other cycle.
	if err := s.Run("step", "fork", 100); err != nil {
		t.Fatal(err)
	}
	fork, _ := s.Pipe("fork")
	if bin, err := fork.Sim.Peek("top.u0.bin"); err != nil || bin != 250 {
		t.Errorf("fork bin %d %v, want 200+50", bin, err)
	}
	edited := strings.Replace(facadeDesign, "bin <= bin + 1;", "bin <= bin + 3;", 1)
	rep, err := s.ApplyChange(livesim.Source{Files: map[string]string{"g.v": edited}})
	if err != nil {
		t.Fatal(err)
	}
	if rep.NoChange || len(rep.Swapped) != 1 {
		t.Fatalf("report %+v", rep)
	}
	rep.WaitVerification()
	for _, h := range rep.Verifications {
		if h.Err != nil {
			t.Fatal(h.Err)
		}
	}
	if s.Version() != "v1" {
		t.Errorf("version %s", s.Version())
	}
	if err := s.Run("tb", "p0", 10); err != nil {
		t.Fatal(err)
	}
	if p.Sim.Cycle() != 210 {
		t.Errorf("cycle %d", p.Sim.Cycle())
	}
}

func TestFacadeStyles(t *testing.T) {
	if livesim.StyleGrouped.String() != "grouped" || livesim.StyleMux.String() != "mux" {
		t.Error("style names")
	}
	s := livesim.NewSession("top", livesim.Config{Style: livesim.StyleMux})
	if _, err := s.LoadDesign(livesim.Source{Files: map[string]string{"g.v": facadeDesign}}); err != nil {
		t.Fatal(err)
	}
}

func TestFacadeCountingTB(t *testing.T) {
	s := livesim.NewSession("top", livesim.Config{})
	if _, err := s.LoadDesign(livesim.Source{Files: map[string]string{"g.v": facadeDesign}}); err != nil {
		t.Fatal(err)
	}
	s.RegisterTestbench("step", livesim.NewCountingTB(func(d *livesim.Driver, step uint64) error {
		return d.SetIn("en", step%2)
	}))
	if _, err := s.InstPipe("p0"); err != nil {
		t.Fatal(err)
	}
	if err := s.Run("step", "p0", 100); err != nil {
		t.Fatal(err)
	}
	p, _ := s.Pipe("p0")
	bin, err := p.Sim.Peek("top.u0.bin")
	if err != nil {
		t.Fatal(err)
	}
	if bin != 50 { // enabled every other cycle
		t.Errorf("bin %d", bin)
	}
}
