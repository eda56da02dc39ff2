// Package randrtl generates random-but-legal LiveHDL modules for the
// differential tests: the codegen styles against each other, and the
// simulation kernel against its reference. It is only imported by tests.
package randrtl

import (
	"fmt"
	"strings"
)

// rtlGen builds random-but-legal LiveHDL modules: acyclic combinational
// nets over declared signals, a clocked process with nested control flow,
// and a fully-assigned combinational process. Each generated design is
// compiled with BOTH codegen styles and simulated in lockstep — the two
// lowering pipelines (symbolic+mux vs. branchy direct emission) act as
// cross-checking implementations.
type rtlGen struct {
	rng  uint64
	w    int      // base vector width
	sigs []string // defined signals readable so far
	sb   strings.Builder
}

func (g *rtlGen) next(mod uint64) uint64 {
	g.rng = g.rng*6364136223846793005 + 1442695040888963407
	return (g.rng >> 33) % mod
}

func (g *rtlGen) pick() string { return g.sigs[g.next(uint64(len(g.sigs)))] }

// expr emits a random expression of bounded depth over defined signals.
func (g *rtlGen) expr(depth int) string {
	if depth <= 0 || g.next(3) == 0 {
		switch g.next(4) {
		case 0:
			return fmt.Sprintf("%d'h%x", g.w, g.next(1<<16))
		default:
			return g.pick()
		}
	}
	switch g.next(24) {
	case 0:
		return fmt.Sprintf("(%s + %s)", g.expr(depth-1), g.expr(depth-1))
	case 1:
		return fmt.Sprintf("(%s - %s)", g.expr(depth-1), g.expr(depth-1))
	case 2:
		return fmt.Sprintf("(%s & %s)", g.expr(depth-1), g.expr(depth-1))
	case 3:
		return fmt.Sprintf("(%s | %s)", g.expr(depth-1), g.expr(depth-1))
	case 4:
		return fmt.Sprintf("(%s ^ %s)", g.expr(depth-1), g.expr(depth-1))
	case 5:
		return fmt.Sprintf("(~%s)", g.expr(depth-1))
	case 6:
		return fmt.Sprintf("(%s >> %d)", g.expr(depth-1), g.next(uint64(g.w)))
	case 7:
		return fmt.Sprintf("(%s << %d)", g.expr(depth-1), g.next(uint64(g.w)))
	case 8:
		return fmt.Sprintf("(%s == %s ? %s : %s)",
			g.expr(depth-1), g.expr(depth-1), g.expr(depth-1), g.expr(depth-1))
	case 9:
		hi := g.next(uint64(g.w))
		lo := g.next(hi + 1)
		return fmt.Sprintf("%s[%d:%d]", g.pick(), hi, lo)
	case 10:
		return fmt.Sprintf("(%s < %s)", g.expr(depth-1), g.expr(depth-1))
	case 11:
		return fmt.Sprintf("($signed(%s) >>> %d)", g.expr(depth-1), g.next(uint64(g.w)))
	case 12:
		return fmt.Sprintf("(%s * %s)", g.expr(depth-1), g.expr(depth-1))
	case 13:
		return fmt.Sprintf("{%s[%d:0], %s[%d:%d]}",
			g.pick(), g.w/2, g.pick(), g.w-1, g.w/2+1)
	case 14:
		return fmt.Sprintf("(%s && %s)", g.expr(depth-1), g.expr(depth-1))
	case 15:
		return fmt.Sprintf("(%s || %s)", g.expr(depth-1), g.expr(depth-1))
	case 16:
		return fmt.Sprintf("(!%s)", g.expr(depth-1))
	case 17:
		return fmt.Sprintf("($signed(%s) < $signed(%s))", g.expr(depth-1), g.expr(depth-1))
	case 18:
		return fmt.Sprintf("%s[%d]", g.pick(), g.next(uint64(g.w)))
	case 19: // a replicated bit
		return fmt.Sprintf("{%d{%s[%d]}}", 1+g.next(uint64(g.w)), g.pick(), g.next(uint64(g.w)))
	case 20: // a replicated field, 64 bits at most
		fw := 1 + g.next(uint64(min(g.w, 8)))
		lo := g.next(uint64(g.w) - fw + 1)
		return fmt.Sprintf("{%d{%s[%d:%d]}}", 1+g.next(64/fw), g.pick(), lo+fw-1, lo)
	case 21: // sign extension the Verilog-2001 way, g.w bits at most
		hi := g.next(uint64(g.w))
		lo := g.next(hi + 1)
		sig := g.pick()
		ext := uint64(g.w) - (hi - lo + 1)
		if ext == 0 {
			return fmt.Sprintf("%s[%d:%d]", sig, hi, lo)
		}
		return fmt.Sprintf("{{%d{%s[%d]}}, %s[%d:%d]}", 1+g.next(ext), sig, hi, sig, hi, lo)
	case 22: // a replicated field beside a select with its top bit: no sign extension
		fw := 2 + g.next(uint64(min(g.w, 8))-1)
		hi := fw - 1 + g.next(uint64(g.w)-fw+1)
		tw := 1 + g.next(min(hi+1, 64-fw))
		sig := g.pick()
		return fmt.Sprintf("{{%d{%s[%d:%d]}}, %s[%d:%d]}", 1+g.next((64-tw)/fw), sig, hi, hi-fw+1, sig, hi, hi-tw+1)
	default: // nested concatenation, g.w bits at most
		h := uint64(g.w) / 2
		lo := g.next(h)
		return fmt.Sprintf("{%s[%d:0], {%s[%d:%d], %s[%d]}}",
			g.pick(), g.next(h-1), g.pick(), lo+g.next(h-lo), lo, g.pick(), g.next(uint64(g.w)))
	}
}

// stmt emits a random procedural statement assigning only regs in targets
// (non-blocking).
func (g *rtlGen) stmt(depth int, targets []string) string {
	tgt := targets[g.next(uint64(len(targets)))]
	if depth <= 0 || g.next(3) == 0 {
		return fmt.Sprintf("      %s <= %s;\n", tgt, g.expr(2))
	}
	switch g.next(3) {
	case 0:
		return fmt.Sprintf("      if (%s)\n  %s", g.expr(1),
			g.stmt(depth-1, targets))
	case 1:
		return fmt.Sprintf("      if (%s) begin\n  %s  %s      end\n", g.expr(1),
			g.stmt(depth-1, targets), g.stmt(depth-1, targets))
	default:
		return fmt.Sprintf("      case (%s[1:0])\n        2'd0: %s        2'd1: %s        default: %s      endcase\n",
			g.pick(),
			strings.TrimLeft(g.stmt(0, targets), " "),
			strings.TrimLeft(g.stmt(0, targets), " "),
			strings.TrimLeft(g.stmt(0, targets), " "))
	}
}

// Module returns the text of a module called name with inputs clk, a, b, c
// and outputs o0..o3, all width bits wide; width 0 draws 4..64 from the
// seed. The same arguments always give the same text.
func Module(seed uint64, name string, width int) string {
	g := &rtlGen{rng: seed*2654435761 + 1}
	g.w = int(4 + g.next(61)) // 4..64 bits
	if width > 0 {
		g.w = width
	}
	g.sigs = []string{"a", "b", "c"}
	fmt.Fprintf(&g.sb, "module %s (input clk, input [%d:0] a, b, c, output [%d:0] o0, o1, o2, o3);\n", name, g.w-1, g.w-1)

	// Combinational wires.
	nWires := int(2 + g.next(6))
	for i := 0; i < nWires; i++ {
		name := fmt.Sprintf("w%d", i)
		fmt.Fprintf(&g.sb, "  wire [%d:0] %s = %s;\n", g.w-1, name, g.expr(3))
		g.sigs = append(g.sigs, name)
	}

	// Registers in a clocked process.
	nRegs := int(2 + g.next(3))
	var regs []string
	for i := 0; i < nRegs; i++ {
		name := fmt.Sprintf("r%d", i)
		fmt.Fprintf(&g.sb, "  reg [%d:0] %s;\n", g.w-1, name)
		regs = append(regs, name)
	}
	g.sb.WriteString("  always @(posedge clk) begin\n")
	nStmts := int(2 + g.next(4))
	for i := 0; i < nStmts; i++ {
		g.sb.WriteString(g.stmt(2, regs))
	}
	g.sb.WriteString("  end\n")
	g.sigs = append(g.sigs, regs...)

	// A fully-assigned comb process.
	fmt.Fprintf(&g.sb, "  reg [%d:0] y;\n", g.w-1)
	fmt.Fprintf(&g.sb, "  always @(*) begin\n    y = %s;\n    if (%s)\n      y = %s;\n  end\n",
		g.expr(2), g.expr(1), g.expr(2))
	g.sigs = append(g.sigs, "y")

	fmt.Fprintf(&g.sb, "  assign o0 = %s;\n", g.pick())
	fmt.Fprintf(&g.sb, "  assign o1 = %s;\n", g.expr(2))
	fmt.Fprintf(&g.sb, "  assign o2 = y;\n")
	fmt.Fprintf(&g.sb, "  assign o3 = %s ^ %s;\n", g.pick(), g.pick())
	g.sb.WriteString("endmodule\n")
	return g.sb.String()
}
