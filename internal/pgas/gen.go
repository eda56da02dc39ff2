package pgas

import (
	"fmt"
	"strings"
)

// GenerateMesh emits the generated part of the design for an n-node PGAS:
// the crossbar fabric and the mesh top module. n == 1 produces a minimal
// wrapper with the remote port tied off. The returned source, with the
// fixed modules DesignSource lists, is a complete design whose top module
// is TopName(n).
func GenerateMesh(n int) string {
	if n <= 1 {
		return singleTop
	}
	var sb strings.Builder
	genFabric(&sb, n)
	genTop(&sb, n)
	return sb.String()
}

// TopName returns the top-level module name for an n-node mesh.
func TopName(n int) string {
	if n <= 1 {
		return "pgas_1"
	}
	return fmt.Sprintf("pgas_%d", n)
}

// NodePath returns the hierarchical instance path of node i under the
// simulation root.
func NodePath(n, i int) string {
	if n <= 1 {
		return "top.n0"
	}
	return fmt.Sprintf("top.n%d", i)
}

// MemPath returns the hierarchical path of node i's 32 KB store.
func MemPath(n, i int) string { return NodePath(n, i) + ".u_mem.mem" }

// RegfilePath returns the hierarchical path of node i's register file.
func RegfilePath(n, i int) string { return NodePath(n, i) + ".u_core.u_id.rf" }

const singleTop = `
module pgas_1 (
  input clk,
  output halted_all
);
  wire r_req, r_we;
  wire [31:0] r_addr;
  wire [63:0] r_wdata;
  wire [63:0] fab_rdata;

  pgas_node n0 (
    .clk(clk), .node_id(16'd0),
    .r_req(r_req), .r_addr(r_addr), .r_wdata(r_wdata), .r_we(r_we),
    .r_ack(1'b1), .r_rdata(64'd0),
    .fab_idx(12'd0), .fab_rdata(fab_rdata), .fab_we(1'b0), .fab_wdata(64'd0),
    .halted(halted_all)
  );
endmodule
`

// genFabric emits fabric_N: a single-grant-per-cycle priority crossbar.
// One requester is served per cycle (combinationally): its target node's
// memory is read or written through the fab port and the ack returns the
// same cycle, so an uncontended remote access costs one extra MEM cycle.
func genFabric(sb *strings.Builder, n int) {
	fmt.Fprintf(sb, "module fabric_%d (\n  input clk", n)
	for i := 0; i < n; i++ {
		fmt.Fprintf(sb, ",\n  input req%d, input [31:0] addr%d, input [63:0] wdata%d, input we%d, output ack%d, output [63:0] rdata%d",
			i, i, i, i, i, i)
	}
	for i := 0; i < n; i++ {
		fmt.Fprintf(sb, ",\n  output [11:0] fidx%d, output fwe%d, output [63:0] fwdata%d, input [63:0] frdata%d",
			i, i, i, i)
	}
	sb.WriteString("\n);\n")

	// Linear priority chain: grant_i = req_i & no earlier request.
	sb.WriteString("  wire any0 = req0;\n")
	for i := 1; i < n; i++ {
		fmt.Fprintf(sb, "  wire any%d = any%d | req%d;\n", i, i-1, i)
	}
	sb.WriteString("  wire g0 = req0;\n")
	for i := 1; i < n; i++ {
		fmt.Fprintf(sb, "  wire g%d = req%d & !any%d;\n", i, i, i-1)
	}

	// Granted request mux.
	mux := func(field string, width int) {
		fmt.Fprintf(sb, "  wire [%d:0] gsel_%s = ", width-1, field)
		for i := 0; i < n-1; i++ {
			fmt.Fprintf(sb, "g%d ? %s%d : ", i, field, i)
		}
		fmt.Fprintf(sb, "%s%d;\n", field, n-1)
	}
	mux("addr", 32)
	mux("wdata", 64)
	sb.WriteString("  wire gwe = ")
	for i := 0; i < n-1; i++ {
		fmt.Fprintf(sb, "g%d ? we%d : ", i, i)
	}
	fmt.Fprintf(sb, "we%d;\n", n-1)

	sb.WriteString("  wire [14:0] tgt = gsel_addr[30:16];\n")
	sb.WriteString("  wire [11:0] goff = gsel_addr[14:3];\n")

	// Per-node fab port drive.
	for i := 0; i < n; i++ {
		fmt.Fprintf(sb, "  wire hit%d = any%d && (tgt == 15'd%d);\n", i, n-1, i)
		fmt.Fprintf(sb, "  assign fidx%d = goff;\n", i)
		fmt.Fprintf(sb, "  assign fwe%d = hit%d && gwe;\n", i, i)
		fmt.Fprintf(sb, "  assign fwdata%d = gsel_wdata;\n", i)
	}

	// Response data: mux the target node's read data.
	sb.WriteString("  wire [63:0] grdata = ")
	for i := 0; i < n-1; i++ {
		fmt.Fprintf(sb, "(tgt == 15'd%d) ? frdata%d : ", i, i)
	}
	fmt.Fprintf(sb, "frdata%d;\n", n-1)

	for i := 0; i < n; i++ {
		fmt.Fprintf(sb, "  assign ack%d = g%d;\n", i, i)
		fmt.Fprintf(sb, "  assign rdata%d = grdata;\n", i)
	}
	sb.WriteString("endmodule\n")
}

// genTop emits pgas_N: n nodes plus the fabric.
func genTop(sb *strings.Builder, n int) {
	fmt.Fprintf(sb, "module pgas_%d (\n  input clk,\n  output halted_all\n);\n", n)
	for i := 0; i < n; i++ {
		fmt.Fprintf(sb, "  wire req%d, we%d, ack%d, halted%d;\n", i, i, i, i)
		fmt.Fprintf(sb, "  wire [31:0] addr%d;\n", i)
		fmt.Fprintf(sb, "  wire [63:0] wdata%d, rdata%d, frdata%d, fwdata%d;\n", i, i, i, i)
		fmt.Fprintf(sb, "  wire [11:0] fidx%d;\n", i)
		fmt.Fprintf(sb, "  wire fwe%d;\n", i)
	}
	for i := 0; i < n; i++ {
		fmt.Fprintf(sb, `  pgas_node n%d (
    .clk(clk), .node_id(16'd%d),
    .r_req(req%d), .r_addr(addr%d), .r_wdata(wdata%d), .r_we(we%d),
    .r_ack(ack%d), .r_rdata(rdata%d),
    .fab_idx(fidx%d), .fab_rdata(frdata%d), .fab_we(fwe%d), .fab_wdata(fwdata%d),
    .halted(halted%d)
  );
`, i, i, i, i, i, i, i, i, i, i, i, i, i)
	}
	fmt.Fprintf(sb, "  fabric_%d u_fab (\n    .clk(clk)", n)
	for i := 0; i < n; i++ {
		fmt.Fprintf(sb, ",\n    .req%d(req%d), .addr%d(addr%d), .wdata%d(wdata%d), .we%d(we%d), .ack%d(ack%d), .rdata%d(rdata%d)",
			i, i, i, i, i, i, i, i, i, i, i, i)
	}
	for i := 0; i < n; i++ {
		fmt.Fprintf(sb, ",\n    .fidx%d(fidx%d), .fwe%d(fwe%d), .fwdata%d(fwdata%d), .frdata%d(frdata%d)",
			i, i, i, i, i, i, i, i)
	}
	sb.WriteString("\n  );\n")

	// halted_all = AND of all nodes' halted flags.
	sb.WriteString("  assign halted_all = halted0")
	for i := 1; i < n; i++ {
		fmt.Fprintf(sb, " & halted%d", i)
	}
	sb.WriteString(";\nendmodule\n")
}

// DesignSource returns the complete LiveHDL source for an n-node PGAS as
// a single-file source map, ready for liveparser/livecompiler.
func DesignSource(n int) map[string]string {
	return map[string]string{
		"stage_if.v":  StageIF,
		"stage_id.v":  StageID,
		"stage_ex.v":  StageEX,
		"stage_mem.v": StageMEM,
		"stage_wb.v":  StageWB,
		"rv_core.v":   RVCore,
		"node_mem.v":  NodeMem,
		"pgas_node.v": PGASNode,
		"mesh.v":      GenerateMesh(n),
	}
}
