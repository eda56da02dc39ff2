// Package pgas provides the paper's benchmark workload: a partitioned
// global address space (PGAS) multicore of 5-stage RV64I processors
// (Section IV). Each pipeline stage is its own LiveHDL module — the exact
// "7 shared libraries: 5 for the stages, 1 top-level, 1 testbench" layout
// the paper evaluates — so a hot reload of one stage swaps one object into
// every core of the mesh.
//
// The memory map follows the paper: every node owns 32 KB of local store.
// Addresses with bit 31 set are global: bits [30:16] select the owning
// node, and any core can load/store any other node's memory through the
// fabric (plain low addresses and the node's own window stay local). The paper's mesh NoC is simplified to a
// single-grant-per-cycle crossbar fabric (see DESIGN.md: the evaluation
// depends on design size scaling, not NoC latency).
package pgas

// StageIF is the fetch stage: PC register, redirect handling, sticky halt.
const StageIF = `
module stage_if (
  input clk,
  input mem_busy,          // global stall from MEM
  input hazard,            // decode stall from ID
  input redirect,          // taken branch/jump (or halt) resolved in EX
  input [63:0] redirect_pc,
  input halt,              // ecall/ebreak reached EX
  input [63:0] fetch_word, // memory word containing the PC (async read)
  output [11:0] fetch_idx, // word index of the PC
  output [63:0] pc,
  output [31:0] instr,
  output valid,
  output halted
);
  reg [63:0] pc_r;
  reg halted_r;
  reg [3:0] drain;

  assign fetch_idx = pc_r[14:3];
  assign pc = pc_r;
  assign instr = pc_r[2] ? fetch_word[63:32] : fetch_word[31:0];
  assign valid = !halted_r && !halt;
  // Instructions older than the ecall are still in flight when halted_r
  // sets; report halt only after the pipeline has provably drained.
  assign halted = drain[3];

  always @(posedge clk) begin
    if (halt) halted_r <= 1'b1;
    if (!mem_busy)
      drain <= {drain[2:0], halted_r};
    if (!mem_busy) begin
      if (redirect)
        pc_r <= redirect_pc;
      else if (!hazard && !halted_r && !halt)
        pc_r <= pc_r + 64'd4;
    end
  end
endmodule
`

// StageID is decode: the IF/ID pipeline register, the architectural
// register file, operand fetch, and scoreboard hazard detection (the core
// is stall-based: a source register pending in EX/MEM/WB stalls decode).
const StageID = `
module stage_id (
  input clk,
  input mem_busy,
  input redirect,
  input if_valid,
  input [63:0] if_pc,
  input [31:0] if_instr,
  // register file write port (driven by WB)
  input wb_we,
  input [4:0] wb_rd,
  input [63:0] wb_data,
  // pending register writes, for hazard detection
  input ex_pend,
  input [4:0] ex_pend_rd,
  input mem_pend,
  input [4:0] mem_pend_rd,
  input wb_pend,
  input [4:0] wb_pend_rd,
  // to EX
  output valid,
  output [63:0] pc,
  output [31:0] instr,
  output [63:0] rs1val,
  output [63:0] rs2val,
  output hazard
);
  reg vr;
  reg [63:0] pc_r;
  reg [31:0] ir;
  reg [63:0] rf [0:31];

  always @(posedge clk) begin
    if (wb_we) rf[wb_rd] <= wb_data;
    if (!mem_busy) begin
      if (redirect)
        vr <= 1'b0;
      else if (!hazard) begin
        vr <= if_valid;
        pc_r <= if_pc;
        ir <= if_instr;
      end
    end
  end

  wire [6:0] opcode = ir[6:0];
  wire [4:0] rs1 = ir[19:15];
  wire [4:0] rs2 = ir[24:20];

  // Opcode classes that read sources.
  wire is_lui    = opcode == 7'b0110111;
  wire is_auipc  = opcode == 7'b0010111;
  wire is_jal    = opcode == 7'b1101111;
  wire is_system = opcode == 7'b1110011;
  wire is_fence  = opcode == 7'b0001111;
  wire is_branch = opcode == 7'b1100011;
  wire is_store  = opcode == 7'b0100011;
  wire is_reg    = opcode == 7'b0110011;
  wire is_reg32  = opcode == 7'b0111011;

  wire uses_rs1 = vr && !is_lui && !is_auipc && !is_jal && !is_system && !is_fence;
  wire uses_rs2 = vr && (is_branch || is_store || is_reg || is_reg32);

  wire match1 = (rs1 != 5'd0) &&
    ((ex_pend && (ex_pend_rd == rs1)) ||
     (mem_pend && (mem_pend_rd == rs1)) ||
     (wb_pend && (wb_pend_rd == rs1)));
  wire match2 = (rs2 != 5'd0) &&
    ((ex_pend && (ex_pend_rd == rs2)) ||
     (mem_pend && (mem_pend_rd == rs2)) ||
     (wb_pend && (wb_pend_rd == rs2)));

  assign hazard = (uses_rs1 && match1) || (uses_rs2 && match2);

  assign valid = vr;
  assign pc = pc_r;
  assign instr = ir;
  assign rs1val = (rs1 == 5'd0) ? 64'd0 : rf[rs1];
  assign rs2val = (rs2 == 5'd0) ? 64'd0 : rf[rs2];
endmodule
`

// StageEX is execute: the ID/EX register, the ALU, branch/jump resolution
// (redirect), and halt detection.
const StageEX = `
module stage_ex (
  input clk,
  input mem_busy,
  input hazard,
  input id_valid,
  input [63:0] id_pc,
  input [31:0] id_instr,
  input [63:0] id_rs1val,
  input [63:0] id_rs2val,
  // control outputs
  output redirect,
  output [63:0] redirect_pc,
  output halt,
  output pend,
  output [4:0] pend_rd,
  // to MEM
  output valid,
  output [63:0] result,
  output [63:0] store_data,
  output is_load,
  output is_store,
  output [2:0] mem_func,
  output regwrite,
  output [4:0] rd
);
  reg vr;
  reg [63:0] pc_r;
  reg [31:0] ir;
  reg [63:0] a_r;
  reg [63:0] b_r;

  always @(posedge clk) begin
    if (!mem_busy) begin
      if (redirect || halt || hazard)
        vr <= 1'b0;
      else begin
        vr <= id_valid;
        pc_r <= id_pc;
        ir <= id_instr;
        a_r <= id_rs1val;
        b_r <= id_rs2val;
      end
    end
  end

  wire [6:0] opcode = ir[6:0];
  wire [2:0] f3 = ir[14:12];
  wire [6:0] f7 = ir[31:25];

  wire is_lui    = opcode == 7'b0110111;
  wire is_auipc  = opcode == 7'b0010111;
  wire is_jal    = opcode == 7'b1101111;
  wire is_jalr   = opcode == 7'b1100111;
  wire is_branch = opcode == 7'b1100011;
  wire is_load_w = opcode == 7'b0000011;
  wire is_store_w = opcode == 7'b0100011;
  wire is_imm    = opcode == 7'b0010011;
  wire is_imm32  = opcode == 7'b0011011;
  wire is_reg    = opcode == 7'b0110011;
  wire is_reg32  = opcode == 7'b0111011;
  wire is_system = opcode == 7'b1110011;
  wire is_w      = is_imm32 || is_reg32;

  // Immediates.
  wire [63:0] imm_i = {{52{ir[31]}}, ir[31:20]};
  wire [63:0] imm_s = {{52{ir[31]}}, ir[31:25], ir[11:7]};
  wire [63:0] imm_b = {{51{ir[31]}}, ir[31], ir[7], ir[30:25], ir[11:8], 1'b0};
  wire [63:0] imm_u = {{32{ir[31]}}, ir[31:12], 12'b0};
  wire [63:0] imm_j = {{43{ir[31]}}, ir[31], ir[19:12], ir[20], ir[30:21], 1'b0};

  // ALU operands.
  wire use_imm = is_imm || is_imm32 || is_load_w || is_store_w || is_jalr;
  wire [63:0] op_a = a_r;
  wire [63:0] op_b = use_imm ? ((is_store_w) ? imm_s : imm_i) : b_r;

  // 32-bit operand views, sign-extended to 64 so one 64-bit ALU serves.
  wire [63:0] a32 = {{32{op_a[31]}}, op_a[31:0]};
  wire [63:0] alu_a = is_w ? a32 : op_a;
  wire [5:0] shamt = is_w ? {1'b0, op_b[4:0]} : op_b[5:0];

  // funct7 bit 30 selects sub/sra; immediates use it only for shifts.
  wire alt = ir[30] && (is_reg || is_reg32 || (f3 == 3'b101));

  reg [63:0] alu_y;
  always @(*) begin
    case (f3)
      3'b000: alu_y = alt && (is_reg || is_reg32) ? alu_a - op_b : alu_a + op_b;
      3'b001: alu_y = alu_a << shamt;
      3'b010: alu_y = ($signed(op_a) < $signed(op_b)) ? 64'd1 : 64'd0;
      3'b011: alu_y = (op_a < op_b) ? 64'd1 : 64'd0;
      3'b100: alu_y = alu_a ^ op_b;
      3'b101: alu_y = alt ? ($signed(alu_a) >>> shamt)
                          : (is_w ? ({32'b0, alu_a[31:0]} >> shamt) : (alu_a >> shamt));
      3'b110: alu_y = alu_a | op_b;
      default: alu_y = alu_a & op_b;
    endcase
  end
  wire [63:0] alu_res = is_w ? {{32{alu_y[31]}}, alu_y[31:0]} : alu_y;

  // Branch decision.
  reg taken_r;
  always @(*) begin
    case (f3)
      3'b000: taken_r = a_r == b_r;
      3'b001: taken_r = a_r != b_r;
      3'b100: taken_r = $signed(a_r) < $signed(b_r);
      3'b101: taken_r = !($signed(a_r) < $signed(b_r));
      3'b110: taken_r = a_r < b_r;
      3'b111: taken_r = !(a_r < b_r);
      default: taken_r = 1'b0;
    endcase
  end

  wire do_branch = is_branch && taken_r;
  assign halt = vr && is_system;
  assign redirect = vr && (is_jal || is_jalr || do_branch);
  assign redirect_pc = is_jal ? (pc_r + imm_j)
                     : is_jalr ? ((a_r + imm_i) & 64'hFFFF_FFFF_FFFF_FFFE)
                     : (pc_r + imm_b);

  // Result selection. Loads and stores always *add* base and offset —
  // their funct3 field encodes the access size, not an ALU operation.
  assign result = is_lui ? imm_u
                : is_auipc ? (pc_r + imm_u)
                : (is_jal || is_jalr) ? (pc_r + 64'd4)
                : (is_load_w || is_store_w) ? (a_r + op_b)
                : alu_res;

  assign store_data = b_r;
  assign is_load = vr && is_load_w;
  assign is_store = vr && is_store_w;
  assign mem_func = f3;
  assign regwrite = vr && !is_branch && !is_store_w && !is_system && (ir[11:7] != 5'd0);
  assign rd = ir[11:7];
  assign pend = regwrite;
  assign pend_rd = ir[11:7];
  assign valid = vr;
endmodule
`

// StageMEM is the memory stage: local loads/stores against the node's
// 32 KB store (with sub-word merge), remote PGAS accesses through the
// fabric (stalling the pipeline until the fabric grants), and the load
// result mux.
const StageMEM = `
module stage_mem (
  input clk,
  input [15:0] node_id,
  input ex_valid,
  input [63:0] ex_result,
  input [63:0] ex_store_data,
  input ex_is_load,
  input ex_is_store,
  input [2:0] ex_mem_func,
  input ex_regwrite,
  input [4:0] ex_rd,
  // local memory data port (async read, posedge write)
  output [11:0] l_idx,
  input [63:0] l_rdata,
  output l_we,
  output [11:0] l_widx,
  output [63:0] l_wdata,
  // remote (fabric) port: 8-byte aligned doubleword ops only
  output r_req,
  output [31:0] r_addr,
  output [63:0] r_wdata,
  output r_we,
  input r_ack,
  input [63:0] r_rdata,
  // pipeline control
  output mem_busy,
  output pend,
  output [4:0] pend_rd,
  // to WB
  output valid,
  output regwrite,
  output [4:0] rd,
  output [63:0] result
);
  reg vr;
  reg [63:0] res_r;
  reg [63:0] sdata_r;
  reg ld_r;
  reg st_r;
  reg [2:0] func_r;
  reg rw_r;
  reg [4:0] rd_r;

  always @(posedge clk) begin
    if (!mem_busy) begin
      vr <= ex_valid;
      res_r <= ex_result;
      sdata_r <= ex_store_data;
      ld_r <= ex_is_load;
      st_r <= ex_is_store;
      func_r <= ex_mem_func;
      rw_r <= ex_regwrite;
      rd_r <= ex_rd;
    end
  end

  wire [63:0] addr = res_r;
  wire is_mem = vr && (ld_r || st_r);
  // Global addresses set bit 31; bits [30:16] name the owning node. Plain
  // low addresses and the node's own window are local.
  wire [14:0] owner = addr[30:16];
  wire is_remote = is_mem && addr[31] && (owner != node_id[14:0]);

  // Remote interface.
  assign r_req = is_remote;
  assign r_addr = addr[31:0];
  assign r_wdata = sdata_r;
  assign r_we = st_r;
  assign mem_busy = is_remote && !r_ack;

  // Local access with sub-word handling.
  assign l_idx = addr[14:3];
  wire [5:0] sh = {addr[2:0], 3'b000};
  wire [1:0] size = func_r[1:0];
  wire [63:0] mask = (size == 2'd0) ? 64'h0000_0000_0000_00FF
                   : (size == 2'd1) ? 64'h0000_0000_0000_FFFF
                   : (size == 2'd2) ? 64'h0000_0000_FFFF_FFFF
                   : 64'hFFFF_FFFF_FFFF_FFFF;

  wire [63:0] raw_local = (l_rdata >> sh) & mask;
  wire [63:0] raw = is_remote ? r_rdata : raw_local;

  // Sign extension for lb/lh/lw (func_r[2] == 0 means signed).
  wire [63:0] sext8  = {{56{raw[7]}},  raw[7:0]};
  wire [63:0] sext16 = {{48{raw[15]}}, raw[15:0]};
  wire [63:0] sext32 = {{32{raw[31]}}, raw[31:0]};
  wire [63:0] loaded = func_r[2] ? raw
                     : (size == 2'd0) ? sext8
                     : (size == 2'd1) ? sext16
                     : (size == 2'd2) ? sext32
                     : raw;

  // Store merge (read-modify-write on the 64-bit word).
  assign l_we = vr && st_r && !is_remote;
  assign l_widx = addr[14:3];
  assign l_wdata = (l_rdata & ~(mask << sh)) | ((sdata_r & mask) << sh);

  assign result = ld_r ? loaded : res_r;
  assign regwrite = rw_r;
  assign rd = rd_r;
  assign valid = vr && !mem_busy;
  assign pend = vr && rw_r;
  assign pend_rd = rd_r;
endmodule
`

// StageWB is writeback: the MEM/WB register driving the register file's
// write port back in ID.
const StageWB = `
module stage_wb (
  input clk,
  input mem_valid,
  input mem_regwrite,
  input [4:0] mem_rd,
  input [63:0] mem_result,
  output we,
  output [4:0] rd,
  output [63:0] data,
  output pend,
  output [4:0] pend_rd
);
  reg vr;
  reg rw_r;
  reg [4:0] rd_r;
  reg [63:0] res_r;

  always @(posedge clk) begin
    vr <= mem_valid;
    rw_r <= mem_regwrite;
    rd_r <= mem_rd;
    res_r <= mem_result;
  end

  assign we = vr && rw_r;
  assign rd = rd_r;
  assign data = res_r;
  assign pend = vr && rw_r;
  assign pend_rd = rd_r;
endmodule
`

// RVCore is the top-level core module instantiating the five stages —
// the paper's "single top-level parent, which is also its own module".
const RVCore = `
module rv_core (
  input clk,
  input [15:0] node_id,
  // instruction port
  output [11:0] fetch_idx,
  input [63:0] fetch_word,
  // data port
  output [11:0] d_idx,
  input [63:0] d_rdata,
  output d_we,
  output [11:0] d_widx,
  output [63:0] d_wdata,
  // remote port
  output r_req,
  output [31:0] r_addr,
  output [63:0] r_wdata,
  output r_we,
  input r_ack,
  input [63:0] r_rdata,
  output halted
);
  wire mem_busy, hazard, redirect, halt;
  wire [63:0] redirect_pc;

  wire if_valid;
  wire [63:0] if_pc;
  wire [31:0] if_instr;

  wire id_valid, id_hazard;
  wire [63:0] id_pc, id_rs1val, id_rs2val;
  wire [31:0] id_instr;

  wire ex_valid, ex_is_load, ex_is_store, ex_regwrite, ex_pend;
  wire [63:0] ex_result, ex_store_data;
  wire [2:0] ex_mem_func;
  wire [4:0] ex_rd, ex_pend_rd;

  wire mem_valid, mem_regwrite, mem_pend;
  wire [63:0] mem_result;
  wire [4:0] mem_rd, mem_pend_rd;

  wire wb_we, wb_pend;
  wire [4:0] wb_rd, wb_pend_rd;
  wire [63:0] wb_data;

  assign hazard = id_hazard;

  stage_if u_if (
    .clk(clk), .mem_busy(mem_busy), .hazard(hazard),
    .redirect(redirect), .redirect_pc(redirect_pc), .halt(halt),
    .fetch_word(fetch_word), .fetch_idx(fetch_idx),
    .pc(if_pc), .instr(if_instr), .valid(if_valid), .halted(halted)
  );

  stage_id u_id (
    .clk(clk), .mem_busy(mem_busy), .redirect(redirect || halt),
    .if_valid(if_valid), .if_pc(if_pc), .if_instr(if_instr),
    .wb_we(wb_we), .wb_rd(wb_rd), .wb_data(wb_data),
    .ex_pend(ex_pend), .ex_pend_rd(ex_pend_rd),
    .mem_pend(mem_pend), .mem_pend_rd(mem_pend_rd),
    .wb_pend(wb_pend), .wb_pend_rd(wb_pend_rd),
    .valid(id_valid), .pc(id_pc), .instr(id_instr),
    .rs1val(id_rs1val), .rs2val(id_rs2val), .hazard(id_hazard)
  );

  stage_ex u_ex (
    .clk(clk), .mem_busy(mem_busy), .hazard(hazard),
    .id_valid(id_valid), .id_pc(id_pc), .id_instr(id_instr),
    .id_rs1val(id_rs1val), .id_rs2val(id_rs2val),
    .redirect(redirect), .redirect_pc(redirect_pc), .halt(halt),
    .pend(ex_pend), .pend_rd(ex_pend_rd),
    .valid(ex_valid), .result(ex_result), .store_data(ex_store_data),
    .is_load(ex_is_load), .is_store(ex_is_store), .mem_func(ex_mem_func),
    .regwrite(ex_regwrite), .rd(ex_rd)
  );

  stage_mem u_mem (
    .clk(clk), .node_id(node_id),
    .ex_valid(ex_valid), .ex_result(ex_result), .ex_store_data(ex_store_data),
    .ex_is_load(ex_is_load), .ex_is_store(ex_is_store), .ex_mem_func(ex_mem_func),
    .ex_regwrite(ex_regwrite), .ex_rd(ex_rd),
    .l_idx(d_idx), .l_rdata(d_rdata),
    .l_we(d_we), .l_widx(d_widx), .l_wdata(d_wdata),
    .r_req(r_req), .r_addr(r_addr), .r_wdata(r_wdata), .r_we(r_we),
    .r_ack(r_ack), .r_rdata(r_rdata),
    .mem_busy(mem_busy), .pend(mem_pend), .pend_rd(mem_pend_rd),
    .valid(mem_valid), .regwrite(mem_regwrite), .rd(mem_rd), .result(mem_result)
  );

  stage_wb u_wb (
    .clk(clk),
    .mem_valid(mem_valid), .mem_regwrite(mem_regwrite),
    .mem_rd(mem_rd), .mem_result(mem_result),
    .we(wb_we), .rd(wb_rd), .data(wb_data),
    .pend(wb_pend), .pend_rd(wb_pend_rd)
  );
endmodule
`

// NodeMem is the node's 32 KB local store: 4096 x 64-bit words with two
// async read ports (fetch + data), one core write port, and a fabric port
// for remote accesses.
const NodeMem = `
module node_mem (
  input clk,
  input [11:0] fetch_idx,
  output [63:0] fetch_data,
  input [11:0] core_idx,
  output [63:0] core_rdata,
  input core_we,
  input [11:0] core_widx,
  input [63:0] core_wdata,
  input [11:0] fab_idx,
  output [63:0] fab_rdata,
  input fab_we,
  input [63:0] fab_wdata
);
  reg [63:0] mem [0:4095];

  assign fetch_data = mem[fetch_idx];
  assign core_rdata = mem[core_idx];
  assign fab_rdata = mem[fab_idx];

  always @(posedge clk) begin
    if (core_we) mem[core_widx] <= core_wdata;
    if (fab_we) mem[fab_idx] <= fab_wdata;
  end
endmodule
`

// PGASNode bundles one core with its local store and exposes the fabric
// ports. node_id is an input port, not a parameter, so every node in the
// mesh shares a single compiled object (the paper's anti-bloat property).
const PGASNode = `
module pgas_node (
  input clk,
  input [15:0] node_id,
  // remote request out (this core accessing another node)
  output r_req,
  output [31:0] r_addr,
  output [63:0] r_wdata,
  output r_we,
  input r_ack,
  input [63:0] r_rdata,
  // fabric access into this node's memory
  input [11:0] fab_idx,
  output [63:0] fab_rdata,
  input fab_we,
  input [63:0] fab_wdata,
  output halted
);
  wire [11:0] fetch_idx, d_idx, d_widx;
  wire [63:0] fetch_word, d_rdata, d_wdata;
  wire d_we;

  rv_core u_core (
    .clk(clk), .node_id(node_id),
    .fetch_idx(fetch_idx), .fetch_word(fetch_word),
    .d_idx(d_idx), .d_rdata(d_rdata),
    .d_we(d_we), .d_widx(d_widx), .d_wdata(d_wdata),
    .r_req(r_req), .r_addr(r_addr), .r_wdata(r_wdata), .r_we(r_we),
    .r_ack(r_ack), .r_rdata(r_rdata),
    .halted(halted)
  );

  node_mem u_mem (
    .clk(clk),
    .fetch_idx(fetch_idx), .fetch_data(fetch_word),
    .core_idx(d_idx), .core_rdata(d_rdata),
    .core_we(d_we), .core_widx(d_widx), .core_wdata(d_wdata),
    .fab_idx(fab_idx), .fab_rdata(fab_rdata),
    .fab_we(fab_we), .fab_wdata(fab_wdata)
  );
endmodule
`
