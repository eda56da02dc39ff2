package codegen

import (
	"fmt"
	"strings"
	"testing"

	"livesim/internal/vm"
)

// The lowerings that emit one op for a whole construct are checked against
// the same value spelled with constructs whose lowering stayed as it was:
// a replication against the concatenation written out, a logical operator
// against the reductions it abbreviates, a select against shift and mask.
// Both spellings sit in one module as output pairs y<i>/z<i>.

// stimulus returns corner values of a width-bit vector, then seeded random
// ones.
func stimulus(width int, seed uint64) []uint64 {
	m := vm.Mask(width)
	vals := []uint64{0, m, 1, m ^ 1, 1 << uint(width-1), m >> 1, 0xAAAAAAAAAAAAAAAA & m, 0x5555555555555555 & m}
	for i := 0; i < 24; i++ {
		seed = seed*6364136223846793005 + 1442695040888963407
		vals = append(vals, (seed>>7)&m)
	}
	return vals
}

// checkPairs compiles a module whose body assigns the output pairs and
// requires y<i> == z<i> after RunComb for every combination of inputs a, b.
func checkPairs(t *testing.T, width, pairs int, body string) {
	t.Helper()
	var ports []string
	for i := 0; i < pairs; i++ {
		ports = append(ports, fmt.Sprintf("y%d, z%d", i, i))
	}
	src := fmt.Sprintf("module m (input [%d:0] a, b, output [63:0] %s);\n%sendmodule\n",
		width-1, strings.Join(ports, ", "), body)
	bothStyles(t, func(t *testing.T, style Style) {
		h := newHarness(t, src, "m", style)
		for _, a := range stimulus(width, 1) {
			for _, b := range stimulus(width, 2)[:12] {
				h.in("a", a)
				h.in("b", b)
				h.comb()
				for i := 0; i < pairs; i++ {
					y, z := h.out(fmt.Sprintf("y%d", i)), h.out(fmt.Sprintf("z%d", i))
					if y != z {
						t.Fatalf("a=%#x b=%#x: y%d=%#x, written out z%d=%#x\n%s\n%s", a, b, i, y, i, z, src, disasm(h.obj.Comb))
					}
				}
			}
		}
	})
}

func TestReplicationMatchesConcatenation(t *testing.T) {
	for width := 1; width <= 8; width++ {
		var body strings.Builder
		pairs := 0
		for n := 1; n*width <= 64; n++ {
			parts := strings.TrimSuffix(strings.Repeat("a, ", n), ", ")
			fmt.Fprintf(&body, "  assign y%d = {%d{a}};\n  assign z%d = {%s};\n", pairs, n, pairs, parts)
			pairs++
		}
		t.Run(fmt.Sprintf("w%d", width), func(t *testing.T) { checkPairs(t, width, pairs, body.String()) })
	}
}

func TestLogicalOperatorsMatchReductions(t *testing.T) {
	for _, width := range []int{1, 2, 64} {
		t.Run(fmt.Sprintf("w%d", width), func(t *testing.T) {
			checkPairs(t, width, 4, `
  assign y0 = a && b;      assign z0 = (|a) & (|b);
  assign y1 = a || b;      assign z1 = (|a) | (|b);
  assign y2 = a && (a<b);  assign z2 = (|a) & (a<b);
  assign y3 = (a==b) || b; assign z3 = (a==b) | (|b);
`)
		})
	}
}

func TestSelectsMatchShiftAndMask(t *testing.T) {
	for _, width := range []int{1, 5, 8, 33, 64} {
		edges := []int{0, 1, width / 2, width - 2, width - 1}
		var body strings.Builder
		pairs := 0
		seen := map[[2]int]bool{}
		for _, hi := range edges {
			for _, lo := range edges {
				if lo < 0 || hi < lo || seen[[2]int{hi, lo}] {
					continue
				}
				seen[[2]int{hi, lo}] = true
				fmt.Fprintf(&body, "  assign y%d = a[%d:%d];\n  assign z%d = (a >> %d) & 64'h%x;\n",
					pairs, hi, lo, pairs, lo, vm.Mask(hi-lo+1))
				pairs++
				if hi == lo {
					fmt.Fprintf(&body, "  assign y%d = a[%d];\n  assign z%d = (a >> %d) & 64'h1;\n", pairs, hi, pairs, lo)
					pairs++
				}
				// Sign extension, {{n{a[hi]}}, a[hi:lo]}, against the bit
				// written n times.
				for _, n := range []int{1, 3, 64 - (hi - lo + 1)} {
					if n < 1 || n+hi-lo+1 > 64 {
						continue
					}
					bit := fmt.Sprintf("a[%d], ", hi)
					fmt.Fprintf(&body, "  assign y%d = {{%d{a[%d]}}, a[%d:%d]};\n  assign z%d = {%sa[%d:%d]};\n",
						pairs, n, hi, hi, lo, pairs, strings.Repeat(bit, n), hi, lo)
					pairs++
				}
			}
		}
		t.Run(fmt.Sprintf("w%d", width), func(t *testing.T) { checkPairs(t, width, pairs, body.String()) })
	}
}

// TestReplicatedFieldIsNotASignExtension: a replicated multi-bit select next
// to a select with the same top bit has the shape of {{n{x[m]}}, x[m:l]},
// the Verilog-2001 sign extension, and is not one: a lowering that takes the
// pair as a unit has to tell them apart.
func TestReplicatedFieldIsNotASignExtension(t *testing.T) {
	checkPairs(t, 8, 5, `
  assign y0 = {{2{a[7:4]}}, a[7:0]};       assign z0 = {a[7:4], a[7:4], a[7:0]};
  assign y1 = {{3{a[7:6]}}, a[7:2]};       assign z1 = {a[7:6], a[7:6], a[7:6], a[7:2]};
  assign y2 = {b, {2{a[5:0]}}, a[5]};      assign z2 = {b, a[5:0], a[5:0], a[5]};
  assign y3 = {{4{a[7:7]}}, a[7:1]};       assign z3 = {a[7], a[7], a[7], a[7], a[7:1]};
  assign y4 = {{2{a[3:2]}}, a[3], a[3:0]}; assign z4 = {a[3:2], a[3:2], a[3], a[3:0]};
`)
}

// TestOneOpPerConstruct pins the op counts the lowerings are there for.
func TestOneOpPerConstruct(t *testing.T) {
	for _, c := range []struct {
		rhs  string
		want int // Comb length, the final write into y included
	}{
		{"{52{a[31]}}", 2},  // select, neg
		{"{8{a[7:0]}}", 2},  // mask, mul
		{"a[31:20]", 1},     // sshr
		{"a[63:20]", 1},     // shri
		{"a[0] && b[0]", 3}, // mask, mask, and
		{"a && b", 3},       // redor, redor, and
	} {
		h := newHarness(t, "module m (input [63:0] a, b, output [63:0] y);\n  assign y = "+c.rhs+";\nendmodule", "m", StyleGrouped)
		if got := len(h.obj.Comb); got != c.want {
			t.Errorf("y = %s: %d ops, want %d\n%s", c.rhs, got, c.want, disasm(h.obj.Comb))
		}
	}
}
