package vm

import "testing"

// TestFoldIsExec: Fold folds every pure op but memrd, fused ones included,
// to the value exec writes to its destination from the same operands; it
// refuses memrd, every op that is not pure, and any instruction with an
// operand slot whose value it is not given.
func TestFoldIsExec(t *testing.T) {
	r := rng(3)
	for op := OpNop; op < opCount; op++ {
		foldable := op.Pure() && op != OpMemRd
		for i := 0; i < 50; i++ {
			ins := randomInstr(&r, op, 1)
			in := testInstance(testObject([]Instr{ins}))
			for s := range in.Slots {
				in.Slots[s] = r.draw()
			}
			got, ok := Fold(ins, func(slot uint32) (uint64, bool) { return in.Slots[slot], true })
			if ok != foldable {
				t.Fatalf("%v: Fold reports %v, want %v", ins, ok, foldable)
			}
			if !foldable {
				continue
			}
			ins.Reads(in.Obj, func(unknown uint32) {
				if _, ok := Fold(ins, func(slot uint32) (uint64, bool) { return in.Slots[slot], slot != unknown }); ok {
					t.Errorf("%v: folded without the value of s%d", ins, unknown)
				}
			})
			in.RunComb(nil)
			if want := in.Slots[ins.Dst]; got != want {
				t.Errorf("%v over %#x: Fold gives %#x, exec %#x", ins, in.Slots, got, want)
			}
		}
	}
}
