package codegen

import (
	"fmt"
	"testing"

	"livesim/internal/randrtl"
	"livesim/internal/vm"
)

// TestRandomRTLStyleEquivalence: for random designs and random stimulus,
// grouped and mux codegen must agree on every output every cycle. Seeds
// 1-30, or under -short 1-5 and 15: seed 15 is the one that caught the
// grouped ternary calling a signed operand's logical shift signed.
func TestRandomRTLStyleEquivalence(t *testing.T) {
	seeds := []uint64{1, 2, 3, 4, 5, 15}
	if !testing.Short() {
		seeds = seeds[:0]
		for seed := uint64(1); seed <= 30; seed++ {
			seeds = append(seeds, seed)
		}
	}
	for _, seed := range seeds {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			src := randrtl.Module(seed, "rnd", 0)
			og, err := tryCompileSrc(src, "rnd", StyleGrouped)
			if err != nil {
				t.Fatalf("grouped compile: %v\n%s", err, src)
			}
			om, err := tryCompileSrc(src, "rnd", StyleMux)
			if err != nil {
				t.Fatalf("mux compile: %v\n%s", err, src)
			}
			ig, im := vm.NewInstance(og), vm.NewInstance(om)

			rng := seed * 977
			next := func() uint64 {
				rng = rng*6364136223846793005 + 1442695040888963407
				return rng >> 17
			}
			setIn := func(o *vm.Object, i *vm.Instance, name string, v uint64) {
				p := o.Ports[o.PortIndex(name)]
				i.Slots[p.Slot] = v & p.Mask
			}
			getOut := func(o *vm.Object, i *vm.Instance, name string) uint64 {
				return i.Slots[o.Ports[o.PortIndex(name)].Slot]
			}
			for cycle := 0; cycle < 100; cycle++ {
				a, b, c := next(), next(), next()
				for _, x := range []struct {
					o *vm.Object
					i *vm.Instance
				}{{og, ig}, {om, im}} {
					setIn(x.o, x.i, "a", a)
					setIn(x.o, x.i, "b", b)
					setIn(x.o, x.i, "c", c)
					x.i.RunComb(nil)
					x.i.RunSeq(nil)
					x.i.Commit()
					x.i.RunComb(nil)
				}
				for _, out := range []string{"o0", "o1", "o2", "o3"} {
					vg, vmx := getOut(og, ig, out), getOut(om, im, out)
					if vg != vmx {
						t.Fatalf("cycle %d %s: grouped %#x mux %#x\nseed %d design:\n%s",
							cycle, out, vg, vmx, seed, src)
					}
				}
			}
		})
	}
}
