package main

import (
	"fmt"
	"math/rand"

	"livesim/internal/liveparser"
	"livesim/internal/pgas"
)

// The compute kernel walks 16 data words at byte offsets 0x1100..0x1180
// of each node's local store (pgas.ComputeProgram); these are the words
// the seed fills.
const (
	walkFirstWord   = 0x1100 / 8
	walkWords       = 16
	localStoreWords = 4096 // each node's 32 KB local store
)

// inputs is everything a workload feeds the program under test, derived
// from the seed alone: the same seed gives the same images, the same
// edit order and the same request counts, so simulated statistics repeat
// exactly between runs and between commits.
type inputs struct {
	seed int64
	mesh int // PGAS node count
	// images are the per-node program images with seeded walk data.
	images [][]uint64
	// base is the unedited design, which is also what reverting any edit
	// gives; edits are the behavioural catalogue changes applied to it.
	base  liveparser.Source
	edits []edit
	// warmExtra staggers the simulated cycle at which timing starts.
	warmExtra int
}

type edit struct {
	name   string
	edited liveparser.Source
	// preserving marks edits that change the token stream but not the
	// behaviour, so running forward on the edited design and reverting
	// later still lands on the cold-compiled state.
	preserving bool
}

// semanticsPreserving names the catalogue changes whose edited design
// computes the same values as the original.
var semanticsPreserving = map[string]bool{
	"mem-size-mask":            true,
	"if-fetch-register-rename": true,
	"wb-result-latch":          true,
}

func newInputs(seed int64, mesh int) (*inputs, error) {
	rng := rand.New(rand.NewSource(seed))
	in := &inputs{seed: seed, mesh: mesh, base: pgas.Source(mesh)}

	// The compute kernel never halts at this iteration count, so every
	// simulated cycle of every workload does real work.
	images, err := pgas.ComputeImages(mesh, 1<<30)
	if err != nil {
		return nil, fmt.Errorf("assemble images: %w", err)
	}
	for i, img := range images {
		full := make([]uint64, walkFirstWord+walkWords)
		copy(full, img)
		for w := 0; w < walkWords; w++ {
			full[walkFirstWord+w] = rng.Uint64()
		}
		images[i] = full
	}
	in.images = images

	for _, ch := range pgas.Changes {
		if !ch.Behavioral {
			continue
		}
		ed, err := ch.Apply(in.base)
		if err != nil {
			return nil, err
		}
		in.edits = append(in.edits, edit{ch.Name, ed, semanticsPreserving[ch.Name]})
	}
	in.warmExtra = rng.Intn(64)
	return in, nil
}

// editOrder returns n passes over the edit catalogue, each pass a fresh
// seeded permutation.
func (in *inputs) editOrder(passes int) []edit {
	rng := rand.New(rand.NewSource(in.seed ^ 0x5eed))
	out := make([]edit, 0, passes*len(in.edits))
	for p := 0; p < passes; p++ {
		for _, i := range rng.Perm(len(in.edits)) {
			out = append(out, in.edits[i])
		}
	}
	return out
}
