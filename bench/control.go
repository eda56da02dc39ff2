package main

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// The host this benchmark was built on is a 2-vCPU sandbox whose speed
// changes for minutes at a time, in two ways that were both seen while
// sizing it: every core slows by up to 40% (guest CPU time per operation
// rises with wall time; the hypervisor reports no steal), or the two
// vCPUs share what amounts to one core (single-threaded work unaffected,
// two-client wire throughput halved). Identical runs a quarter of an hour
// apart then differ by more than any bound worth setting.
//
// So every round also times a control next to its timed section: a fixed,
// deterministic, pure-CPU loop that lives in this file and shares no code
// with the simulator, sampled before, after and every 100 ms inside the
// section — on one goroutine for the session workloads, which run one
// operation at a time, and on every core at once for the wire workloads,
// which keep all cores busy. A change under test cannot move the control; a change of
// host speed moves the control and the workload together. The end-to-end
// time metrics are reported in reference-host time: measured time x
// (controlRef / the control's mean time in that round). The unscaled value is
// kept beside each metric in the results file as "raw".

// controlRef is what one sample of the control takes on the reference
// host when nothing disturbs it. It only fixes the unit: on an undisturbed
// reference host scaled and raw times agree.
const controlRef = 3 * time.Millisecond

const (
	// controlWords is the loop's working set in 8-byte words: 256 KB,
	// beyond L1 and inside L2, like the simulator's slot arrays.
	controlWords = 1 << 15
	// controlSteps makes one sample about 3 ms: short enough to take one
	// every 100 ms of a timed section at a few percent of its time.
	controlSteps = 1 << 18
	// controlEvery is how often a timed section is sampled.
	controlEvery = 100 * time.Millisecond
)

// controlLoop is an interpreter-shaped kernel: a dependent chain of table
// loads, arithmetic and data-dependent branches.
func controlLoop(table []uint64) uint64 {
	x, acc := uint64(0x9e3779b97f4a7c15), uint64(0)
	for i := 0; i < controlSteps; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		v := table[x&(controlWords-1)]
		switch v & 3 {
		case 0:
			acc += v >> 3
		case 1:
			acc ^= v
		case 2:
			acc -= x
		default:
			table[(x>>20)&(controlWords-1)] = acc
		}
	}
	return acc
}

// controlTables are the loops' working sets, one per core, allocated once
// so that sampling does not allocate.
var controlTables = func() [][]uint64 {
	t := make([][]uint64, runtime.GOMAXPROCS(0))
	for i := range t {
		t[i] = make([]uint64, controlWords)
		for j := range t[i] {
			t[i][j] = uint64(j) * 0x2545f4914f6cdd1d
		}
	}
	return t
}()

// controlSink keeps the loops' results live.
var controlSink atomic.Uint64

// sampleControl runs the control loop once and returns how long it took:
// on one goroutine, or — for workloads that keep every core busy — on all
// cores at once, as the mean over the goroutines.
func sampleControl(parallel bool) time.Duration {
	if !parallel {
		t0 := time.Now()
		controlSink.Add(controlLoop(controlTables[0]))
		return time.Since(t0)
	}
	took := make([]time.Duration, len(controlTables))
	var wg sync.WaitGroup
	for i, table := range controlTables {
		wg.Add(1)
		go func() {
			defer wg.Done()
			t0 := time.Now()
			controlSink.Add(controlLoop(table))
			took[i] = time.Since(t0)
		}()
	}
	wg.Wait()
	var sum time.Duration
	for _, d := range took {
		sum += d
	}
	return sum / time.Duration(len(took))
}

// hostSpeedOf turns control samples into the host's speed relative to the
// reference host (1 = reference speed, below 1 = slower).
func hostSpeedOf(samples []time.Duration) float64 {
	var sum time.Duration
	for _, d := range samples {
		sum += d
	}
	if sum <= 0 {
		return 1
	}
	return float64(controlRef) * float64(len(samples)) / float64(sum)
}
