package pgas

import (
	"fmt"
	"testing"

	"livesim/internal/checkpoint"
	"livesim/internal/codegen"
	"livesim/internal/obs"
	"livesim/internal/prof"
	"livesim/internal/sim"
)

// BenchmarkTick sizes a kernel change in seconds: raw sim.Tick on the 1x1,
// 4x4 and 8x8 meshes running the compute kernel, no session around it. One
// iteration is 256 cycles in one Tick, so `make bench` (-benchtime=1x)
// still averages over a few hundred cycles; the -tick1 variants call
// Tick(1) 256 times, as a per-cycle testbench does. comb-evals/cycle
// (whole comb programs run, in the settle or at the clock edge),
// edge-evals/cycle (edge programs run) and seq-evals/cycle (clock edges
// run) come from a profiled segment before the timed one, binds/cycle
// (bind copies, producer slot to consumer slot) from sim.Counts.
func BenchmarkTick(b *testing.B) {
	for _, side := range []int{1, 4, 8} {
		for _, chunk := range []int{tickCycles, 1} {
			name := fmt.Sprintf("%dx%d", side, side)
			if chunk == 1 {
				name += "-tick1"
			}
			b.Run(name, func(b *testing.B) { benchTick(b, side*side, chunk) })
		}
	}
}

// tickCycles is one BenchmarkTick iteration.
const tickCycles = 256

func benchTick(b *testing.B, n, chunk int) {
	reg := obs.NewRegistry()
	s, err := NewSim(n, codegen.StyleGrouped, sim.WithMetrics(reg))
	if err != nil {
		b.Fatal(err)
	}
	images, err := ComputeImages(n, 1<<30)
	if err != nil {
		b.Fatal(err)
	}
	for i, img := range images {
		if err := LoadImage(s, n, i, img); err != nil {
			b.Fatal(err)
		}
	}
	p := prof.New()
	s.SetProfiler(p)
	if err := s.Tick(4 * tickCycles); err != nil {
		b.Fatal(err)
	}
	s.SetProfiler(nil)
	t := p.Totals()

	ops0, scans0, k0 := s.Stats.Ops, reg.Counter("sim_settle_passes").Value(), s.Counts()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for c := 0; c < tickCycles; c += chunk {
			if err := s.Tick(chunk); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.StopTimer()
	total := float64(b.N * tickCycles)
	k := s.Counts()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/total, "ns/cycle")
	b.ReportMetric(float64(s.Stats.Ops-ops0)/total, "ops/cycle")
	b.ReportMetric(float64(k.Copies-k0.Copies)/total, "binds/cycle")
	b.ReportMetric(float64(t.SeqEvals)/float64(t.Cycles), "seq-evals/cycle")
	b.ReportMetric(float64(t.CombEvals)/float64(t.Cycles), "comb-evals/cycle")
	b.ReportMetric(float64(t.EdgeEvals)/float64(t.Cycles), "edge-evals/cycle")
	b.ReportMetric(float64(reg.Counter("sim_settle_passes").Value()-scans0)/total, "scans/cycle")
}

// BenchmarkReload sizes the schedule's set-up: a sim.Reload that swaps
// nothing (the object behind the key is the one already loaded) on the 4x4
// and 8x8 meshes still compiles the settle schedule — push tables, transit
// fills and dependency ranks — as every hot reload does. us/reload and
// allocs/op are one call's.
func BenchmarkReload(b *testing.B) {
	for _, side := range []int{4, 8} {
		n := side * side
		b.Run(fmt.Sprintf("%dx%d", side, side), func(b *testing.B) {
			s, err := NewSim(n, codegen.StyleGrouped)
			if err != nil {
				b.Fatal(err)
			}
			if err := s.Tick(16); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if swapped, err := s.Reload("stage_id", nil); err != nil || swapped != 0 {
					b.Fatalf("reload: %d swapped, %v", swapped, err)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/1e3/float64(b.N), "us/reload")
		})
	}
}

// BenchmarkSnapshot sizes a capture: sim.Snapshot on the 4x4 and 8x8
// meshes running the compute kernel, one capture per checkpoint interval
// of simulated work, each added to a checkpoint store the way a session
// does. ns/op and B/op are one Snapshot's (the ticks between captures are
// not timed); first-B is the store's ApproxBytes after the first capture,
// which has no earlier page to share, and retained-B/ckpt is what each
// added checkpoint after it adds. `make state` runs it.
func BenchmarkSnapshot(b *testing.B) {
	const warm, every = 1000, 1000
	for _, side := range []int{4, 8} {
		n := side * side
		b.Run(fmt.Sprintf("%dx%d", side, side), func(b *testing.B) {
			s, err := NewSim(n, codegen.StyleGrouped)
			if err != nil {
				b.Fatal(err)
			}
			images, err := ComputeImages(n, 1<<30)
			if err != nil {
				b.Fatal(err)
			}
			for i, img := range images {
				if err := LoadImage(s, n, i, img); err != nil {
					b.Fatal(err)
				}
			}
			if err := s.Tick(warm); err != nil {
				b.Fatal(err)
			}
			// The first capture has nothing to share with; the timed ones
			// are the steady state after it.
			store := checkpoint.NewStore()
			store.Add(s.Snapshot(), "v0", 0)
			bytes0 := store.ApproxBytes()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				if err := s.Tick(every); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				st := s.Snapshot()
				b.StopTimer()
				store.Add(st, "v0", i+1)
				b.StartTimer()
			}
			b.StopTimer()
			b.ReportMetric(float64(bytes0), "first-B")
			b.ReportMetric(float64(store.ApproxBytes()-bytes0)/float64(b.N), "retained-B/ckpt")
		})
	}
}
