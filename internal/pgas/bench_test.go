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

// BenchmarkTick sizes a kernel change in seconds: raw sim.Tick on the 1x1
// and 4x4 meshes running the compute kernel, no session around it. One
// iteration is 256 cycles, so `make bench` (-benchtime=1x) still averages
// over a few hundred cycles. comb-evals/cycle comes from a profiled
// segment before the timed one.
func BenchmarkTick(b *testing.B) {
	const chunk = 256
	for _, side := range []int{1, 4} {
		n := side * side
		b.Run(fmt.Sprintf("%dx%d", side, side), func(b *testing.B) {
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
			if err := s.Tick(4 * chunk); err != nil {
				b.Fatal(err)
			}
			s.SetProfiler(nil)
			t := p.Totals()

			ops0, scans0 := s.Stats.Ops, reg.Counter("sim_settle_passes").Value()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := s.Tick(chunk); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			cycles := float64(b.N * chunk)
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/cycles, "ns/cycle")
			b.ReportMetric(float64(s.Stats.Ops-ops0)/cycles, "ops/cycle")
			b.ReportMetric(float64(t.CombEvals)/float64(t.Cycles), "comb-evals/cycle")
			b.ReportMetric(float64(reg.Counter("sim_settle_passes").Value()-scans0)/cycles, "scans/cycle")
		})
	}
}

// BenchmarkSnapshot sizes a capture: sim.Snapshot on the 4x4 and 8x8
// meshes running the compute kernel, one capture per checkpoint interval
// of simulated work, each added to a checkpoint store the way a session
// does. ns/op and B/op are one Snapshot's (the ticks between captures are
// not timed); retained-B/ckpt is what each added checkpoint adds to the
// store's ApproxBytes. `make state` runs it.
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
			b.ReportMetric(float64(store.ApproxBytes()-bytes0)/float64(b.N), "retained-B/ckpt")
		})
	}
}
