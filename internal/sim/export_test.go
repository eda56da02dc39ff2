package sim

import "livesim/internal/vm"

// Hooks for the differential tests of package sim_test, which cannot live
// in this package because they import internal/pgas (which imports sim).

// ReferenceTick is Tick on the reference kernel; prof may be nil.
func ReferenceTick(s *Sim, n int, prof vm.Profiler) error { return s.referenceTick(n, prof) }

// ReferenceSettle is Settle on the reference kernel.
func ReferenceSettle(s *Sim) error { return s.referenceSettle(nil) }

// TestDesign is one of this package's small hierarchical test designs.
type TestDesign struct{ Name, Src, Top string }

// TestDesigns lists the hierarchical designs of sim_test.go and
// prof_test.go.
var TestDesigns = []TestDesign{
	{"pipeline", pipelineSrc, "pipe"},
	{"combchain", combChainSrc, "wrap"},
	{"stall", stallSrc, "stall"},
}

// BuildDesign and TableResolver are the in-package test helpers.
var (
	BuildDesign   = buildDesign
	TableResolver = tableResolver
)
