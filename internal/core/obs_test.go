package core

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"livesim/internal/obs"
)

// traceEvent mirrors the JSONL span schema documented in README.md
// ("Observability"); decoding with DisallowUnknownFields would defeat
// forward compatibility, so extra fields are ignored.
type traceEvent struct {
	Ev      string         `json:"ev"`
	ID      uint64         `json:"id"`
	Parent  uint64         `json:"parent"`
	Name    string         `json:"name"`
	StartUS int64          `json:"start_us"`
	DurUS   int64          `json:"dur_us"`
	Attrs   map[string]any `json:"attrs"`
}

func parseTrace(t *testing.T, data []byte) []traceEvent {
	t.Helper()
	var evs []traceEvent
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		if line == "" {
			continue
		}
		var ev traceEvent
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("bad trace line %q: %v", line, err)
		}
		evs = append(evs, ev)
	}
	return evs
}

// TestLiveLoopObservability drives one full trip around the live loop
// with tracing and metrics on, then checks the three acceptance
// surfaces: the JSONL span sequence, the exported snapshot counters,
// and the ChangeReport-derived-from-spans invariant.
func TestLiveLoopObservability(t *testing.T) {
	var traceBuf bytes.Buffer
	reg := obs.NewRegistry()
	s := NewSession("acc_top", Config{
		CheckpointEvery: 10, Lookback: 10,
		Metrics: reg, TraceOut: &traceBuf,
	})
	if _, err := s.LoadDesign(srcOf(accDesign)); err != nil {
		t.Fatal(err)
	}
	s.RegisterTestbench("tb0", NewStatelessTB(func(d *Driver, cycle uint64) error {
		return d.SetIn("d", 3)
	}))
	if _, err := s.InstPipe("p0"); err != nil {
		t.Fatal(err)
	}
	if err := s.Run("tb0", "p0", 60); err != nil {
		t.Fatal(err)
	}

	// One live-loop trip: a late-phase behavioural edit.
	edited := strings.Replace(accDesign, "sum <= sum + d;", "sum <= sum + d + 1;", 1)
	rep, err := s.ApplyChange(srcOf(edited))
	if err != nil {
		t.Fatal(err)
	}
	rep.WaitVerification()
	s.WaitBackground()

	// --- span sequence -------------------------------------------------
	evs := parseTrace(t, traceBuf.Bytes())
	byName := map[string][]traceEvent{}
	for _, ev := range evs {
		if ev.Ev != "span" {
			t.Errorf("unexpected event type %q", ev.Ev)
		}
		byName[ev.Name] = append(byName[ev.Name], ev)
	}
	for _, want := range []string{"load_design", "apply_change", "compile", "parse", "elab", "codegen", "swap", "reload", "reexec", "verify"} {
		if len(byName[want]) == 0 {
			t.Errorf("trace has no %q span; got %v", want, names(evs))
		}
	}
	// The loop's phases must nest under the apply_change root.
	root := byName["apply_change"][0]
	for _, phase := range []string{"compile", "swap", "reload", "reexec", "verify"} {
		for _, ev := range byName[phase] {
			if ev.Parent != root.ID {
				t.Errorf("%s span parent = %d, want apply_change id %d", phase, ev.Parent, root.ID)
			}
		}
	}
	// parse/elab/codegen nest under a compile span (the apply_change
	// one; load_design emits its own directly-parented build phases).
	compileIDs := map[uint64]bool{byName["load_design"][0].ID: true}
	for _, ev := range byName["compile"] {
		compileIDs[ev.ID] = true
	}
	for _, phase := range []string{"parse", "elab", "codegen"} {
		for _, ev := range byName[phase] {
			if !compileIDs[ev.Parent] {
				t.Errorf("%s span parent = %d, want a compile/load_design span", phase, ev.Parent)
			}
		}
	}
	// Spans carry cycle/version context.
	sw := byName["swap"][0]
	if sw.Attrs["pipe"] != "p0" || sw.Attrs["version"] != "v1" || sw.Attrs["cycle"] != float64(60) {
		t.Errorf("swap span attrs = %v", sw.Attrs)
	}
	// The build phases say how much of the design they had to touch: both
	// builds parsed the one file; the edit elaborated acc_stage and acc_top.
	for _, ev := range byName["parse"] {
		if ev.Attrs["files_parsed"] != float64(1) || ev.Attrs["files_reused"] != float64(0) {
			t.Errorf("parse span attrs = %v", ev.Attrs)
		}
	}
	if el := byName["elab"]; len(el) != 2 || el[1].Attrs["elaborated"] != float64(2) || el[1].Attrs["specializations"] != float64(2) {
		t.Errorf("elab spans = %v", el)
	}
	vf := byName["verify"][0]
	if _, ok := vf.Attrs["consistent"]; !ok {
		t.Errorf("verify span missing outcome attrs: %v", vf.Attrs)
	}

	// --- report derived from spans ------------------------------------
	if rep.Total <= 0 {
		t.Errorf("rep.Total = %v", rep.Total)
	}
	if sum := rep.SwapTime + rep.ReloadTime + rep.ReExecTime; sum > rep.Total {
		t.Errorf("phase sum %v exceeds total %v", sum, rep.Total)
	}
	if rep.ReExecTime <= 0 {
		t.Errorf("rep.ReExecTime = %v (re-exec replays 10+ cycles, must be nonzero)", rep.ReExecTime)
	}

	// --- snapshot counters --------------------------------------------
	snap := reg.Snapshot()
	wantPositive := []string{
		"compile_builds", "compile_cache_hits", "compile_compiled",
		"compile_files_parsed", "compile_elaborated",
		"checkpoint_takes", "session_runs", "session_cycles_run",
		"changes_applied", "objects_swapped", "verify_runs",
		"sim_ticks", "sim_settle_calls",
	}
	for _, name := range wantPositive {
		if snap.Counters[name] == 0 {
			t.Errorf("counter %s = 0, want > 0 (snapshot: %s)", name, snap.JSON())
		}
	}
	// The edit only touched acc_stage, so acc_top must have been a cache
	// hit on the second build.
	if snap.Counters["compile_cache_hits"] < 1 {
		t.Errorf("compile_cache_hits = %d", snap.Counters["compile_cache_hits"])
	}
	// A late-phase edit diverges from recorded history, so the verifier
	// must have found it and refined the estimate.
	if snap.Counters["verify_divergent"] != 1 || snap.Counters["verify_refined"] != 1 {
		t.Errorf("verify_divergent=%d verify_refined=%d, want 1/1",
			snap.Counters["verify_divergent"], snap.Counters["verify_refined"])
	}
	// The VM bridge publishes hot-loop op counters without the hot loop
	// ever seeing the registry.
	if snap.Gauges["vm_ops"] == 0 || snap.Gauges["checkpoints_live"] == 0 {
		t.Errorf("bridge gauges missing: vm_ops=%d checkpoints_live=%d",
			snap.Gauges["vm_ops"], snap.Gauges["checkpoints_live"])
	}
	if snap.Histograms["checkpoint_capture_seconds"].Count == 0 {
		t.Error("checkpoint_capture_seconds histogram empty")
	}

	// --- snapshot round-trips through JSON ----------------------------
	var back obs.Snapshot
	if err := json.Unmarshal(snap.JSON(), &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(&back, snap) {
		t.Errorf("snapshot did not round-trip:\n got %+v\nwant %+v", back, snap)
	}
}

// TestFailedBuildIsTraced: the trace of a change that does not build is the
// one somebody will read, so the phase that failed must be in it, ended and
// carrying the error: apply_change -> compile -> parse for a syntax error,
// -> elab for a design that parses and does not elaborate.
func TestFailedBuildIsTraced(t *testing.T) {
	for phase, text := range map[string]string{
		"parse": strings.Replace(accDesign, "sum <= sum + d;", "sum <= sum + ;", 1),
		"elab":  strings.Replace(accDesign, "acc_stage u0", "no_such_stage u0", 1),
	} {
		t.Run(phase, func(t *testing.T) {
			var traceBuf bytes.Buffer
			s := NewSession("acc_top", Config{CheckpointEvery: 10, Lookback: 10, TraceOut: &traceBuf})
			if _, err := s.LoadDesign(srcOf(accDesign)); err != nil {
				t.Fatal(err)
			}
			traceBuf.Reset()
			_, err := s.ApplyChange(srcOf(text))
			if err == nil {
				t.Fatal("the change built")
			}

			byName := map[string]traceEvent{}
			for _, ev := range parseTrace(t, traceBuf.Bytes()) {
				byName[ev.Name] = ev
			}
			root, compile, failed := byName["apply_change"], byName["compile"], byName[phase]
			if root.ID == 0 || compile.Parent != root.ID || failed.ID == 0 || failed.Parent != compile.ID {
				t.Fatalf("no apply_change -> compile -> %s chain in %v", phase, byName)
			}
			if failed.Attrs["error"] != err.Error() {
				t.Errorf("%s span error attribute %q, ApplyChange returned %q", phase, failed.Attrs["error"], err)
			}
			if _, later := byName["codegen"]; later {
				t.Error("a phase after the failed one was traced")
			}
		})
	}
}

func names(evs []traceEvent) []string {
	var out []string
	for _, ev := range evs {
		out = append(out, ev.Name)
	}
	return out
}

// TestMetricsDisabledIsInert checks the nil-registry path end to end: a
// session with no Metrics/TraceOut must behave identically and hand out
// a nil registry whose snapshot is empty.
func TestMetricsDisabledIsInert(t *testing.T) {
	s := newAccSession(t, accDesign)
	if _, err := s.InstPipe("p0"); err != nil {
		t.Fatal(err)
	}
	if err := s.Run("tb0", "p0", 30); err != nil {
		t.Fatal(err)
	}
	if s.Metrics() != nil {
		t.Error("Metrics() non-nil without Config.Metrics")
	}
	snap := s.Metrics().Snapshot()
	if len(snap.Counters) != 0 {
		t.Errorf("nil registry produced counters: %v", snap.Counters)
	}
	rep, err := s.ApplyChange(srcOf(strings.Replace(accDesign, "sum <= sum + 1;", "sum <= sum + 2;", 1)))
	if err != nil {
		t.Fatal(err)
	}
	rep.WaitVerification()
	if rep.Total <= 0 {
		t.Errorf("span-derived Total = %v with tracing disabled", rep.Total)
	}
}
