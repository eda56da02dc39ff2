package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"
)

// traced is the separate traced run that produces the per-layer numbers.
// It has three phases, all on the workload's own design and seed:
//
//  1. the workload itself, rounds alternating with the span recorder off
//     and on (the difference is the tracing overhead);
//  2. one short traced round of each other kind of session operation, so
//     that every run reports the edit budget and the run budget;
//  3. the probe phase, which calls each layer directly.
//
// End-to-end metrics are never taken from this run.
func traced(x *runCtx, w *workload, budget time.Duration) ([]*round, map[string]metric, error) {
	rec := newRecorder()
	out := layerSet{}

	// Phase 1.
	var rounds, plain, withTrace []*round
	deadline := time.Now().Add(budget * 2 / 5)
	for i := 0; i < 2 || time.Now().Before(deadline); i++ {
		if i%2 == 1 {
			x.rec = rec
		}
		r, err := oneRound(x, w)
		x.rec = nil
		if err != nil {
			return nil, nil, err
		}
		rounds = append(rounds, r)
		if i%2 == 1 {
			withTrace = append(withTrace, r)
		} else {
			plain = append(plain, r)
		}
	}
	own := rec.all()

	// Phase 2.
	x.rec = rec
	editRounds := withTrace
	if w.op != opApply {
		r, err := editRound(x, 1, x.in.mesh == 1)
		if err := companionOK(x, r, err); err != nil {
			return nil, nil, fmt.Errorf("edit companion: %w", err)
		}
		editRounds = []*round{r}
	}
	if w.op != opRun {
		r, err := runRound(x, max(1, x.scaled(runMeshOps)/2))
		if err := companionOK(x, r, err); err != nil {
			return nil, nil, fmt.Errorf("run companion: %w", err)
		}
	}
	x.rec = nil
	spans := rec.all()

	// Phase 3.
	if err := x.newRoundDir(-1); err != nil {
		return nil, nil, err
	}
	defer os.RemoveAll(x.dir)
	if err := probeFrontEnd(x, out); err != nil {
		return nil, nil, fmt.Errorf("front-end probe: %w", err)
	}
	if err := probeKernel(x, out); err != nil {
		return nil, nil, fmt.Errorf("kernel probe: %w", err)
	}
	rejects, err := probeWire(x, out)
	if err != nil {
		return nil, nil, fmt.Errorf("wire probe: %w", err)
	}

	// Derived metrics.
	editBudget(spans, editRounds, out)
	runBudget(spans, out)
	workloadLayer(w, own, rounds, plain, withTrace, rejects, out)

	if err := os.MkdirAll(x.outDir, 0o755); err != nil {
		return nil, nil, err
	}
	if err := writeSpans(filepath.Join(x.outDir, "trace-"+w.name+".jsonl"), spans); err != nil {
		return nil, nil, err
	}
	return rounds, out, nil
}

// companionOK checks a phase-2 round: an operation that fails there is a
// broken measurement, not a result.
func companionOK(x *runCtx, r *round, err error) error {
	if err != nil {
		return err
	}
	if r.failed > 0 {
		return fmt.Errorf("%d operations failed: %v", r.failed, x.failures)
	}
	r.session = nil
	return nil
}

// spanDurs returns the durations of the spans with the given name.
func spanDurs(spans []span, name string) samples {
	var out samples
	for _, s := range spans {
		if s.Name == name {
			out = append(out, time.Duration(s.EndNs-s.StartNs))
		}
	}
	return out
}

// editBudget decomposes the edit op: the four parts core.ChangeReport
// gives (as child spans of core.apply), what is left over as the session
// layer's own time, and the exact counts of the rounds they came from.
func editBudget(spans []span, rounds []*round, out layerSet) {
	apply := spanDurs(spans, opApply)
	out.set("core.apply.compile_ms", spanDurs(spans, "livecompiler.build").p50ms(), "ms")
	out.set("core.apply.swap_ms", spanDurs(spans, "sim.reload").p50ms(), "ms")
	out.set("core.apply.reload_ms", spanDurs(spans, "checkpoint.restore").p50ms(), "ms")
	out.set("core.apply.reexec_ms", spanDurs(spans, "core.reexec").p50ms(), "ms")
	self := selfTimes(spans)
	var own samples
	for _, s := range spans {
		if s.Name == opApply {
			own = append(own, time.Duration(self[s.ID]))
		}
	}
	out.set("core.apply.self_ms", own.p50ms(), "ms")
	out.set("core.apply_p90_ms", apply.p(0.90, time.Millisecond), "ms")
	out.set("verify.wait_ms", spanDurs(spans, "verify.wait").p50ms(), "ms")

	var ops, cnt = 0.0, map[string]float64{}
	for _, r := range rounds {
		ops += float64(len(r.lat))
		for k, v := range r.counts {
			cnt[k] += v
		}
	}
	out.set("core.reexec_cycles_per_op", cnt["core.reexec_cycles"]/ops, "count")
	out.set("verify.segments_per_op", cnt["verify.segments"]/ops, "count")
	out.set("verify.divergent_ratio", cnt["verify.divergent"]/ops, "ratio")
	out.set("verify.refined_ratio", cnt["verify.refined"]/ops, "ratio")
}

// runBudget decomposes the forward-run op: the part of each Session.Run
// span its testbench child does not cover is what the session layer adds
// to the kernel (history, checkpoint trigger and capture).
func runBudget(spans []span, out layerSet) {
	self := selfTimes(spans)
	var run, own samples
	for _, s := range spans {
		if s.Name == opRun {
			run = append(run, time.Duration(s.EndNs-s.StartNs))
			own = append(own, time.Duration(self[s.ID]))
		}
	}
	out.set("core.run_self_ns_per_cycle", own.p(0.5, time.Nanosecond)/runOpCycles, "ns")
	out.set("core.run_p90_ms", run.p(0.90, time.Millisecond), "ms")
}

// workloadLayer reports what only the workload's own rounds can say: its
// latency tail, what the Go runtime did during its timed sections, what
// its sessions retained, and the benchmark's own quality figures.
func workloadLayer(w *workload, own []span, rounds, plain, withTrace []*round, probeRejects int, out layerSet) {
	var lat, latPlain, latTraced []time.Duration
	var rates []float64
	var ops, alloc, gcs, pause, storeLen, storeBytes, rejects float64
	for _, r := range rounds {
		lat = append(lat, r.lat...)
		n := float64(len(r.lat))
		ops += n
		alloc += float64(r.allocBytes)
		gcs += float64(r.gcCycles)
		pause += float64(r.gcPauseNs)
		rejects += float64(r.failed)
		if n > 0 {
			rates = append(rates, n/r.wall.Seconds())
		}
	}
	last := rounds[len(rounds)-1]
	storeLen, storeBytes = last.counts["checkpoint.store_len"], last.counts["checkpoint.store_bytes"]
	for _, r := range plain {
		latPlain = append(latPlain, r.lat...)
	}
	for _, r := range withTrace {
		latTraced = append(latTraced, r.lat...)
	}
	ms := dursMs(lat)
	out.set("op_p90_ms", percentile(ms, 0.90), "ms")
	out.set("op_p99_ms", percentile(ms, 0.99), "ms")
	out.set("runtime.alloc_kb_per_op", alloc/1024/ops, "KB")
	out.set("runtime.gc_cycles", gcs/float64(len(rounds)), "count")
	out.set("runtime.gc_pause_ms", pause/1e6/float64(len(rounds)), "ms")
	out.set("checkpoint.store_len", storeLen, "count")
	out.set("checkpoint.store_mb", storeBytes/1e6, "MB")
	out.set("server.rejects", rejects+float64(probeRejects), "count")

	p50Plain, p50Traced := percentile(dursMs(latPlain), 0.5), percentile(dursMs(latTraced), 0.5)
	out.set("bench.trace_overhead_pct", 100*(p50Traced-p50Plain)/p50Plain, "%")
	out.set("bench.host_speed_pct", 100*hostSpeed(rounds), "%")
	out.set("bench.round_spread_pct", 100*relRange(rates), "%")

	// Coverage: the share of the operation's span that is attributed to a
	// layer below the one the operation enters. For session operations
	// that is what the child spans cover. A wire round trip has no child
	// spans on the client side, so its share is what the probe phase
	// measured for the dispatched command, the journal append and the
	// codec (paid once per hop), over the probe's round trip on the same
	// path; the rest is transport: syscalls, goroutine hand-offs, queues.
	if w.op == opDo {
		rtt, codec := out["client.rtt_us.run4"].Value, out["server.codec_us"].Value
		if w.name == "serve_gateway" {
			rtt += out["gateway.hop_us.run4"].Value
			codec *= 2
		}
		out.set("bench.coverage_pct", 100*(out["command.run4_us"].Value+out["wal.append_us"].Value+codec)/rtt, "%")
		return
	}
	self := selfTimes(own)
	var total, uncovered int64
	for _, s := range own {
		if s.Name == w.op {
			total += s.EndNs - s.StartNs
			uncovered += self[s.ID]
		}
	}
	cov := math.NaN()
	if total > 0 {
		cov = 100 * float64(total-uncovered) / float64(total)
	}
	out.set("bench.coverage_pct", cov, "%")
}
