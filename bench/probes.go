package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"path/filepath"
	"time"

	"livesim/internal/checkpoint"
	"livesim/internal/codegen"
	"livesim/internal/command"
	"livesim/internal/core"
	"livesim/internal/hdl/ast"
	"livesim/internal/hdl/elab"
	"livesim/internal/hdl/parser"
	"livesim/internal/livecompiler"
	"livesim/internal/liveparser"
	"livesim/internal/obs"
	"livesim/internal/pgas"
	"livesim/internal/prof"
	"livesim/internal/server"
	"livesim/internal/sim"
	"livesim/internal/vm"
	"livesim/internal/wal"
	"livesim/internal/xform"
)

// The probe phase of the traced run calls each layer's public functions
// directly, with the workload's own design, edits and request bytes, and
// times the calls from here: no instrumentation lives inside internal/.
// Iteration counts are fixed, so counts repeat exactly; times are medians.

// samples collects the timings of one probed call.
type samples []time.Duration

func (s *samples) time(f func()) {
	t0 := time.Now()
	f()
	*s = append(*s, time.Since(t0))
}

func (s samples) p(q float64, unit time.Duration) float64 {
	v := make([]float64, len(s))
	for i, d := range s {
		v[i] = float64(d) / float64(unit)
	}
	return percentile(v, q)
}

func (s samples) p50ms() float64 { return s.p(0.5, time.Millisecond) }
func (s samples) p50us() float64 { return s.p(0.5, time.Microsecond) }

// layerSet is the probe phase's output: metric name to value and unit.
type layerSet map[string]metric

func (l layerSet) set(name string, v float64, unit string) { l[name] = metric{Value: v, Unit: unit} }

const frontIters = 5

// probeFrontEnd measures the compile path: hdl (parse, elaborate),
// liveparser (analyze, compare), livecompiler (cold build, warmed
// rebuild per edit), codegen output size, xform's transform inference
// and the kernel's hot swap of each rebuilt object.
func probeFrontEnd(x *runCtx, out layerSet) error {
	in := x.in
	files := pgas.DesignSource(in.mesh)
	top := pgas.TopName(in.mesh)

	var parse, elaborate, analyze, compare, full, rebuild, guess, reload samples
	for i := 0; i < x.scaled(frontIters); i++ {
		var mods map[string]*ast.Module
		var perr error
		parse.time(func() {
			mods = map[string]*ast.Module{}
			for name, text := range files {
				sf, err := parser.ParseFile(name, text)
				if err != nil {
					perr = err
					return
				}
				for _, m := range sf.Modules {
					mods[m.Name] = m
				}
			}
		})
		if perr != nil {
			return perr
		}
		elaborate.time(func() { _, perr = elab.Elaborate(mods, top, nil) })
		if perr != nil {
			return perr
		}
		full.time(func() { _, perr = livecompiler.New(top, codegen.StyleGrouped, nil).Build(in.base) })
		if perr != nil {
			return perr
		}
	}
	baseA, err := liveparser.Analyze(in.base)
	if err != nil {
		return err
	}
	for _, e := range in.edits {
		var ea *liveparser.Analysis
		analyze.time(func() { ea, err = liveparser.Analyze(e.edited) })
		if err != nil {
			return err
		}
		compare.time(func() { liveparser.Compare(baseA, ea) })
	}

	// A warmed compiler behind a running simulation, walked through every
	// edit and its revert in seeded order.
	c := livecompiler.New(top, codegen.StyleGrouped, nil)
	res, err := c.Build(in.base)
	if err != nil {
		return err
	}
	s, err := sim.New(sim.ResolverFunc(c.Resolver()), res.TopKey)
	if err != nil {
		return err
	}
	if err := loadImages(s, in); err != nil {
		return err
	}
	if err := s.Tick(runOpCycles); err != nil {
		return err
	}
	codeBytes, objects := 0, 0
	seen := map[*vm.Object]bool{}
	for _, nd := range s.Nodes() {
		if !seen[nd.Obj] {
			seen[nd.Obj] = true
			objects++
			codeBytes += nd.Obj.CodeBytes()
		}
	}
	compiled, hits, builds := 0, 0, 0
	for _, e := range in.editOrder(1) {
		for _, src := range []liveparser.Source{e.edited, in.base} {
			old := c.Objects()
			var r *livecompiler.Result
			rebuild.time(func() { r, err = c.Build(src) })
			if err != nil {
				return err
			}
			builds++
			compiled += r.Stats.Compiled
			hits += r.Stats.CacheHits
			for _, key := range r.Swapped {
				var ops []xform.Op
				var mig sim.MigrateFunc
				if prev := old[key]; prev != nil {
					guess.time(func() { ops = xform.BestGuess(prev, r.Objects[key]) })
					if len(ops) > 0 {
						mig = xform.Migrator(ops)
					}
				}
				reload.time(func() { _, err = s.Reload(key, mig) })
				if err != nil {
					return err
				}
			}
			if err := s.Tick(16); err != nil {
				return fmt.Errorf("after reloading %s: %w", e.name, err)
			}
		}
	}

	out.set("hdl.parse_ms", parse.p50ms(), "ms")
	out.set("hdl.elab_ms", elaborate.p50ms(), "ms")
	out.set("liveparser.analyze_ms", analyze.p50ms(), "ms")
	out.set("liveparser.compare_ms", compare.p50ms(), "ms")
	out.set("livecompiler.full_build_ms", full.p50ms(), "ms")
	out.set("livecompiler.rebuild_ms", rebuild.p50ms(), "ms")
	out.set("livecompiler.compiled_per_edit", float64(compiled)/float64(builds), "count")
	out.set("livecompiler.cache_hit_ratio", float64(hits)/float64(hits+compiled), "ratio")
	out.set("codegen.code_bytes", float64(codeBytes), "B")
	out.set("codegen.objects", float64(objects), "count")
	out.set("xform.bestguess_us", guess.p50us(), "us")
	out.set("sim.reload_us", reload.p50us(), "us")
	return nil
}

func loadImages(s *sim.Sim, in *inputs) error {
	for i, img := range in.images {
		if err := pgas.LoadImage(s, in.mesh, i, img); err != nil {
			return err
		}
	}
	return nil
}

const (
	kernelWarm   = 1024 // cycles before any kernel timing
	kernelChunks = 24   // timed Tick(256) calls
	vmBlocks     = 200  // hand-rolled clock edges timed per VM phase
	profCycles   = 1024 // cycles run with the activity profiler attached
	ckptStore    = 32   // checkpoints in the store Select is timed against
	selectIters  = 2000
)

// probeKernel measures forward simulation with no session around it: the
// hierarchical kernel's cost per cycle and its settle behaviour, the VM's
// cost per op and per comb/seq/commit evaluation, the activity profile,
// the checkpoint layer's capture/encode/decode/select costs, and the
// flattened simulator on the same mesh as the drift control.
func probeKernel(x *runCtx, out layerSet) error {
	in := x.in
	objs, top, err := pgas.Build(in.mesh, codegen.StyleGrouped)
	if err != nil {
		return err
	}
	reg := obs.NewRegistry()
	s, err := sim.New(sim.ResolverFunc(func(key string) (*vm.Object, error) {
		if o, ok := objs[key]; ok {
			return o, nil
		}
		return nil, fmt.Errorf("no object %q", key)
	}), top, sim.WithMetrics(reg))
	if err != nil {
		return err
	}
	if err := loadImages(s, in); err != nil {
		return err
	}
	if err := s.Tick(kernelWarm); err != nil {
		return err
	}

	// sim + vm counts: whole Tick(256) calls.
	var tick samples
	st0, passes0, cyc0 := s.Stats, reg.Counter("sim_settle_passes").Value(), s.Cycle()
	chunks := x.scaled(kernelChunks)
	for i := 0; i < chunks; i++ {
		tick.time(func() { err = s.Tick(runOpCycles) })
		if err != nil {
			return err
		}
	}
	cycles := float64(s.Cycle() - cyc0)
	tickNs := tick.p(0.5, time.Nanosecond) / runOpCycles
	opsPerCycle := float64(s.Stats.Ops-st0.Ops) / cycles
	out.set("sim.tick_ns_per_cycle", tickNs, "ns")
	out.set("sim.settle_passes_per_cycle", float64(reg.Counter("sim_settle_passes").Value()-passes0)/cycles, "count")
	out.set("vm.ops_per_cycle", opsPerCycle, "count")
	out.set("vm.branches_per_cycle", float64(s.Stats.Branches-st0.Branches)/cycles, "count")
	out.set("vm.memops_per_cycle", float64(s.Stats.MemOps-st0.MemOps)/cycles, "count")

	// vm cost per evaluation: a hand-rolled clock edge on the settled
	// simulation — comb, seq and commit over every instance, each phase
	// timed on its own — then a snapshot/restore round trip marks
	// everything dirty so the next Tick re-settles from the new state.
	var comb, seq, commit, snap, restore samples
	var vst vm.Stats
	nodes := s.Nodes()
	for i := 0; i < x.scaled(vmBlocks); i++ {
		if err := s.Tick(3); err != nil {
			return err
		}
		comb.time(func() {
			for _, n := range nodes {
				n.Inst.RunComb(&vst)
			}
		})
		seq.time(func() {
			for _, n := range nodes {
				n.Inst.RunSeq(&vst)
			}
		})
		commit.time(func() {
			for _, n := range nodes {
				n.Inst.Commit()
			}
		})
		s.SetCycle(s.Cycle() + 1)
		var state *sim.State
		snap.time(func() { state = s.Snapshot() })
		restore.time(func() { err = s.Restore(state) })
		if err != nil {
			return err
		}
	}
	nn := float64(len(nodes))
	perEval := func(sm samples) float64 { return sm.p(0.5, time.Nanosecond) / nn }
	var evalTotal time.Duration
	for i := range comb {
		evalTotal += comb[i] + seq[i]
	}
	nsPerOp := float64(evalTotal.Nanoseconds()) / float64(vst.Ops)
	out.set("vm.comb_ns_per_eval", perEval(comb), "ns")
	out.set("vm.seq_ns_per_eval", perEval(seq), "ns")
	out.set("vm.commit_ns_per_eval", perEval(commit), "ns")
	out.set("vm.ns_per_op", nsPerOp, "ns")
	// What the kernel itself costs per cycle once the VM's share (exact
	// op count x cost per op, plus one commit per instance) is taken out:
	// dirty scanning and the cross-module copy phase.
	out.set("sim.self_ns_per_cycle", tickNs-opsPerCycle*nsPerOp-nn*perEval(commit), "ns")
	out.set("sim.snapshot_us", snap.p50us(), "us")
	out.set("sim.restore_us", restore.p50us(), "us")

	// prof: the activity profiler over a fixed segment.
	p := prof.New()
	s.SetProfiler(p)
	if err := s.Tick(x.scaled(profCycles)); err != nil {
		return err
	}
	s.SetProfiler(nil)
	t := p.Totals()
	out.set("prof.comb_evals_per_cycle", float64(t.CombEvals)/float64(t.Cycles), "count")
	out.set("prof.seq_evals_per_cycle", float64(t.SeqEvals)/float64(t.Cycles), "count")
	out.set("prof.quiescent_eval_pct", 100*float64(t.QuiescentEvals)/float64(t.SeqEvals), "%")

	// checkpoint: capture, encode, decode, select.
	var add, encode, decode, sel samples
	store := checkpoint.NewStore()
	var blob []byte
	for i := 0; i < x.scaled(ckptStore); i++ {
		if err := s.Tick(16); err != nil {
			return err
		}
		state := s.Snapshot()
		t0 := time.Now()
		cp := store.Add(state, "v0", i)
		added := time.Since(t0)
		blob = cp.Bytes()
		add = append(add, added)
		encode = append(encode, time.Since(t0)-added)
		decode.time(func() { _, err = checkpoint.DecodeState(blob) })
		if err != nil {
			return err
		}
	}
	store.Wait()
	target := s.Cycle()
	for i := 0; i < x.scaled(selectIters); i++ {
		sel.time(func() { store.Select(target-uint64(i%ckptStore)*16, 64) })
	}
	out.set("checkpoint.add_us", add.p50us(), "us")
	out.set("checkpoint.encode_ms", encode.p50ms(), "ms")
	out.set("checkpoint.decode_ms", decode.p50ms(), "ms")
	out.set("checkpoint.select_us", sel.p50us(), "us")
	out.set("checkpoint.state_kb", float64(len(blob))/1024, "KB")

	// flatsim: the paper's baseline on the same mesh and images.
	fs, err := newFlat(in)
	if err != nil {
		return err
	}
	fs.Tick(runOpCycles)
	var ftick samples
	for i := 0; i < chunks; i++ {
		ftick.time(func() { fs.Tick(runOpCycles) })
	}
	out.set("flatsim.tick_ns_per_cycle", ftick.p(0.5, time.Nanosecond)/runOpCycles, "ns")
	return nil
}

const (
	wireFastIters = 3000 // ping and cycle round trips
	walSyncEvery  = 250  // appends between timed Syncs
)

// wireIters sizes the `run 4` probes so they cost about the same wall
// time on any mesh.
func wireIters(mesh int) int {
	if mesh == 1 {
		return 3000
	}
	return 400
}

// probeWire measures the request path one hop at a time with a single
// closed-loop client: the same verbs direct and through the gateway, the
// JSON codec on the exact request and response, the dispatched command on
// an identical in-process session, and the journal append it pays for.
func probeWire(x *runCtx, out layerSet) (rejects int, err error) {
	f, err := startFleet(x.dir, true)
	if err != nil {
		return 0, err
	}
	defer f.stop()
	direct, err := dialCaller(f.back, "d0", x.in.mesh)
	if err != nil {
		return 0, err
	}
	defer direct.c.Close()
	via, err := dialCaller(f.addr, "g0", x.in.mesh)
	if err != nil {
		return 0, err
	}
	defer via.c.Close()

	iters, fast := x.scaled(wireIters(x.in.mesh)), x.scaled(wireFastIters)
	rtt := func(k *caller, req *server.Request, n int) (samples, error) {
		var sm samples
		for i := 0; i < n+serveWarm; i++ {
			t0 := time.Now()
			code, err := k.do(req)
			d := time.Since(t0)
			if err != nil {
				if code == "disconnected" {
					return nil, err
				}
				rejects++
				continue
			}
			if i >= serveWarm {
				sm = append(sm, d)
			}
		}
		return sm, nil
	}
	cycleReq := func(k *caller) *server.Request {
		return &server.Request{Session: k.session, Verb: "cycle", Args: []string{sessionPipe}}
	}
	ping, err := rtt(direct, &server.Request{Verb: "ping"}, fast)
	if err != nil {
		return rejects, err
	}
	dCycle, err := rtt(direct, cycleReq(direct), fast)
	if err != nil {
		return rejects, err
	}
	gCycle, err := rtt(via, cycleReq(via), fast)
	if err != nil {
		return rejects, err
	}
	dRun, err := rtt(direct, direct.runReq(), iters)
	if err != nil {
		return rejects, err
	}
	gRun, err := rtt(via, via.runReq(), iters)
	if err != nil {
		return rejects, err
	}
	if len(ping) == 0 || len(dCycle) == 0 || len(gCycle) == 0 || len(dRun) == 0 || len(gRun) == 0 {
		return rejects, fmt.Errorf("wire probe: every request of a verb was rejected")
	}
	out.set("client.rtt_us.ping", ping.p50us(), "us")
	out.set("client.rtt_us.cycle", dCycle.p50us(), "us")
	out.set("client.rtt_us.run4", dRun.p50us(), "us")
	out.set("client.rtt_p90_us", dRun.p(0.90, time.Microsecond), "us")
	out.set("client.rtt_p99_us", dRun.p(0.99, time.Microsecond), "us")
	out.set("gateway.hop_us.cycle", gCycle.p50us()-dCycle.p50us(), "us")
	out.set("gateway.hop_us.run4", gRun.p50us()-dRun.p50us(), "us")
	out.set("gateway.rtt_p99_us", gRun.p(0.99, time.Microsecond), "us")

	// server codec: encode and decode of the run request and its reply,
	// once each way, as one request pays it on one hop.
	req := direct.runReq()
	req.ID, req.TraceID = 1, obs.NewTraceID()
	resp := &server.Response{ID: 1, OK: true}
	var codec samples
	for i := 0; i < fast; i++ {
		var jerr error
		codec.time(func() {
			var b []byte
			var rq server.Request
			var rs server.Response
			if b, jerr = json.Marshal(req); jerr != nil {
				return
			}
			if jerr = json.Unmarshal(b, &rq); jerr != nil {
				return
			}
			if b, jerr = json.Marshal(resp); jerr != nil {
				return
			}
			jerr = json.Unmarshal(b, &rs)
		})
		if jerr != nil {
			return rejects, jerr
		}
	}
	out.set("server.codec_us", codec.p50us(), "us")

	// command: the dispatched verb on a session configured like a hosted
	// one (metrics registry and output capture on).
	var sink bytes.Buffer
	sreg := obs.NewRegistry()
	sess, err := command.BootPGAS(x.in.mesh, core.Config{CheckpointEvery: 10_000, Metrics: sreg, Output: &sink})
	if err != nil {
		return rejects, err
	}
	env := &command.Env{Session: sess, Metrics: sreg, Out: &sink}
	if err := command.Dispatch(env, "instpipe", []string{sessionPipe}); err != nil {
		return rejects, err
	}
	var cmd samples
	args := []string{sessionBench, sessionPipe, runVerbArg}
	for i := 0; i < iters+serveWarm; i++ {
		var derr error
		t0 := time.Now()
		derr = command.Dispatch(env, "run", args)
		d := time.Since(t0)
		if derr != nil {
			return rejects, derr
		}
		if i >= serveWarm {
			cmd = append(cmd, d)
		}
		sink.Reset()
	}
	out.set("command.run4_us", cmd.p50us(), "us")

	// wal: the journal record a `run` leaves, at the server's group-commit
	// interval, and the fsync that interval amortises.
	w, _, err := wal.Open(filepath.Join(x.dir, "probe.wal"), wal.Options{SyncEvery: 100 * time.Millisecond})
	if err != nil {
		return rejects, err
	}
	defer w.Close()
	var app, syn samples
	for i := 0; i < fast; i++ {
		rec := &wal.Record{Type: wal.TypeCmd, Verb: "run", Args: args, Version: "v0", Cycle: uint64(i+1) * runVerbCyc}
		var aerr error
		app.time(func() { aerr = w.Append(rec) })
		if aerr != nil {
			return rejects, aerr
		}
		if (i+1)%walSyncEvery == 0 || i+1 == fast {
			syn.time(func() { aerr = w.Sync() })
			if aerr != nil {
				return rejects, aerr
			}
		}
	}
	out.set("wal.append_us", app.p50us(), "us")
	out.set("wal.sync_ms", syn.p50ms(), "ms")
	out.set("wal.bytes_per_op", float64(w.Size())/float64(fast), "B")

	out.set("server.self_us", dRun.p50us()-cmd.p50us()-app.p50us()-codec.p50us(), "us")
	return rejects, nil
}
