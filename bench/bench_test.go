package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"livesim/internal/pgas"
	"livesim/internal/server/client"
)

// The benchmark reads and writes paths relative to the repository root
// (bench/golden.json, bench/out, .bench_build), so its tests run there
// too; everything they write goes to temporary directories.
func TestMain(m *testing.M) {
	if err := os.Chdir(".."); err != nil {
		panic(err)
	}
	os.Exit(m.Run())
}

// raceBuild is set by race_test.go in -race builds.
var raceBuild bool

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

func TestPercentileAndSpread(t *testing.T) {
	pooled := []float64{9, 1, 5, 3, 7} // two rounds' samples, pooled and unsorted
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.5, 5}, {0.25, 3}, {0.9, 8.2}, {1, 9}} {
		if got := percentile(pooled, c.q); !near(got, c.want) {
			t.Errorf("percentile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if pooled[0] != 9 {
		t.Error("percentile sorted its input in place")
	}
	if !math.IsNaN(percentile(nil, 0.5)) {
		t.Error("percentile of nothing must be NaN")
	}
	rounds := []float64{10.5, 9.5, 10, 12} // per-round rates
	if got := median(rounds); !near(got, 10.25) {
		t.Errorf("median of rounds = %v, want 10.25", got)
	}
	if sp := spreadOf(rounds); sp.Min != 9.5 || sp.Max != 12 {
		t.Errorf("spread = %+v, want 9.5..12", sp)
	}
	if got := relRange(rounds); !near(got, 2.5/10.25) {
		t.Errorf("relRange = %v", got)
	}
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25].
	ten := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	if q1, q3 := quartiles(ten); !near(q1, 2.75) || !near(q3, 8.25) {
		t.Errorf("quartiles = %v, %v, want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0].
	if q1, q3 := quartiles([]float64{16, 1, 8, 2, 4}); !near(q1, 1.5) || !near(q3, 12) {
		t.Errorf("quartiles = %v, %v, want 1.5, 12", q1, q3)
	}
}

func TestSelfTime(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "op", StartNs: 0, EndNs: 100},
		{ID: 2, Name: "a", StartNs: 10, EndNs: 40, Parent: 1},
		{ID: 3, Name: "b", StartNs: 30, EndNs: 60, Parent: 1},  // overlaps a
		{ID: 4, Name: "c", StartNs: 35, EndNs: 38, Parent: 1},  // inside a and b
		{ID: 5, Name: "d", StartNs: 90, EndNs: 130, Parent: 1}, // sticks out of op
		{ID: 6, Name: "e", StartNs: 12, EndNs: 20, Parent: 2},  // grandchild: a's business
	}
	self := selfTimes(spans)
	for id, want := range map[int]int64{1: 100 - (60 - 10) - (100 - 90), 2: 30 - 8, 3: 30, 6: 8} {
		if self[id] != want {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], want)
		}
	}

	rec := newRecorder()
	op := rec.begin("op", 0, 7)
	rec.end(op)
	rec.child("part", op, 0, 5*time.Nanosecond)
	var off *recorder
	if id := off.begin("x", 0, 0); id != 0 {
		t.Error("a nil recorder must hand out span 0")
	}
	off.end(0)
	off.child("x", 0, 0, 0)
	got := rec.all()
	if len(got) != 2 || got[1].Parent != op || got[1].Op != 7 || got[1].EndNs-got[1].StartNs != 5 {
		t.Errorf("recorded spans %+v", got)
	}
}

func set(workload string, metricVals map[string][]float64, failed, attempted int) *resultSet {
	rs := &resultSet{units: map[string]string{}, failed: map[string]int{}, attempted: map[string]int{}, sims: map[string]map[int64]simStats{}}
	rs.values[0], rs.values[1] = map[string]map[string][]float64{}, map[string]map[string][]float64{}
	n := 0
	for _, v := range metricVals {
		n = max(n, len(v))
	}
	for i := 0; i < n; i++ {
		rec := &record{Workload: workload, Seed: int64(i + 1)}
		rec.Metrics = map[string]metric{}
		for name, v := range metricVals {
			rec.Metrics[name] = metric{Value: v[i], Unit: "u"}
		}
		if i == 0 {
			rec.Failed, rec.Attempted = failed, attempted
		}
		rs.add(rec)
	}
	return rs
}

func TestCompareVerdicts(t *testing.T) {
	parent := []float64{100, 101, 99, 100, 102, 98}
	cases := []struct {
		name    string
		metric  string
		change  []float64
		verdict string
		code    int
	}{
		{"same", "op_p50_ms", []float64{100, 100, 101, 99, 100, 100}, verdictOK, 0},
		{"better", "op_p50_ms", []float64{50, 51, 49, 50, 50, 50}, verdictOK, 0},
		{"worse within bound", "op_p50_ms", []float64{108, 109, 107, 108, 108, 108}, verdictOK, 0},
		{"worse beyond bound", "op_p50_ms", []float64{130, 131, 129, 130, 130, 130}, verdictRegressed, 1},
		{"beyond bound but overlapping", "op_p50_ms", []float64{90, 131, 99, 140, 135, 139}, verdictUnresolved, 0},
		{"higher is better", "ops_per_s", []float64{70, 71, 69, 70, 70, 70}, verdictRegressed, 1},
		{"higher is better, improved", "ops_per_s", []float64{130, 131, 129, 130, 130, 130}, verdictOK, 0},
	}
	for _, c := range cases {
		a := set("run_mesh", map[string][]float64{c.metric: parent}, 0, 100)
		b := set("run_mesh", map[string][]float64{c.metric: c.change}, 0, 100)
		var out bytes.Buffer
		code := compareSets(&out, a, b)
		if code != c.code {
			t.Errorf("%s: exit code %d, want %d\n%s", c.name, code, c.code, out.String())
		}
		row := ""
		for _, line := range strings.Split(out.String(), "\n") {
			if strings.Contains(line, c.metric) {
				row = line
			}
		}
		if !strings.HasSuffix(strings.TrimSpace(row), c.verdict) {
			t.Errorf("%s: row %q, want verdict %s", c.name, row, c.verdict)
		}
	}

	// More failures than the parent is a regression whatever the speed.
	a := set("run_mesh", map[string][]float64{"op_p50_ms": parent}, 0, 100)
	b := set("run_mesh", map[string][]float64{"op_p50_ms": parent}, 1, 100)
	var out bytes.Buffer
	if code := compareSets(&out, a, b); code != 1 || !strings.Contains(out.String(), "fail_ratio") {
		t.Errorf("fail_ratio increase: exit code %d\n%s", code, out.String())
	}
}

// benchmarkFile is BENCHMARK.json as the contract defines it.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) *benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var bf benchmarkFile
	if err := dec.Decode(&bf); err != nil {
		t.Fatal(err)
	}
	return &bf
}

// The declaration and the program must agree: same workloads, same
// bounds and directions, and names and units the contract accepts.
func TestBenchmarkFileMatchesProgram(t *testing.T) {
	bf := readBenchmarkFile(t)
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, %d implemented", len(bf.Workloads), len(workloads))
	}
	for i, w := range bf.Workloads {
		name(w.Name)
		if w.Name != workloads[i].name {
			t.Errorf("workload %d is %q, the program has %q", i, w.Name, workloads[i].name)
		}
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	if len(bf.EndToEnd) != len(bounds) {
		t.Errorf("%d end-to-end metrics declared, %d implemented", len(bf.EndToEnd), len(bounds))
	}
	for _, m := range bf.EndToEnd {
		name(m.Name)
		if b, ok := bounds[m.Name]; !ok || b != m.Bound || m.Bound > 0.25 {
			t.Errorf("%s: bound %v declared, %v in the program", m.Name, m.Bound, b)
		}
		if (m.Better == "lower") != lowerIsBetter[m.Name] || m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better=%q disagrees with the program", m.Name, m.Better)
		}
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("%s: unit %q", m.Name, m.Unit)
		}
	}
	if b := bounds["setup_s"]; b != 0.25 {
		t.Errorf("setup_s must carry the largest bound, has %v", b)
	}
	for _, m := range bf.PerLayer {
		name(m.Name)
		if !unitRE.MatchString(m.Unit) || m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: unit %q better %q", m.Name, m.Unit, m.Better)
		}
	}
	if bf.RunSeconds < 1 || bf.RunSeconds > 60 || len(bf.PerLayer) > 128 || len(bf.Paths) != 1 || bf.Paths[0] != "bench" {
		t.Errorf("run_seconds %d, %d per-layer metrics, paths %v", bf.RunSeconds, len(bf.PerLayer), bf.Paths)
	}
}

// smoke runs one workload in one mode at a small scale and checks that
// exactly the declared metrics come out, with their declared units, all
// finite.
func smoke(t *testing.T, workload string, trace int) *record {
	t.Helper()
	if raceBuild && findWorkload(workload).mesh > 1 {
		t.Skip("mesh smoke runs are skipped under the race detector")
	}
	o := options{workload: workload, seed: 3, seconds: 1, trace: trace, scale: 0.02, outDir: t.TempDir(), scratch: t.TempDir(), minRounds: 1}
	rec, err := measure(findWorkload(workload), o)
	if err != nil {
		t.Fatal(err)
	}
	if !rec.Correct || rec.Failed != 0 || rec.Attempted < 1 {
		t.Fatalf("correct=%v attempted=%d failed=%d: %v", rec.Correct, rec.Attempted, rec.Failed, rec.Failures)
	}
	bf := readBenchmarkFile(t)
	want := map[string]string{}
	if trace == 0 {
		for _, m := range bf.EndToEnd {
			want[m.Name] = m.Unit
		}
	} else {
		for _, m := range bf.PerLayer {
			want[m.Name] = m.Unit
		}
	}
	for name, unit := range want {
		m, ok := rec.Metrics[name]
		switch {
		case !ok:
			t.Errorf("declared metric %s was not emitted", name)
		case m.Unit != unit:
			t.Errorf("%s: emitted in %q, declared in %q", name, m.Unit, unit)
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			t.Errorf("%s = %v", name, m.Value)
		}
	}
	for name := range rec.Metrics {
		if _, ok := want[name]; !ok {
			t.Errorf("emitted metric %s is not declared", name)
		}
	}
	if trace == 1 {
		if _, err := os.Stat(filepath.Join(o.outDir, "trace-"+workload+".jsonl")); err != nil {
			t.Error(err)
		}
	}
	return rec
}

func TestSmokeEndToEnd(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			rec := smoke(t, w.name, 0)
			for name, m := range rec.Metrics {
				if m.Value <= 0 {
					t.Errorf("%s = %v: end-to-end metrics are never 0", name, m.Value)
				}
			}
		})
	}
}

func TestSmokeTraced(t *testing.T) {
	names := []string{"edit_small", "serve_gateway"}
	if !testing.Short() {
		names = append(names, "run_mesh")
	}
	for _, name := range names {
		t.Run(name, func(t *testing.T) {
			smoke(t, name, 1)
		})
	}
}

// Each oracle must bite: a run that ends in the wrong state has to fail,
// not report numbers.
func TestOraclesBite(t *testing.T) {
	const scale = 0.02

	t.Run("one cycle short", func(t *testing.T) {
		in, err := newInputs(1, 1)
		if err != nil {
			t.Fatal(err)
		}
		s, err := newSession(in, in.base, editEvery)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Run(sessionBench, sessionPipe, editWarm-1); err != nil {
			t.Fatal(err)
		}
		r := &round{wantCycle: editWarm}
		if err := finishRound(r, s, in.mesh); err != nil {
			t.Fatal(err)
		}
		w := *findWorkload("edit_small")
		w.round = func(*runCtx) (*round, error) { return r, nil }
		x := &runCtx{in: in, scale: scale, root: t.TempDir()}
		if _, err := oneRound(x, &w); err == nil || !strings.Contains(err.Error(), "oracle") {
			t.Errorf("a session one cycle short passed: %v", err)
		}
		// The same state claimed to be one cycle further on: the cycle
		// adds up, the cold compile run to that cycle disagrees.
		r.sim.FinalCycle = editWarm
		if err := editOracle(x, r); err == nil {
			t.Error("a state one cycle behind its cycle count passed the cold-compile oracle")
		}
	})

	t.Run("flipped memory word", func(t *testing.T) {
		in, err := newInputs(1, 16)
		if err != nil {
			t.Fatal(err)
		}
		x := &runCtx{in: in, scale: scale, root: t.TempDir()}
		if err := x.newRoundDir(0); err != nil {
			t.Fatal(err)
		}
		r, err := runRound(x, 1)
		if err != nil {
			t.Fatal(err)
		}
		if err := runOracle(x, r); err != nil {
			t.Fatalf("untouched run failed its oracle: %v", err)
		}
		p, _ := r.session.Pipe(sessionPipe)
		mem := pgas.MemPath(in.mesh, 5)
		v, err := p.Sim.PeekMem(mem, walkFirstWord+3)
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Sim.PokeMem(mem, walkFirstWord+3, v^1); err != nil {
			t.Fatal(err)
		}
		if err := runOracle(x, r); err == nil || !strings.Contains(err.Error(), "node 5") {
			t.Errorf("a flipped memory word passed the flat-simulator oracle: %v", err)
		}
	})

	t.Run("gateway and direct disagree", func(t *testing.T) {
		in, err := newInputs(1, 1)
		if err != nil {
			t.Fatal(err)
		}
		x := &runCtx{in: in, scale: scale, root: t.TempDir()}
		if err := x.newRoundDir(0); err != nil {
			t.Fatal(err)
		}
		f, err := startFleet(x.dir, true)
		if err != nil {
			t.Fatal(err)
		}
		defer f.stop()
		var callers []*caller
		for _, name := range []string{"s0", "s1"} {
			k, err := dialCaller(f.addr, name, in.mesh)
			if err != nil {
				t.Fatal(err)
			}
			defer k.c.Close()
			callers = append(callers, k)
			for i := 0; i < 10; i++ {
				if _, err := k.do(k.runReq()); err != nil {
					t.Fatal(err)
				}
			}
		}
		r := &round{wantCycle: 10 * runVerbCyc}
		if err := verifyServed(f, callers, r); err != nil {
			t.Fatalf("untouched sessions failed verification: %v", err)
		}
		// One request reaches s1's backend session behind the gateway's
		// back: what went through the gateway no longer adds up.
		c, err := client.Dial(f.back)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		side := &caller{c: c, session: "s1", mesh: in.mesh}
		if _, err := side.do(side.runReq()); err != nil {
			t.Fatal(err)
		}
		if err := verifyServed(f, callers, &round{wantCycle: 10 * runVerbCyc}); err == nil || !strings.Contains(err.Error(), "s1") {
			t.Errorf("a session that moved behind the gateway's back passed: %v", err)
		}
	})

	t.Run("golden", func(t *testing.T) {
		want := golden{FinalCycle: 100, Arch: "aa", VMOps: 5}
		if _, err := compareGolden("w", want, simStats{FinalCycle: 99, Arch: "aa", VMOps: 5}); err == nil {
			t.Error("a wrong final cycle passed the golden check")
		}
		if _, err := compareGolden("w", want, simStats{FinalCycle: 100, Arch: "ab", VMOps: 5}); err == nil {
			t.Error("a wrong architectural state passed the golden check")
		}
		if note, err := compareGolden("w", want, simStats{FinalCycle: 100, Arch: "aa", VMOps: 4}); err != nil || note == "" {
			t.Errorf("a different VM op total must be noted, not refused: %q, %v", note, err)
		}
	})
}
