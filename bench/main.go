// Command bench is the repository's benchmark: the live edit loop, the
// simulation kernel and the wire path, measured end to end and layer by
// layer, with every output checked against an oracle. BENCHMARK.json at
// the repository root declares its workloads and metrics; README.md in
// this directory is the catalogue and the measuring rules.
//
//	bench --workload edit_mesh --seed 1 --seconds 15 --trace 0   # end-to-end metrics
//	bench --workload edit_mesh --seed 1 --seconds 15 --trace 1   # per-layer metrics
//	bench --seconds 15                                           # every workload, both passes
//	bench compare a.jsonl b.jsonl                                # verdict per (metric, workload)
//
// Run it through run.sh, which builds it inside the checkout.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// Raw is the value before scaling to reference-host time (end-to-end
	// time metrics only; see control.go).
	Raw float64 `json:"raw,omitempty"`
	// Spread is the min and max of the per-round values behind a median
	// (absent for pooled percentiles and probe results).
	Spread *spread `json:"spread,omitempty"`
	// Status is "ok", or "noisy" when the rounds of this run disagreed by
	// more than the metric's bound.
	Status string `json:"status,omitempty"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// plain strips the metrics down to value and unit, the form the last line
// of standard output is read in.
func (r result) plain() result {
	out := result{Correct: r.Correct, Attempted: r.Attempted, Failed: r.Failed, Metrics: map[string]metric{}}
	for name, m := range r.Metrics {
		out.Metrics[name] = metric{Value: m.Value, Unit: m.Unit}
	}
	return out
}

// record is one run as kept in a results file: what was run, where, and
// what came out. `bench compare` reads files of these.
type record struct {
	Workload string   `json:"workload"`
	Seed     int64    `json:"seed"`
	Trace    int      `json:"trace"`
	Seconds  int      `json:"seconds"`
	Rounds   int      `json:"rounds"`
	Sim      simStats `json:"sim"`
	// HostSpeed is the host's speed during the run relative to the
	// reference host (1 = reference), by the control the workload's times
	// are scaled with.
	HostSpeed float64  `json:"host_speed"`
	Env       envInfo  `json:"env"`
	Failures  []string `json:"failures,omitempty"`
	// PerRound is what each round measured, unscaled, with its host-speed
	// control: the data behind every median, for looking into noise.
	PerRound []roundLog `json:"per_round"`
	// Golden notes a VM op total that differs from the recorded one.
	Golden string `json:"golden,omitempty"`
	result
}

// roundLog is one round in a record.
type roundLog struct {
	SetupS    float64            `json:"setup_s"`
	WallS     float64            `json:"wall_s"`
	CPUS      float64            `json:"cpu_s"`
	OK        int                `json:"ok"`
	HostSpeed float64            `json:"host_speed"`
	Counts    map[string]float64 `json:"counts,omitempty"`
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	os.Exit(benchMain(os.Args[1:]))
}

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    int
	scale    float64
	out      string // results file this run's record is appended to
	outDir   string // where the traced run writes its span files
	scratch  string // where the run keeps its scratch directory
	// minRounds is the fewest rounds an end-to-end run takes medians over,
	// however short --seconds is.
	minRounds int
}

func benchMain(args []string) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	var o options
	fs.StringVar(&o.workload, "workload", "", "workload to run (default: every workload, end-to-end then traced)")
	fs.Int64Var(&o.seed, "seed", 1, "input seed: permutes the edit order, fills the walked data words")
	fs.IntVar(&o.seconds, "seconds", 20, "how long to measure, per workload and pass")
	fs.IntVar(&o.trace, "trace", 0, "0 = end-to-end metrics, tracing off; 1 = traced run, per-layer metrics")
	fs.Float64Var(&o.scale, "scale", 1, "op-count multiplier per round (tests use a small one; results at other scales do not compare)")
	fs.StringVar(&o.out, "out", filepath.Join(outDir, "results.jsonl"), "results file to append this run's record to")
	o.outDir, o.scratch, o.minRounds = outDir, buildDir, 3
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if o.trace != 0 && o.trace != 1 || o.seconds < 1 || o.scale <= 0 {
		fmt.Fprintln(os.Stderr, "bench: --trace is 0 or 1, --seconds at least 1, --scale positive")
		return 2
	}
	if o.workload != "" {
		w := findWorkload(o.workload)
		if w == nil {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", o.workload)
			return 2
		}
		return runOne(w, o)
	}
	// No workload named: the whole catalogue, end-to-end pass first, then
	// the traced pass, so no workload's numbers are taken next to its own
	// tracing.
	code := 0
	for _, trace := range []int{0, 1} {
		for i := range workloads {
			o.trace = trace
			if c := runOne(&workloads[i], o); c != 0 {
				code = c
			}
		}
	}
	return code
}

// runOne measures one workload in one mode and prints its result line.
func runOne(w *workload, o options) int {
	rec, err := measure(w, o)
	if err != nil {
		// An output was wrong or the harness broke: no result line.
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	printTable(rec)
	if err := appendRecord(o.out, rec); err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	line, err := json.Marshal(rec.result.plain())
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

// measure runs w under o and assembles the record.
func measure(w *workload, o options) (*record, error) {
	in, err := newInputs(o.seed, w.mesh)
	if err != nil {
		return nil, err
	}
	root, err := scratchRoot(o.scratch)
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(root)
	defer removeOnSignal(root)()
	x := &runCtx{in: in, scale: o.scale, root: root, outDir: o.outDir}
	budget := time.Duration(o.seconds) * time.Second

	rec := &record{Workload: w.name, Seed: o.seed, Trace: o.trace, Seconds: o.seconds, Env: readEnv()}
	var rounds []*round
	if o.trace == 0 {
		rounds, err = runRounds(x, w, budget, o.minRounds)
		if err != nil {
			return nil, err
		}
		rec.Metrics = endToEnd(rounds)
	} else {
		rounds, rec.Metrics, err = traced(x, w, budget)
		if err != nil {
			return nil, err
		}
	}
	for _, r := range rounds {
		rec.Attempted += r.attempted
		rec.Failed += r.failed
		rec.PerRound = append(rec.PerRound, roundLog{
			SetupS: r.setup.Seconds(), WallS: r.wall.Seconds(), CPUS: r.cpu.Seconds(), OK: len(r.lat),
			HostSpeed: hostSpeedOf(r.control), Counts: r.counts,
		})
	}
	rec.Rounds = len(rounds)
	rec.HostSpeed = hostSpeed(rounds)
	rec.Sim = rounds[0].sim
	rec.Failures = x.failures
	rec.Correct = rec.Failed == 0
	if o.scale == 1 && rec.Correct {
		if rec.Golden, err = checkGolden(w.name, o.seed, rec.Sim); err != nil {
			return nil, err
		}
	}
	for name, m := range rec.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return nil, fmt.Errorf("%s: metric %s is %v", w.name, name, m.Value)
		}
	}
	return rec, nil
}

// endToEnd derives the end-to-end metrics from a run's rounds: latency
// percentiles over the pooled samples of all rounds, everything else the
// median of the per-round values with the rounds' min and max beside it.
// Times are scaled round by round to reference-host time (see
// control.go); Raw is the same statistic over the unscaled times.
func endToEnd(rounds []*round) map[string]metric {
	var lat, latRaw []float64
	per, raw := map[string][]float64{}, map[string][]float64{}
	add := func(name string, scaled, unscaled float64) {
		per[name] = append(per[name], scaled)
		raw[name] = append(raw[name], unscaled)
	}
	for _, r := range rounds {
		// speed < 1: the host was slower than the reference during this
		// round, so its times shrink and its rates grow by that factor.
		speed := hostSpeedOf(r.control)
		for _, d := range r.lat {
			latRaw = append(latRaw, msOf(d))
			lat = append(lat, msOf(d)*speed)
		}
		ok, wall := float64(len(r.lat)), r.wall.Seconds()
		add("setup_s", r.setup.Seconds()*speed, r.setup.Seconds())
		add("heap_live_mb", float64(r.heapLive)/1e6, float64(r.heapLive)/1e6)
		if ok == 0 {
			continue
		}
		add("ops_per_s", ok/wall/speed, ok/wall)
		add("sim_khz", float64(r.simCycles)/wall/1e3/speed, float64(r.simCycles)/wall/1e3)
		add("cpu_ms_per_op", msOf(r.cpu)/ok*speed, msOf(r.cpu)/ok)
	}
	out := map[string]metric{
		"op_p50_ms": {Value: percentile(lat, 0.5), Unit: "ms", Raw: percentile(latRaw, 0.5), Status: "ok"},
	}
	for name, unit := range map[string]string{
		"setup_s": "s", "ops_per_s": "1/s", "sim_khz": "kHz", "cpu_ms_per_op": "ms", "heap_live_mb": "MB",
	} {
		sp := spreadOf(per[name])
		m := metric{Value: median(per[name]), Unit: unit, Raw: median(raw[name]), Spread: &sp, Status: "ok"}
		if relRange(per[name]) > bounds[name] {
			m.Status = "noisy"
		}
		out[name] = m
	}
	return out
}

// hostSpeed is the median over rounds of the host's speed relative to the
// reference host.
func hostSpeed(rounds []*round) float64 {
	var v []float64
	for _, r := range rounds {
		v = append(v, hostSpeedOf(r.control))
	}
	return median(v)
}

// bounds is the share of the parent's median by which each end-to-end
// metric may worsen before a change counts as a regression; the same
// numbers are declared in BENCHMARK.json (a test keeps them equal).
var bounds = map[string]float64{
	"setup_s":       0.25,
	"op_p50_ms":     0.25,
	"ops_per_s":     0.25,
	"sim_khz":       0.25,
	"cpu_ms_per_op": 0.25,
	"heap_live_mb":  0.10,
}

// lowerIsBetter tells compare which way each end-to-end metric improves.
var lowerIsBetter = map[string]bool{
	"setup_s": true, "op_p50_ms": true, "ops_per_s": false,
	"sim_khz": false, "cpu_ms_per_op": true, "heap_live_mb": true,
}

// envInfo is the header of every record: enough to tell whether two runs
// are comparable.
type envInfo struct {
	Commit     string `json:"commit"`
	Go         string `json:"go"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Kernel     string `json:"kernel"`
}

func readEnv() envInfo {
	e := envInfo{Commit: "unknown", Go: runtime.Version(), NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Kernel: "unknown"}
	// run.sh passes the commit when the checkout is a git repository.
	if c := os.Getenv("BENCH_COMMIT"); c != "" {
		e.Commit = c
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		e.Kernel = strings.TrimSpace(string(b))
	}
	return e
}

// scratchRoot makes this process's scratch directory: inside the
// checkout, and short and relative, because unix socket paths are
// limited to about a hundred bytes.
func scratchRoot(parent string) (string, error) {
	if err := os.MkdirAll(parent, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(parent, "run")
}

// outDir receives the results file and the traced run's span files; the
// root .gitignore names it.
var outDir = filepath.Join("bench", "out")

// removeOnSignal makes an interrupted run still remove its scratch
// directory (servers and sockets live in this process and die with it).
// The returned function ends the watch.
func removeOnSignal(dir string) (stop func()) {
	sig := make(chan os.Signal, 1)
	done := make(chan struct{})
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		select {
		case <-sig:
			os.RemoveAll(dir)
			os.Exit(130)
		case <-done:
		}
	}()
	return func() {
		signal.Stop(sig)
		close(done)
	}
}

// buildDir is where run.sh builds and where runs keep their scratch
// files; the root .gitignore names it.
const buildDir = ".bench_build"

func appendRecord(path string, rec *record) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	line, err := json.Marshal(rec)
	if err != nil {
		f.Close()
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// printTable prints every metric of a run by name with its unit.
func printTable(rec *record) {
	fmt.Printf("== %s  seed=%d trace=%d rounds=%d  attempted=%d failed=%d  cycle=%d vm_ops=%d arch=%.12s  host speed %.2f\n",
		rec.Workload, rec.Seed, rec.Trace, rec.Rounds, rec.Attempted, rec.Failed,
		rec.Sim.FinalCycle, rec.Sim.VMOps, rec.Sim.Arch, rec.HostSpeed)
	names := make([]string, 0, len(rec.Metrics))
	for n := range rec.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := rec.Metrics[n]
		line := fmt.Sprintf("  %-34s %14.4f %-6s", n, m.Value, m.Unit)
		if m.Spread != nil {
			line += fmt.Sprintf("  [%.4f .. %.4f]", m.Spread.Min, m.Spread.Max)
		}
		if m.Raw != 0 && m.Raw != m.Value {
			line += fmt.Sprintf("  raw %.4f", m.Raw)
		}
		if m.Status != "" && m.Status != "ok" {
			line += "  " + m.Status
		}
		fmt.Println(line)
	}
	if rec.Golden != "" {
		fmt.Println("  golden:", rec.Golden)
	}
	for _, f := range rec.Failures {
		fmt.Println("  failure:", f)
	}
}
