// Package livecompiler implements the LiveCompiler of Section III-C: it
// turns analyzed source into hot-loadable objects, recompiling only what
// changed and deciding — by comparing compiled output against a cached
// copy — whether a recompiled module actually "needs to be swapped into
// the simulation".
//
// The compilation unit is the elaborated specialization (module +
// parameter binding), so a 256-core mesh still compiles each stage once
// (Figure 4(d)). The object cache is keyed by everything that can affect
// the generated code: the module's behavioural token hash, its parameter
// binding, the codegen style and version, and the interface fingerprints
// of its children.
package livecompiler

import (
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"livesim/internal/codegen"
	"livesim/internal/hdl/ast"
	"livesim/internal/hdl/elab"
	"livesim/internal/liveparser"
	"livesim/internal/obs"
	"livesim/internal/vm"
)

// Stats reports what one build did — the raw material for the paper's
// Table VIII (compilation time) and Figure 8 (reload latency breakdown).
type Stats struct {
	ParseTime   time.Duration // preprocess + parse + fingerprint
	ElabTime    time.Duration
	CompileTime time.Duration
	Compiled    int // specializations actually compiled
	CacheHits   int // specializations served from cache
	DiskHits    int // cache hits satisfied from the on-disk object store
}

// Result is the outcome of a build.
type Result struct {
	TopKey string
	// Objects maps specialization keys to compiled objects. Unchanged
	// specializations keep their previous *vm.Object identity, which the
	// kernel uses to skip no-op swaps.
	Objects map[string]*vm.Object
	// Swapped lists specialization keys whose object changed (or is new)
	// relative to the previous build — the hot-reload set.
	Swapped []string
	// Removed lists specialization keys that no longer exist.
	Removed []string
	// Diff is the LiveParser change summary versus the previous build
	// (nil on the first build).
	Diff *liveparser.Diff
	// Stats breaks down where the time went.
	Stats Stats
}

// Compiler is a stateful incremental compiler for one design.
type Compiler struct {
	style     codegen.Style
	top       string
	overrides map[string]uint64

	prevAnalysis *liveparser.Analysis
	prevObjects  map[string]*vm.Object

	// cache maps content keys to compiled objects across builds.
	cache map[string]*vm.Object
	// objDir, when set, persists compiled objects as .lso files — the
	// on-disk shared-library analog of Table II's Object-Path column.
	objDir string

	// metrics, when set, receives per-build counters and phase latency
	// histograms (compile_* names). Nil disables at zero cost.
	metrics *obs.Registry

	// phaseHook, when set, is consulted at the start of each build phase
	// ("parse", "elab", "codegen"); an error aborts the build before the
	// phase runs. Fault-injection harnesses use it to fail a build at a
	// chosen point without touching compiler state.
	phaseHook func(phase string) error
}

// BuildState is an opaque capture of the compiler's last-successful-build
// identity, used by transactional callers: capture before a build, hand
// it back to Rollback if the built objects could not be swapped in.
type BuildState struct {
	analysis *liveparser.Analysis
	objects  map[string]*vm.Object
}

// New creates a compiler for the module named top, using the given
// codegen style and optional top-level parameter overrides.
func New(top string, style codegen.Style, overrides map[string]uint64) *Compiler {
	return &Compiler{
		top:       top,
		style:     style,
		overrides: overrides,
		cache:     make(map[string]*vm.Object),
	}
}

// SetObjectDir enables the persistent object cache: compiled objects are
// written to dir as .lso files and reloaded on cache misses, so a fresh
// session reuses a previous session's compilation work.
func (c *Compiler) SetObjectDir(dir string) { c.objDir = dir }

// SetMetrics points the compiler at a metrics registry (nil = off). Each
// build updates compile_builds, compile_cache_hits/compile_disk_hits,
// compile_compiled, and the compile_{parse,elab,codegen}_seconds
// latency histograms.
func (c *Compiler) SetMetrics(reg *obs.Registry) { c.metrics = reg }

// SetPhaseHook installs (or clears, with nil) the per-phase build hook.
func (c *Compiler) SetPhaseHook(fn func(phase string) error) { c.phaseHook = fn }

// State captures the last-build identity (diff baseline + object table)
// for a later Rollback.
func (c *Compiler) State() BuildState {
	return BuildState{analysis: c.prevAnalysis, objects: c.prevObjects}
}

// Rollback restores a previously captured build state, so the next Build
// diffs against the objects actually live in the simulation rather than
// against a build whose swap failed. The content-addressed object cache
// is deliberately kept: a corrected retry still reuses compiled objects.
func (c *Compiler) Rollback(st BuildState) {
	c.prevAnalysis = st.analysis
	c.prevObjects = st.objects
}

// ObjectFile returns the on-disk path an object with the given content
// key would use ("" when no object directory is configured).
func (c *Compiler) objectFile(contentKey string) string {
	if c.objDir == "" {
		return ""
	}
	h := fnv.New64a()
	h.Write([]byte(contentKey))
	return filepath.Join(c.objDir, fmt.Sprintf("%016x.lso", h.Sum64()))
}

// Objects returns the object table of the last successful build.
func (c *Compiler) Objects() map[string]*vm.Object { return c.prevObjects }

// Resolver exposes the last build's objects to the simulation kernel.
func (c *Compiler) Resolver() func(key string) (*vm.Object, error) {
	return func(key string) (*vm.Object, error) {
		if o, ok := c.prevObjects[key]; ok {
			return o, nil
		}
		return nil, fmt.Errorf("no compiled object %q", key)
	}
}

// Build compiles a source snapshot. The first call is a full build; later
// calls are incremental: only dirty modules recompile, and Swapped lists
// exactly the objects whose code changed.
func (c *Compiler) Build(src liveparser.Source) (*Result, error) {
	return c.BuildSpan(src, nil)
}

// BuildSpan is Build with trace-span context: when parent is non-nil the
// parse, elab and codegen phases are recorded as child spans, so a traced
// live loop shows where build time went.
func (c *Compiler) BuildSpan(src liveparser.Source, parent *obs.Span) (*Result, error) {
	res := &Result{Objects: make(map[string]*vm.Object)}

	phase := func(name string) error {
		if c.phaseHook == nil {
			return nil
		}
		return c.phaseHook(name)
	}

	sp := parent.Child("parse")
	if err := phase("parse"); err != nil {
		return nil, err
	}
	t0 := time.Now()
	analysis, err := liveparser.Analyze(src)
	if err != nil {
		return nil, err
	}
	res.Stats.ParseTime = time.Since(t0)
	sp.End()

	if c.prevAnalysis != nil {
		res.Diff = liveparser.Compare(c.prevAnalysis, analysis)
	}

	srcs := make(map[string]*ast.Module, len(analysis.Modules))
	for name, mi := range analysis.Modules {
		srcs[name] = mi.AST
	}
	sp = parent.Child("elab")
	if err := phase("elab"); err != nil {
		return nil, err
	}
	t1 := time.Now()
	design, err := elab.Elaborate(srcs, c.top, c.overrides)
	if err != nil {
		return nil, err
	}
	res.Stats.ElabTime = time.Since(t1)
	sp.End()
	res.TopKey = design.TopKey

	sp = parent.Child("codegen")
	if err := phase("codegen"); err != nil {
		return nil, err
	}
	t2 := time.Now()
	for _, key := range design.Order {
		em := design.Modules[key]
		ck := c.contentKey(analysis, em)
		if obj, ok := c.cache[ck]; ok {
			res.Objects[key] = obj
			res.Stats.CacheHits++
			continue
		}
		if file := c.objectFile(ck); file != "" {
			if data, err := os.ReadFile(file); err == nil {
				if obj, err := vm.DecodeObject(data); err == nil && obj.Key == em.Key {
					c.cache[ck] = obj
					res.Objects[key] = obj
					res.Stats.CacheHits++
					res.Stats.DiskHits++
					continue
				}
			}
		}
		obj, err := codegen.Compile(em, codegen.Options{
			Style:   c.style,
			SrcPath: analysis.Modules[em.Name].File + "#" + em.Name,
		})
		if err != nil {
			return nil, err
		}
		c.cache[ck] = obj
		res.Objects[key] = obj
		res.Stats.Compiled++
		if file := c.objectFile(ck); file != "" {
			// Best effort: a failed write only loses future reuse.
			_ = os.WriteFile(file, vm.EncodeObject(obj), 0o644)
		}
	}
	res.Stats.CompileTime = time.Since(t2)
	sp.Annotate(obs.U64("compiled", uint64(res.Stats.Compiled)),
		obs.U64("cache_hits", uint64(res.Stats.CacheHits)))
	sp.End()

	if c.metrics != nil {
		c.metrics.Counter("compile_builds").Inc()
		c.metrics.Counter("compile_cache_hits").Add(uint64(res.Stats.CacheHits))
		c.metrics.Counter("compile_disk_hits").Add(uint64(res.Stats.DiskHits))
		c.metrics.Counter("compile_compiled").Add(uint64(res.Stats.Compiled))
		c.metrics.Histogram("compile_parse_seconds", nil).Observe(res.Stats.ParseTime.Seconds())
		c.metrics.Histogram("compile_elab_seconds", nil).Observe(res.Stats.ElabTime.Seconds())
		c.metrics.Histogram("compile_codegen_seconds", nil).Observe(res.Stats.CompileTime.Seconds())
	}

	// Swap decision: hash-compare against the previous build.
	for key, obj := range res.Objects {
		prev, had := c.prevObjects[key]
		if !had || prev.Hash() != obj.Hash() {
			res.Swapped = append(res.Swapped, key)
		}
	}
	for key := range c.prevObjects {
		if _, still := res.Objects[key]; !still {
			res.Removed = append(res.Removed, key)
		}
	}
	sort.Strings(res.Swapped)
	sort.Strings(res.Removed)

	c.prevAnalysis = analysis
	c.prevObjects = res.Objects
	return res, nil
}

// contentKey fingerprints everything that can influence the compiled
// object of one specialization — the code generator included, or an object
// directory filled by an older binary would go on serving its objects.
func (c *Compiler) contentKey(a *liveparser.Analysis, em *elab.Module) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s|gen=%d|style=%d|body=%x", em.Key, codegen.Version, c.style, a.Modules[em.Name].BodyHash)
	for _, inst := range em.Instances {
		childInfo := a.Modules[inst.Child.Name]
		fmt.Fprintf(&sb, "|child=%s:%x", inst.ChildKey, childInfo.IfaceHash)
	}
	return sb.String()
}
