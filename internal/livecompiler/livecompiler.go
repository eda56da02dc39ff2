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
	"strconv"
	"time"

	"livesim/internal/codegen"
	"livesim/internal/frame"
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
	FilesParsed int // source files preprocessed and parsed
	FilesReused int // source files whose kept analysis was still current
	Elaborated  int // specializations elaborated (the rest were carried over)
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

	// analyzer and elaborator hold what the last builds parsed and
	// elaborated, keyed by source bytes and by AST identity. They are not
	// part of BuildState: nothing in them can match a snapshot it was not
	// made from, so a failed or rolled-back build needs no undoing there.
	analyzer   liveparser.Analyzer
	elaborator elab.Elaborator

	// last is the last successful build: the diff baseline, the object
	// table the swap decision compares against, and what a build without
	// behavioural change returns again.
	last BuildState

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
	topKey   string
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
func (c *Compiler) State() BuildState { return c.last }

// Rollback restores a previously captured build state, so the next Build
// diffs against the objects actually live in the simulation rather than
// against a build whose swap failed. The content-addressed object cache
// is deliberately kept: a corrected retry still reuses compiled objects.
func (c *Compiler) Rollback(st BuildState) { c.last = st }

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
func (c *Compiler) Objects() map[string]*vm.Object { return c.last.objects }

// Resolver exposes the last build's objects to the simulation kernel.
func (c *Compiler) Resolver() func(key string) (*vm.Object, error) {
	return func(key string) (*vm.Object, error) {
		if o, ok := c.last.objects[key]; ok {
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
// live loop shows where build time went. A phase that fails still ends its
// span, with an error attribute.
//
// The work is proportional to what changed: only files whose bytes differ
// from a kept analysis are parsed, only the specializations from a changed
// module up to the top are elaborated, and an edit LiveParser finds no
// behavioural change in (Diff.NoChange) returns the previous objects
// without elaborating at all.
func (c *Compiler) BuildSpan(src liveparser.Source, parent *obs.Span) (*Result, error) {
	res, err := c.build(src, parent)
	if err == nil {
		c.observe(&res.Stats)
	}
	return res, err
}

func (c *Compiler) build(src liveparser.Source, parent *obs.Span) (*Result, error) {
	res := &Result{}
	var analysis *liveparser.Analysis
	var err error
	res.Stats.ParseTime, err = c.phase(parent, "parse", func(sp *obs.Span) (err error) {
		if analysis, err = c.analyzer.Analyze(src); err != nil {
			return err
		}
		res.Stats.FilesParsed, res.Stats.FilesReused = analysis.FilesParsed, analysis.FilesReused
		sp.Annotate(obs.U64("files_parsed", uint64(analysis.FilesParsed)),
			obs.U64("files_reused", uint64(analysis.FilesReused)))
		return nil
	})
	if err != nil {
		return nil, err
	}

	if c.last.analysis != nil {
		res.Diff = liveparser.Compare(c.last.analysis, analysis)
		if res.Diff.NoChange() {
			// Same behavioural tokens in every module: the objects of the
			// previous build are the objects of this one.
			res.TopKey, res.Objects = c.last.topKey, c.last.objects
			res.Stats.CacheHits = len(res.Objects)
			c.last.analysis = analysis
			return res, nil
		}
	}

	var design *elab.Design
	res.Stats.ElabTime, err = c.phase(parent, "elab", func(sp *obs.Span) (err error) {
		srcs := make(map[string]*ast.Module, len(analysis.Modules))
		for name, mi := range analysis.Modules {
			srcs[name] = mi.AST
		}
		if design, err = c.elaborator.Elaborate(srcs, c.top, c.overrides); err != nil {
			return err
		}
		res.Stats.Elaborated = design.Elaborated
		sp.Annotate(obs.U64("elaborated", uint64(design.Elaborated)),
			obs.U64("specializations", uint64(len(design.Order))))
		return nil
	})
	if err != nil {
		return nil, err
	}
	res.TopKey = design.TopKey

	res.Objects = make(map[string]*vm.Object, len(design.Order))
	res.Stats.CompileTime, err = c.phase(parent, "codegen", func(sp *obs.Span) error {
		for _, key := range design.Order {
			obj, err := c.object(analysis, design.Modules[key], &res.Stats)
			if err != nil {
				return err
			}
			res.Objects[key] = obj
		}
		sp.Annotate(obs.U64("compiled", uint64(res.Stats.Compiled)),
			obs.U64("cache_hits", uint64(res.Stats.CacheHits)))
		return nil
	})
	if err != nil {
		return nil, err
	}

	// Swap decision: hash-compare against the previous build.
	for key, obj := range res.Objects {
		prev, had := c.last.objects[key]
		if !had || (prev != obj && prev.Hash() != obj.Hash()) {
			res.Swapped = append(res.Swapped, key)
		}
	}
	for key := range c.last.objects {
		if _, still := res.Objects[key]; !still {
			res.Removed = append(res.Removed, key)
		}
	}
	sort.Strings(res.Swapped)
	sort.Strings(res.Removed)

	c.last = BuildState{analysis: analysis, objects: res.Objects, topKey: res.TopKey}
	return res, nil
}

// phase runs one build phase under a child span of parent, after asking
// the phase hook, and returns how long the phase itself took. The span is
// ended on every path; a failure is recorded on it first.
func (c *Compiler) phase(parent *obs.Span, name string, run func(sp *obs.Span) error) (time.Duration, error) {
	sp := parent.Child(name)
	defer sp.End()
	var err error
	if c.phaseHook != nil {
		err = c.phaseHook(name)
	}
	t0 := time.Now()
	if err == nil {
		err = run(sp)
	}
	if err != nil {
		sp.Annotate(obs.Str("error", err.Error()))
	}
	return time.Since(t0), err
}

// object returns the compiled object of one specialization: from the
// in-memory cache, from the object directory, or by compiling it.
func (c *Compiler) object(a *liveparser.Analysis, em *elab.Module, st *Stats) (*vm.Object, error) {
	ck := c.contentKey(a, em)
	if obj, ok := c.cache[ck]; ok {
		st.CacheHits++
		return obj, nil
	}
	file := c.objectFile(ck)
	if file != "" {
		if data, err := os.ReadFile(file); err == nil {
			if obj, err := vm.DecodeObject(data); err == nil && obj.Key == em.Key {
				c.cache[ck] = obj
				st.CacheHits++
				st.DiskHits++
				return obj, nil
			}
			// Damaged, foreign or of an older layout: the file written
			// below replaces it rather than keeping it as a backup.
			os.Remove(file)
		}
	}
	obj, err := codegen.Compile(em, codegen.Options{
		Style:   c.style,
		SrcPath: a.Modules[em.Name].File + "#" + em.Name,
	})
	if err != nil {
		return nil, err
	}
	c.cache[ck] = obj
	st.Compiled++
	if file != "" {
		// Best effort: a failed write only loses future reuse.
		_ = frame.WriteFileAtomic(file, vm.EncodeObject(obj), nil)
	}
	return obj, nil
}

// observe feeds one successful build's counts and phase times to the
// metrics registry.
func (c *Compiler) observe(st *Stats) {
	if c.metrics == nil {
		return
	}
	c.metrics.Counter("compile_builds").Inc()
	c.metrics.Counter("compile_files_parsed").Add(uint64(st.FilesParsed))
	c.metrics.Counter("compile_files_reused").Add(uint64(st.FilesReused))
	c.metrics.Counter("compile_elaborated").Add(uint64(st.Elaborated))
	c.metrics.Counter("compile_cache_hits").Add(uint64(st.CacheHits))
	c.metrics.Counter("compile_disk_hits").Add(uint64(st.DiskHits))
	c.metrics.Counter("compile_compiled").Add(uint64(st.Compiled))
	c.metrics.Histogram("compile_parse_seconds", nil).Observe(st.ParseTime.Seconds())
	c.metrics.Histogram("compile_elab_seconds", nil).Observe(st.ElabTime.Seconds())
	c.metrics.Histogram("compile_codegen_seconds", nil).Observe(st.CompileTime.Seconds())
}

// contentKey fingerprints everything that can influence the compiled
// object of one specialization — the code generator included, or an object
// directory filled by an older binary would go on serving its objects.
func (c *Compiler) contentKey(a *liveparser.Analysis, em *elab.Module) string {
	// Appended by hand: a mesh top has one child term per instance, and
	// this is fmt's "%s|gen=%d|style=%d|body=%x" then "|child=%s:%x" each.
	b := make([]byte, 0, 64+48*len(em.Instances))
	b = append(b, em.Key...)
	b = append(b, "|gen="...)
	b = strconv.AppendInt(b, int64(codegen.Version), 10)
	b = append(b, "|style="...)
	b = strconv.AppendInt(b, int64(c.style), 10)
	b = append(b, "|body="...)
	b = strconv.AppendUint(b, a.Modules[em.Name].BodyHash, 16)
	var child string // of the previous term: a mesh repeats one child
	var iface uint64
	for _, inst := range em.Instances {
		if name := inst.Child.Name; name != child {
			child, iface = name, a.Modules[name].IfaceHash
		}
		b = append(b, "|child="...)
		b = append(b, inst.ChildKey...)
		b = append(b, ':')
		b = strconv.AppendUint(b, iface, 16)
	}
	return string(b)
}
