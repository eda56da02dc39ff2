package obs

import (
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// TelemetryConfig is the tracing and crash-forensics configuration every
// daemon shares; server.Config and gateway.Config embed it, and
// RegisterFlags declares its five flags.
type TelemetryConfig struct {
	// ProcName identifies this process in assembled fleet traces and
	// blackbox dumps. Empty defaults to "<daemon>:<pid>".
	ProcName string
	// SpanStoreCap bounds the in-memory span store (live + retained
	// traces) behind the `spans`/`trace` verbs and /tracez. 0 uses the
	// default (256 traces); negative disables the store.
	SpanStoreCap int
	// FlightRecorderCap bounds the always-on black-box ring of recent
	// spans and lifecycle notes dumped on abnormal exits and served by
	// /flightz. 0 uses the default (512 lines); negative disables it.
	FlightRecorderCap int
	// BlackboxDir receives blackbox-<ts>.jsonl dumps, on triggers (panic,
	// self-fence, quarantine trip, watchdog cancel, drain-stuck) and from
	// the periodic flush. Empty skips the dumps (livesimd defaults it to
	// its StateDir); the /flightz endpoint still serves the ring.
	BlackboxDir string
	// BlackboxFlushEvery is the cadence of the periodic black-box flush
	// to disk, which is what survives SIGKILL. 0 uses the default (2s);
	// negative disables periodic flushing (trigger dumps still happen).
	BlackboxFlushEvery time.Duration
}

// RegisterFlags declares the five telemetry flags on fs, bound to c. The
// help text is shared; daemon, storeVerbs and dirDefault fill in the
// three places where livesimd and lsgate word it differently.
func (c *TelemetryConfig) RegisterFlags(fs *flag.FlagSet, daemon, storeVerbs, dirDefault string) {
	fs.StringVar(&c.ProcName, "proc-name", "", "process label in assembled fleet traces and blackbox dumps (default "+daemon+":<pid>)")
	fs.IntVar(&c.SpanStoreCap, "trace-store", 0, "in-memory span store capacity in traces, for "+storeVerbs+"/tracez (0 = default 256, negative = off)")
	fs.IntVar(&c.FlightRecorderCap, "flight", 0, "flight-recorder ring capacity in span/event lines, for /flightz and blackbox dumps (0 = default 512, negative = off)")
	fs.StringVar(&c.BlackboxDir, "blackbox-dir", "", "directory for blackbox-<ts>.jsonl dumps on abnormal exits ("+dirDefault+")")
	fs.DurationVar(&c.BlackboxFlushEvery, "blackbox-flush", 0, "periodic blackbox flush cadence — the record surviving SIGKILL (0 = default 2s, negative = off)")
}

// Telemetry is one daemon's tracing and crash-forensics plane: every
// span goes through Fan to one line writer feeding the span store
// (indexed by trace id, for the `spans`/`trace` verbs and /tracez) and
// the flight recorder (the last N spans and notes, for /flightz and
// blackbox dumps), and to any subscriber; events is the queryable ring
// of lifecycle incidents (Event, Events). Store and Flight are nil when
// disabled; their methods are nil-safe.
type Telemetry struct {
	Proc   string
	Fan    *Fanout
	Tracer *Tracer
	Store  *SpanStore
	Flight *FlightRecorder
	events *Ring[Event]

	dir      string
	log      *Logger
	reg      *Registry
	prefix   string
	dumps    *Counter
	lastDump atomic.Int64 // last trigger dump, unixnano (rate limit)

	stopOnce sync.Once
	stop     chan struct{}
	flusher  sync.WaitGroup
}

// eventRingCap bounds the operational event ring behind the `events`
// verb and /eventsz of both daemons.
const eventRingCap = 256

// defaultRetainOver is the tail-sampling threshold when the daemon has
// no slow-request threshold of its own.
const defaultRetainOver = 250 * time.Millisecond

// NewTelemetry builds the plane and, when a blackbox directory and a
// flight recorder exist, starts the periodic flusher; Stop ends it.
// daemon names the process when cfg.ProcName does not; traceOut (may be
// nil) additionally receives every span line; retainOver is the
// tail-sampling threshold: completed traces at least this slow, or
// errored, stay in the span store while fast successful ones rotate
// through a small recent ring (0 or less: 250ms). Events and trigger
// dumps are counted in reg under prefix: <prefix>_event_<type> and
// <prefix>_blackbox_dumps.
func NewTelemetry(cfg TelemetryConfig, daemon string, traceOut io.Writer, retainOver time.Duration, reg *Registry, prefix string, log *Logger) *Telemetry {
	t := &Telemetry{
		Proc:   cfg.ProcName,
		Fan:    NewFanout(),
		events: NewRing[Event](eventRingCap),
		dir:    cfg.BlackboxDir,
		log:    log,
		reg:    reg,
		prefix: prefix,
		dumps:  reg.Counter(prefix + "_blackbox_dumps"),
		stop:   make(chan struct{}),
	}
	if t.Proc == "" {
		t.Proc = fmt.Sprintf("%s:%d", daemon, os.Getpid())
	}
	if traceOut != nil {
		t.Fan.Attach(traceOut)
	}
	if retainOver <= 0 {
		retainOver = defaultRetainOver
	}
	if cfg.SpanStoreCap >= 0 {
		t.Store = NewSpanStore(SpanStoreConfig{
			Proc:         t.Proc,
			MaxTraces:    cfg.SpanStoreCap,
			RetainOverUS: retainOver.Microseconds(),
		})
	}
	if cfg.FlightRecorderCap >= 0 {
		t.Flight = NewFlightRecorder(t.Proc, cfg.FlightRecorderCap)
	}
	t.AttachSinks(t.Fan)
	t.Tracer = NewTracer(t.Fan)
	if t.Flight != nil && t.dir != "" && cfg.BlackboxFlushEvery >= 0 {
		every := cfg.BlackboxFlushEvery
		if every == 0 {
			every = 2 * time.Second
		}
		os.MkdirAll(t.dir, 0o755) // best-effort: a dump into a missing dir reports the cause
		t.flusher.Add(1)
		go t.flush(BlackboxPath(t.dir, time.Now()), every)
	}
	return t
}

// AttachSinks feeds another span fanout (a hosted session's) into the
// span store and the flight recorder through its own line writer: each
// line is split out and copied once, and the store and the ring share
// the copy.
func (t *Telemetry) AttachSinks(fan *Fanout) {
	if t.Store != nil || t.Flight != nil {
		fan.Attach(&lineWriter{fn: func(line []byte) {
			t.Store.ingest(line)
			t.Flight.record(line)
		}})
	}
}

// Mount serves on mux the admin endpoints both daemons answer alike:
// /eventsz, /flightz, and /metrics, which renders the registry in
// Prometheus text under promPrefix and then what more adds (nil:
// nothing).
func (t *Telemetry) Mount(mux *http.ServeMux, promPrefix string, more func(*PromWriter)) {
	mux.HandleFunc("/eventsz", t.handleEventsz)
	mux.HandleFunc("/flightz", t.handleFlightz)
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		pw := NewPromWriter(promPrefix)
		pw.AddSnapshot(nil, t.reg.Snapshot())
		if more != nil {
			more(pw)
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		pw.Write(w)
	})
}

// handleFlightz is /flightz: the flight-recorder ring as NDJSON, newest
// last, exactly as a blackbox dump writes it.
func (t *Telemetry) handleFlightz(w http.ResponseWriter, r *http.Request) {
	if t.Flight == nil {
		http.Error(w, "flight recorder disabled", http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	t.Flight.Dump(w, "flightz")
}

// Blackbox records an abnormal incident as an event and dumps the
// flight recorder: request panics, self-fence, quarantine trips,
// watchdog cancels, a worker stuck at drain.
func (t *Telemetry) Blackbox(reason, session, trace, msg string) {
	t.Event(reason, session, trace, msg)
	t.Dump(reason)
}

// Dump writes the flight recorder to a fresh blackbox file, at most
// once per second so a flapping trigger cannot grind the disk.
func (t *Telemetry) Dump(reason string) {
	if t.Flight == nil || t.dir == "" {
		return
	}
	now := time.Now()
	last := t.lastDump.Load()
	if now.UnixNano()-last < int64(time.Second) || !t.lastDump.CompareAndSwap(last, now.UnixNano()) {
		return
	}
	path := BlackboxPath(t.dir, now)
	if err := t.Flight.DumpToFile(path, reason); err != nil {
		t.log.Error("blackbox dump failed", Str("err", err.Error()), Str("path", path))
		return
	}
	t.dumps.Inc()
	t.log.Warn("blackbox dumped", Str("reason", reason), Str("path", path))
}

// flush periodically rewrites this boot's blackbox file while the ring
// is dirty. Trigger dumps cover crashes the process can see; the
// flusher's last write is the record for the ones it can't (SIGKILL,
// OOM kill, kernel panic).
func (t *Telemetry) flush(path string, every time.Duration) {
	defer t.flusher.Done()
	tick := time.NewTicker(every)
	defer tick.Stop()
	var flushed uint64
	flush := func() {
		if w := t.Flight.Writes(); w != flushed {
			if err := t.Flight.DumpToFile(path, "periodic"); err == nil {
				flushed = w
			}
		}
	}
	// Write immediately so the file exists from boot — an early SIGKILL
	// must still leave an (empty but parseable) black box behind.
	t.Flight.DumpToFile(path, "periodic")
	for {
		select {
		case <-t.stop:
			flush()
			return
		case <-tick.C:
			flush()
		}
	}
}

// Stop ends the periodic flusher after one last flush and waits for it:
// nothing lands in the blackbox directory after Stop returns.
func (t *Telemetry) Stop() {
	t.stopOnce.Do(func() { close(t.stop) })
	t.flusher.Wait()
}
