// Command livesimd is the LiveSim simulation server: it hosts many
// independent sessions and serves them to concurrent clients over TCP
// and/or unix sockets with a newline-delimited JSON protocol (see
// internal/server). Clients create sessions, run testbenches, hot-reload
// edits, take checkpoints and subscribe to live span traces; the daemon
// provides per-session serialization, backpressure, request deadlines,
// idle eviction and — on SIGTERM/SIGINT — a graceful drain that
// checkpoints every dirty session before exiting.
//
// Usage:
//
//	livesimd -listen :9310                      # TCP
//	livesimd -unix /run/livesim.sock            # unix socket
//	livesimd -unix /tmp/ls.sock -drain-dir /var/lib/livesim
//	livesimd -listen :9310 -admin-addr 127.0.0.1:9311   # + HTTP admin plane
//
// Drive it with `livesim -connect <addr>` or any NDJSON-speaking client.
// The admin plane serves /metrics (Prometheus text), /healthz, /eventsz,
// /profilez (per-session activity-profiler snapshots; enable recording
// with the `profile start` verb) and /debug/pprof; operational logs are
// structured JSONL on stderr.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"livesim/internal/faultinject"
	"livesim/internal/obs"
	"livesim/internal/server"
)

var (
	flagListen  = flag.String("listen", "", "TCP address to listen on (e.g. :9310)")
	flagUnix    = flag.String("unix", "", "unix socket path to listen on")
	flagQueue   = flag.Int("queue-depth", 8, "per-session request queue depth (full queues reject with backpressure)")
	flagReqTO   = flag.Duration("request-timeout", 30*time.Second, "per-request deadline")
	flagIdle    = flag.Duration("idle-evict", 0, "evict sessions idle this long (0 = never; dirty sessions are checkpointed)")
	flagDrain   = flag.String("drain-dir", "", "directory for drain/eviction checkpoints and the drain.json manifest")
	flagDrainTO = flag.Duration("drain-timeout", 30*time.Second, "how long a drain waits for in-flight requests")
	flagCkpt    = flag.Uint64("ckpt-every", 10_000, "default checkpoint interval for created sessions")
	flagMetrics = flag.Bool("metrics", true, "print the server metrics registry on exit")
	flagTrace   = flag.String("trace-out", "", "write server request-span JSONL to this file")

	// Observability plane (see README "Operations").
	flagAdmin    = flag.String("admin-addr", "", "HTTP admin endpoint serving /metrics, /healthz, /eventsz, /tracez, /flightz and /debug/pprof (e.g. 127.0.0.1:9311)")
	flagSlowReq  = flag.Duration("slow-request", time.Second, "log + ring-record requests slower than this, with their trace id (0 = off)")
	flagLogLevel = flag.String("log-level", "info", "structured log threshold: debug, info, warn or error")
	flagEvents   = flag.Int("event-ring", 256, "operational event ring capacity (events verb, /eventsz)")

	// Durability & robustness (see README "Durability & recovery").
	flagState     = flag.String("state-dir", "", "state directory for per-session change journals + watermark checkpoints; enables crash-restart recovery")
	flagRunBudget = flag.Duration("run-budget", 0, "hung-run watchdog: cancel runs exceeding this wall-clock budget (0 = off)")
	flagQuarAfter = flag.Int("quarantine-after", 0, "quarantine a session after N consecutive failures (0 = default 3, negative = off)")
	flagWALSync   = flag.Duration("wal-fsync-every", 100*time.Millisecond, "journal fsync batching interval; 0 = fsync on every append (durable but slow)")
	flagJournalCk = flag.Int("journal-ckpt-every", 0, "save watermark checkpoints every N journaled mutations (0 = only on drain/evict)")
	flagCrashWAL  = flag.Int64("crash-wal-offset", -1, "TESTING: SIGKILL self once any session journal reaches this byte offset")

	// Resource governance (see README "Overload & degradation").
	flagAdmitBudget = flag.Int64("admit-budget", 0, "global admission budget in verb-cost units; excess requests are rejected with a retry hint (0 = default 256, negative = off)")
	flagDiskPoll    = flag.Duration("disk-poll", 0, "resource-governor probe cadence for the disk-pressure ladder and memory gauges (0 = default 2s)")
	flagMemBudget   = flag.Uint64("mem-budget", 0, "shed idle sessions once summed per-session memory estimates exceed this many bytes (0 = unlimited)")
	flagResume      = flag.Duration("journal-resume-delay", 0, "cooldown before a paused (nondurable) journal may resume and reanchor (0 = default 250ms)")
	flagFaultFull   = flag.String("fault-disk-full", "", "TESTING: inject ENOSPC into WAL appends, format from:count (1-based append index)")
	flagFaultFree   = flag.String("fault-disk-free", "", "TESTING: force the disk probe to report free:total bytes, walking the pressure ladder without filling a filesystem")

	// Replication (see README "Replication & failover"). Sessions are
	// replicated by verb (`replicate <addr>`), usually driven by lsgate;
	// these flags only inject faults into the shipper for crash tests.
	flagFaultRepl     = flag.String("fault-repl", "", "TESTING: fail the next replication stage of this name (seed or ship) with an injected error")
	flagFaultReplDrop = flag.Int("fault-repl-drop", 0, "TESTING: sever the replication stream before the Nth shipped batch (1-based; 0 = off)")
)

// telemetry holds the distributed-tracing & flight-recorder flags (see
// README "Distributed tracing & flight recorder").
var telemetry obs.TelemetryConfig

func init() {
	telemetry.RegisterFlags(flag.CommandLine, "livesimd", "`spans`/`trace <id>`", ": -slow-request, else 250ms", "default: -state-dir")
}

// parsePair splits a "from:count"-style flag into two non-negative ints.
func parsePair(flagName, v string) (a, b int64, err error) {
	parts := strings.SplitN(v, ":", 2)
	if len(parts) != 2 {
		return 0, 0, fmt.Errorf("-%s: want A:B, got %q", flagName, v)
	}
	if a, err = strconv.ParseInt(parts[0], 10, 64); err != nil || a < 0 {
		return 0, 0, fmt.Errorf("-%s: bad first field %q", flagName, parts[0])
	}
	if b, err = strconv.ParseInt(parts[1], 10, 64); err != nil || b < 0 {
		return 0, 0, fmt.Errorf("-%s: bad second field %q", flagName, parts[1])
	}
	return a, b, nil
}

func main() {
	os.Exit(run())
}

// run keeps every exit on one path so deferred cleanup (trace file
// close, metrics summary) always executes.
func run() int {
	flag.Parse()
	level, lerr := obs.ParseLevel(*flagLogLevel)
	if lerr != nil {
		fmt.Fprintln(os.Stderr, "livesimd:", lerr)
		return 2
	}
	// Structured JSONL operational log: one JSON object per line on
	// stderr, greppable and machine-parseable.
	logger := obs.NewLogger(os.Stderr, level)
	if *flagListen == "" && *flagUnix == "" {
		fmt.Fprintln(os.Stderr, "need -listen and/or -unix; see -help")
		return 2
	}

	reg := obs.NewRegistry()
	cfg := server.Config{
		QueueDepth:      *flagQueue,
		RequestTimeout:  *flagReqTO,
		IdleTimeout:     *flagIdle,
		CheckpointEvery: *flagCkpt,
		DrainDir:        *flagDrain,
		Metrics:         reg,
		Log:             logger,
		SlowRequest:     *flagSlowReq,
		EventRingCap:    *flagEvents,

		TelemetryConfig: telemetry,

		StateDir:               *flagState,
		RunBudget:              *flagRunBudget,
		QuarantineAfter:        *flagQuarAfter,
		JournalCheckpointEvery: *flagJournalCk,

		AdmitBudget:        *flagAdmitBudget,
		DiskPollEvery:      *flagDiskPoll,
		MemBudget:          *flagMemBudget,
		JournalResumeDelay: *flagResume,
	}
	if *flagWALSync <= 0 {
		cfg.WALSyncEvery = -1 // fsync on every append
	} else {
		cfg.WALSyncEvery = *flagWALSync
	}
	if *flagCrashWAL >= 0 || *flagFaultFull != "" || *flagFaultFree != "" ||
		*flagFaultRepl != "" || *flagFaultReplDrop > 0 {
		plan := faultinject.New()
		cfg.Faults = plan
		if *flagCrashWAL >= 0 {
			// Crash-matrix harness: die hard (no drain, no deferred cleanup)
			// the moment any session journal's durable size crosses the
			// offset, so recovery tests exercise a genuinely torn process.
			plan.CrashWALAt(*flagCrashWAL)
			cfg.WALOnWrite = func(size int64) {
				if plan.WALSize(size) {
					syscall.Kill(os.Getpid(), syscall.SIGKILL)
				}
			}
		}
		if *flagFaultFull != "" {
			from, count, err := parsePair("fault-disk-full", *flagFaultFull)
			if err != nil {
				fmt.Fprintln(os.Stderr, "livesimd:", err)
				return 2
			}
			plan.DiskFullAppends(int(from), int(count))
		}
		if *flagFaultFree != "" {
			free, total, err := parsePair("fault-disk-free", *flagFaultFree)
			if err != nil {
				fmt.Fprintln(os.Stderr, "livesimd:", err)
				return 2
			}
			plan.ForceDiskFree(uint64(free), uint64(total))
		}
		if *flagFaultRepl != "" {
			plan.FailReplAt(*flagFaultRepl)
		}
		if *flagFaultReplDrop > 0 {
			plan.DropReplStream(*flagFaultReplDrop)
		}
	}
	if *flagTrace != "" {
		f, err := os.Create(*flagTrace)
		if err != nil {
			logger.Error("trace-out open failed", obs.Str("err", err.Error()))
			return 1
		}
		defer f.Close()
		cfg.TraceOut = f
	}
	if *flagMetrics {
		defer func() {
			fmt.Fprintln(os.Stderr, "-- server metrics --")
			reg.WriteText(os.Stderr)
		}()
	}

	srv := server.New(cfg)

	// The admin plane binds before Recover so /healthz reports
	// "recovering" (503) during journal replay instead of refusing
	// connections — a load balancer can tell "booting" from "dead".
	if *flagAdmin != "" {
		aln, err := net.Listen("tcp", *flagAdmin)
		if err != nil {
			logger.Error("admin listen failed", obs.Str("addr", *flagAdmin), obs.Str("err", err.Error()))
			return 1
		}
		admin := &http.Server{Handler: srv.AdminHandler()}
		go admin.Serve(aln)
		defer admin.Close()
		logger.Info("admin endpoint listening", obs.Str("addr", aln.Addr().String()))
	}

	if err := srv.Recover(); err != nil {
		logger.Error("recover failed", obs.Str("err", err.Error()))
		return 1
	}
	serveErrs := make(chan error, 2)
	listening := 0
	if *flagListen != "" {
		ln, err := net.Listen("tcp", *flagListen)
		if err != nil {
			logger.Error("tcp listen failed", obs.Str("addr", *flagListen), obs.Str("err", err.Error()))
			return 1
		}
		logger.Info("listening", obs.Str("net", "tcp"), obs.Str("addr", ln.Addr().String()))
		listening++
		go func() { serveErrs <- srv.Serve(ln) }()
	}
	if *flagUnix != "" {
		os.Remove(*flagUnix) // stale socket from an unclean previous run
		ln, err := net.Listen("unix", *flagUnix)
		if err != nil {
			logger.Error("unix listen failed", obs.Str("addr", *flagUnix), obs.Str("err", err.Error()))
			return 1
		}
		defer os.Remove(*flagUnix)
		logger.Info("listening", obs.Str("net", "unix"), obs.Str("addr", *flagUnix))
		listening++
		go func() { serveErrs <- srv.Serve(ln) }()
	}

	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGTERM, syscall.SIGINT)

	select {
	case sig := <-sigs:
		logger.Info("signal received; draining", obs.Str("signal", sig.String()))
	case <-srv.DrainRequested():
		// The wire `drain` verb (operator, or a gateway that migrated
		// everything off) runs the exact same path SIGTERM does.
		logger.Info("drain requested over the wire; draining")
	case err := <-serveErrs:
		if err != nil {
			logger.Error("serve failed", obs.Str("err", err.Error()))
			return 1
		}
		return 0
	}

	ctx, cancel := context.WithTimeout(context.Background(), *flagDrainTO)
	defer cancel()
	rep, err := srv.Shutdown(ctx)
	if err != nil {
		logger.Error("drain failed", obs.Str("err", err.Error()))
		return 1
	}
	saved := 0
	for _, ds := range rep.Sessions {
		saved += len(ds.Files)
	}
	logger.Info(fmt.Sprintf("drained cleanly (%d sessions, %d checkpoint files)", len(rep.Sessions), saved))
	return 0
}
