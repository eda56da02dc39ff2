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
	"os"
	"strconv"
	"strings"
	"time"

	"livesim/cmd/internal/daemon"
	"livesim/internal/faultinject"
	"livesim/internal/obs"
	"livesim/internal/server"
)

var (
	flagQueue = flag.Int("queue-depth", 8, "per-session request queue depth (full queues reject with backpressure)")
	flagIdle  = flag.Duration("idle-evict", 0, "evict sessions idle this long (0 = never; dirty sessions are checkpointed)")
	flagDrain = flag.String("drain-dir", "", "directory for drain/eviction checkpoints and the drain.json manifest")
	flagCkpt  = flag.Uint64("ckpt-every", 10_000, "default checkpoint interval for created sessions")
	flagTrace = flag.String("trace-out", "", "write server request-span JSONL to this file")

	// Observability plane (see README "Operations").
	flagSlowReq = flag.Duration("slow-request", time.Second, "log + ring-record requests slower than this, with their trace id, and keep their traces in the span store (0 = off; the store then keeps traces from 250ms)")

	// Durability & robustness (see README "Durability & recovery").
	flagState     = flag.String("state-dir", "", "state directory for per-session change journals + watermark checkpoints; enables crash-restart recovery")
	flagRunBudget = flag.Duration("run-budget", 0, "hung-run watchdog: cancel runs exceeding this wall-clock budget (0 = off)")
	flagWALSync   = flag.Duration("wal-fsync-every", 100*time.Millisecond, "journal fsync batching interval; 0 = fsync on every append (durable but slow)")
	flagJournalCk = flag.Int("journal-ckpt-every", 0, "save watermark checkpoints every N journaled mutations (0 = only on drain/evict)")
	flagCrashWAL  = flag.Int64("crash-wal-offset", -1, "TESTING: SIGKILL self once any session journal reaches this byte offset")

	// Resource governance (see README "Overload & degradation").
	flagAdmitBudget = flag.Int64("admit-budget", 0, "global admission budget in verb-cost units; excess requests are rejected with a retry hint (0 = default 256, negative = off)")
	flagDiskPoll    = flag.Duration("disk-poll", 0, "resource-governor probe cadence for the disk-pressure ladder and memory gauges (0 = default 2s)")
	flagMemBudget   = flag.Uint64("mem-budget", 0, "shed idle sessions once summed per-session memory estimates exceed this many bytes (0 = unlimited)")
	flagFaultFull   = flag.String("fault-disk-full", "", "TESTING: inject ENOSPC into WAL appends, format from:count (1-based append index)")
)

// drainTimeout bounds how long a drain waits for in-flight requests.
const drainTimeout = 30 * time.Second

// flags are the listeners, admin plane, log level and metrics print
// every daemon shares; telemetry holds the distributed-tracing &
// flight-recorder flags (see README "Distributed tracing & flight
// recorder").
var (
	flags     daemon.Flags
	telemetry obs.TelemetryConfig
)

func init() {
	flags.Register(flag.CommandLine, "livesimd", "server", ":9310",
		"HTTP admin endpoint serving /metrics, /healthz, /eventsz, /tracez, /flightz and /debug/pprof (e.g. 127.0.0.1:9311)")
	telemetry.RegisterFlags(flag.CommandLine, "livesimd", "`spans`/`trace <id>`", "default: -state-dir")
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
	logger := flags.Logger()
	if logger == nil {
		return 2
	}

	reg := obs.NewRegistry()
	cfg := server.Config{
		QueueDepth:      *flagQueue,
		IdleTimeout:     *flagIdle,
		CheckpointEvery: *flagCkpt,
		DrainDir:        *flagDrain,
		Metrics:         reg,
		Log:             logger,
		SlowRequest:     *flagSlowReq,

		TelemetryConfig: telemetry,

		StateDir:               *flagState,
		RunBudget:              *flagRunBudget,
		JournalCheckpointEvery: *flagJournalCk,

		AdmitBudget:   *flagAdmitBudget,
		DiskPollEvery: *flagDiskPoll,
		MemBudget:     *flagMemBudget,
	}
	if *flagWALSync <= 0 {
		cfg.WALSyncEvery = -1 // fsync on every append
	} else {
		cfg.WALSyncEvery = *flagWALSync
	}
	if *flagCrashWAL >= 0 || *flagFaultFull != "" {
		plan := faultinject.New()
		cfg.Faults = plan
		if *flagCrashWAL >= 0 {
			// Crash-matrix harness: the journal SIGKILLs the process (no
			// drain, no deferred cleanup) the moment its durable size
			// crosses the offset, so recovery tests meet a torn process.
			plan.CrashWALAt(*flagCrashWAL)
		}
		if *flagFaultFull != "" {
			from, count, err := parsePair("fault-disk-full", *flagFaultFull)
			if err != nil {
				fmt.Fprintln(os.Stderr, "livesimd:", err)
				return 2
			}
			plan.DiskFullAppends(int(from), int(count))
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

	srv := server.New(cfg)
	return flags.Run(daemon.Daemon{
		Engine: srv, Log: logger, Metrics: reg,
		// The admin plane binds before Recover so /healthz reports
		// "recovering" (503) during journal replay instead of refusing
		// connections — a load balancer can tell "booting" from "dead".
		Recover:    srv.Recover,
		Drain:      srv.DrainRequested(),
		Stopping:   "draining",
		StopWithin: drainTimeout,
		Stop: func(ctx context.Context) int {
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
		},
	})
}
