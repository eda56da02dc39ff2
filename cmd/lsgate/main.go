// Command lsgate is the LiveSim fleet gateway: a stateless NDJSON
// proxy that fronts a pool of livesimd backends, speaking the exact
// wire protocol clients already use (see internal/gateway). Sessions
// are placed by rendezvous hashing, routed to whichever backend hosts
// them, live-migrated between backends with the `migrate` verb, and a
// whole backend is emptied for maintenance with `drain <addr>`.
//
// Usage:
//
//	lsgate -listen :9300 -backend :9310 -backend :9320
//	lsgate -unix /run/lsgate.sock \
//	       -backend unix:/run/ls1.sock -backend unix:/run/ls2.sock
//	lsgate -listen :9300 -backend :9310 -backend :9320 \
//	       -replicate -failover-grace 2s              # hot standbys + failover
//
// A backend spec is its wire address alone: the health checker pings
// it, and the ping carries the backend's /healthz verdict (ok,
// degraded, draining, recovering, disk_emergency). Drive the gateway
// with `livesim -connect <addr>` — every session verb is forwarded;
// `backends`, `sessions`, `migrate`, `drain` and `trace <id>`
// (fleet-wide span assembly) are the fleet-level additions. The admin
// plane serves /metrics, /healthz, /backendz, /eventsz, /tracez and
// /flightz.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"livesim/cmd/internal/daemon"
	"livesim/internal/gateway"
	"livesim/internal/obs"
)

// backendFlags collects repeated -backend flags.
type backendFlags []gateway.BackendSpec

func (b *backendFlags) String() string {
	parts := make([]string, 0, len(*b))
	for _, spec := range *b {
		parts = append(parts, spec.Addr)
	}
	return strings.Join(parts, ",")
}

func (b *backendFlags) Set(v string) error {
	if v == "" {
		return fmt.Errorf("empty backend address")
	}
	if strings.Contains(v, "=") {
		return fmt.Errorf("backend %q: admin addresses are no longer read (the wire ping carries the backend's health); pass the wire address alone", v)
	}
	*b = append(*b, gateway.BackendSpec{Addr: v})
	return nil
}

var (
	flagHealth = flag.Duration("health-every", 500*time.Millisecond, "backend health probe cadence")

	// Replication & failover (see README "Replication & failover").
	flagReplicate = flag.Bool("replicate", false, "arm session replication: every placed session gets a hot standby on the rendezvous next-best backend, promoted automatically on primary failure")
	flagFailGrace = flag.Duration("failover-grace", 2*time.Second, "how long a primary must stay down before its sessions fail over to their standbys")
)

// flags are the listeners, admin plane, log level and metrics print
// every daemon shares; telemetry holds the distributed-tracing &
// flight-recorder flags (see README "Distributed tracing & flight
// recorder"); backends is the pool the repeated -backend flags name.
var (
	flags     daemon.Flags
	telemetry obs.TelemetryConfig
	backends  backendFlags
)

func init() {
	flags.Register(flag.CommandLine, "lsgate", "gateway", ":9300",
		"HTTP admin endpoint serving /metrics, /healthz, /backendz, /eventsz, /tracez, /flightz")
	flag.Var(&backends, "backend", "backend wire address, \"unix:/path\" or \"host:port\" (repeatable)")
	telemetry.RegisterFlags(flag.CommandLine, "lsgate", "`trace <id>`", "empty = no dumps")
}

func main() {
	os.Exit(run())
}

func run() int {
	flag.Parse()
	logger := flags.Logger()
	if logger == nil {
		return 2
	}
	if len(backends) == 0 {
		fmt.Fprintln(os.Stderr, "need at least one -backend; see -help")
		return 2
	}

	reg := obs.NewRegistry()
	gw, err := gateway.New(gateway.Config{
		Backends:      backends,
		HealthEvery:   *flagHealth,
		Replicate:     *flagReplicate,
		FailoverGrace: *flagFailGrace,
		Metrics:       reg,
		Log:           logger,

		TelemetryConfig: telemetry,
	})
	if err != nil {
		logger.Error("gateway init failed", obs.Str("err", err.Error()))
		return 1
	}
	return flags.Run(daemon.Daemon{
		Engine: gw, Log: logger, Metrics: reg,
		Stopping:   "shutting down",
		StopWithin: 10 * time.Second,
		Stop: func(ctx context.Context) int {
			gw.Shutdown(ctx)
			logger.Info("gateway stopped")
			return 0
		},
	})
}
