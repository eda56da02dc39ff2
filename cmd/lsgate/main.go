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
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

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
	flagListen   = flag.String("listen", "", "TCP address to listen on (e.g. :9300)")
	flagUnix     = flag.String("unix", "", "unix socket path to listen on")
	flagAdmin    = flag.String("admin-addr", "", "HTTP admin endpoint serving /metrics, /healthz, /backendz, /eventsz, /tracez, /flightz")
	flagHealth   = flag.Duration("health-every", 500*time.Millisecond, "backend health probe cadence")
	flagLogLevel = flag.String("log-level", "info", "structured log threshold: debug, info, warn or error")
	flagMetrics  = flag.Bool("metrics", true, "print the gateway metrics registry on exit")

	// Replication & failover (see README "Replication & failover").
	flagReplicate = flag.Bool("replicate", false, "arm session replication: every placed session gets a hot standby on the rendezvous next-best backend, promoted automatically on primary failure")
	flagFailGrace = flag.Duration("failover-grace", 2*time.Second, "how long a primary must stay down before its sessions fail over to their standbys")
)

// telemetry holds the distributed-tracing & flight-recorder flags (see
// README "Distributed tracing & flight recorder").
var telemetry obs.TelemetryConfig

// backends is the pool the repeated -backend flags name.
var backends backendFlags

func init() {
	flag.Var(&backends, "backend", "backend wire address, \"unix:/path\" or \"host:port\" (repeatable)")
	telemetry.RegisterFlags(flag.CommandLine, "lsgate", "`trace <id>`", "empty = no dumps")
}

func main() {
	os.Exit(run())
}

func run() int {
	flag.Parse()

	level, lerr := obs.ParseLevel(*flagLogLevel)
	if lerr != nil {
		fmt.Fprintln(os.Stderr, "lsgate:", lerr)
		return 2
	}
	logger := obs.NewLogger(os.Stderr, level)
	if *flagListen == "" && *flagUnix == "" {
		fmt.Fprintln(os.Stderr, "need -listen and/or -unix; see -help")
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
	if *flagMetrics {
		defer func() {
			fmt.Fprintln(os.Stderr, "-- gateway metrics --")
			reg.WriteText(os.Stderr)
		}()
	}

	if *flagAdmin != "" {
		aln, err := net.Listen("tcp", *flagAdmin)
		if err != nil {
			logger.Error("admin listen failed", obs.Str("addr", *flagAdmin), obs.Str("err", err.Error()))
			return 1
		}
		admin := &http.Server{Handler: adminHandler(gw, reg)}
		go admin.Serve(aln)
		defer admin.Close()
		logger.Info("admin endpoint listening", obs.Str("addr", aln.Addr().String()))
	}

	serveErrs := make(chan error, 2)
	if *flagListen != "" {
		ln, err := net.Listen("tcp", *flagListen)
		if err != nil {
			logger.Error("tcp listen failed", obs.Str("addr", *flagListen), obs.Str("err", err.Error()))
			return 1
		}
		logger.Info("listening", obs.Str("net", "tcp"), obs.Str("addr", ln.Addr().String()))
		go func() { serveErrs <- gw.Serve(ln) }()
	}
	if *flagUnix != "" {
		os.Remove(*flagUnix)
		ln, err := net.Listen("unix", *flagUnix)
		if err != nil {
			logger.Error("unix listen failed", obs.Str("addr", *flagUnix), obs.Str("err", err.Error()))
			return 1
		}
		defer os.Remove(*flagUnix)
		logger.Info("listening", obs.Str("net", "unix"), obs.Str("addr", *flagUnix))
		go func() { serveErrs <- gw.Serve(ln) }()
	}

	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGTERM, syscall.SIGINT)
	select {
	case sig := <-sigs:
		logger.Info("signal received; shutting down", obs.Str("signal", sig.String()))
	case err := <-serveErrs:
		if err != nil {
			logger.Error("serve failed", obs.Str("err", err.Error()))
			return 1
		}
		return 0
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	gw.Shutdown(ctx)
	logger.Info("gateway stopped")
	return 0
}

// adminHandler is lsgate's HTTP surface: /metrics (Prometheus text),
// /healthz (200 as long as the gateway runs — it is stateless, so
// liveness is the only meaningful signal; the body carries the pool
// summary), /backendz (the `backends` verb as JSON), /eventsz, /tracez
// (fleet-assembled trace for ?id=) and /flightz (the black-box ring).
func adminHandler(gw *gateway.Gateway, reg *obs.Registry) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		pw := obs.NewPromWriter("lsgate_")
		pw.AddSnapshot(nil, reg.Snapshot())
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		pw.Write(w)
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		resp := gw.AdminPing()
		w.Header().Set("Content-Type", "application/json")
		w.Write(append(resp, '\n'))
	})
	mux.HandleFunc("/backendz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.Write(append(gw.AdminBackends(), '\n'))
	})
	mux.HandleFunc("/eventsz", gw.Telemetry().HandleEventsz)
	// /tracez assembles one trace's spans across the whole fleet (the
	// HTTP twin of the `trace <id>` verb); /flightz is the gateway's own
	// black-box ring.
	mux.HandleFunc("/tracez", gw.HandleTracez)
	mux.HandleFunc("/flightz", gw.Telemetry().HandleFlightz)
	return mux
}
