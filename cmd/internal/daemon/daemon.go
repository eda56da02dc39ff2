// Package daemon is the process layer livesimd and lsgate share: the
// five flags both take, the structured logger, the admin, TCP and unix
// listeners, the metrics print on exit, and the wait for a signal before
// a bounded shutdown. Each daemon's main keeps what differs: its own
// flags and config, and what its engine does at start and at stop.
package daemon

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"livesim/internal/obs"
)

// Flags are the flags every daemon takes; Register declares them.
type Flags struct {
	Listen, Unix, Admin, LogLevel string
	Metrics                       bool

	name, registry string
}

// Register declares the five shared flags on fs, bound to f. The help
// text is shared; registry ("server"), listenExample (":9310") and
// adminUsage fill in the places where the daemons word it differently.
// name prefixes the daemon's messages on stderr.
func (f *Flags) Register(fs *flag.FlagSet, name, registry, listenExample, adminUsage string) {
	f.name, f.registry = name, registry
	fs.StringVar(&f.Listen, "listen", "", "TCP address to listen on (e.g. "+listenExample+")")
	fs.StringVar(&f.Unix, "unix", "", "unix socket path to listen on")
	fs.StringVar(&f.Admin, "admin-addr", "", adminUsage)
	fs.StringVar(&f.LogLevel, "log-level", "info", "structured log threshold: debug, info, warn or error")
	fs.BoolVar(&f.Metrics, "metrics", true, "print the "+registry+" metrics registry on exit")
}

// Logger returns the structured JSONL log on stderr at -log-level. It
// returns nil, after a message on stderr, when -log-level names no level
// or neither -listen nor -unix is set; the daemon then exits with 2.
func (f *Flags) Logger() *obs.Logger {
	level, err := obs.ParseLevel(f.LogLevel)
	if err != nil {
		fmt.Fprintf(os.Stderr, "%s: %v\n", f.name, err)
		return nil
	}
	if f.Listen == "" && f.Unix == "" {
		fmt.Fprintln(os.Stderr, "need -listen and/or -unix; see -help")
		return nil
	}
	return obs.NewLogger(os.Stderr, level)
}

// Engine is what a daemon serves: livesimd's *server.Server or lsgate's
// *gateway.Gateway.
type Engine interface {
	Serve(net.Listener) error
	AdminHandler() http.Handler
}

// Daemon is one run of an engine, what Run needs besides the flags.
type Daemon struct {
	Engine  Engine
	Log     *obs.Logger
	Metrics *obs.Registry // printed on stderr at exit under -metrics
	// Recover, when set, runs once the admin plane listens and before the
	// wire listeners do, so /healthz can answer during a journal replay.
	Recover func() error
	// Drain, when set, asks for the shutdown a signal starts.
	Drain <-chan struct{}
	// Stopping is what a signal starts ("draining", "shutting down").
	Stopping string
	// Stop is the shutdown, given at most StopWithin; it returns the exit
	// code.
	Stop       func(context.Context) int
	StopWithin time.Duration
}

// Run serves d.Engine on the admin, TCP and unix listeners the flags
// name until a signal or d.Drain stops it, and returns the exit code: 1
// when a listener, Recover or Serve fails, 0 when Serve returns nil,
// else what d.Stop returns.
func (f *Flags) Run(d Daemon) int {
	if f.Metrics {
		defer func() {
			fmt.Fprintf(os.Stderr, "-- %s metrics --\n", f.registry)
			d.Metrics.WriteText(os.Stderr)
		}()
	}
	if f.Admin != "" {
		ln, err := net.Listen("tcp", f.Admin)
		if err != nil {
			d.Log.Error("admin listen failed", obs.Str("addr", f.Admin), obs.Str("err", err.Error()))
			return 1
		}
		admin := &http.Server{Handler: d.Engine.AdminHandler()}
		go admin.Serve(ln)
		defer admin.Close()
		d.Log.Info("admin endpoint listening", obs.Str("addr", ln.Addr().String()))
	}
	if d.Recover != nil {
		if err := d.Recover(); err != nil {
			d.Log.Error("recover failed", obs.Str("err", err.Error()))
			return 1
		}
	}

	serveErrs := make(chan error, 2)
	for _, l := range [...]struct{ net, addr string }{{"tcp", f.Listen}, {"unix", f.Unix}} {
		if l.addr == "" {
			continue
		}
		if l.net == "unix" {
			os.Remove(l.addr) // a stale socket from an unclean previous run
			defer os.Remove(l.addr)
		}
		ln, err := net.Listen(l.net, l.addr)
		if err != nil {
			d.Log.Error(l.net+" listen failed", obs.Str("addr", l.addr), obs.Str("err", err.Error()))
			return 1
		}
		d.Log.Info("listening", obs.Str("net", l.net), obs.Str("addr", ln.Addr().String()))
		go func() { serveErrs <- d.Engine.Serve(ln) }()
	}

	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGTERM, syscall.SIGINT)
	select {
	case sig := <-sigs:
		d.Log.Info("signal received; "+d.Stopping, obs.Str("signal", sig.String()))
	case <-d.Drain:
		// The wire `drain` verb (an operator, or a gateway that migrated
		// everything off) runs the path a signal does.
		d.Log.Info("drain requested over the wire; " + d.Stopping)
	case err := <-serveErrs:
		if err != nil {
			d.Log.Error("serve failed", obs.Str("err", err.Error()))
			return 1
		}
		return 0
	}
	ctx, cancel := context.WithTimeout(context.Background(), d.StopWithin)
	defer cancel()
	return d.Stop(ctx)
}
