package main

import (
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"time"

	"livesim/internal/obs"
	"livesim/internal/pgas"
	"livesim/internal/server"
	"livesim/internal/server/client"
)

// obsBench quantifies what the observability plane costs the hot path:
// hot-reload (apply) wire latency against an in-process livesimd in
// three arms — "off" (span store and flight recorder explicitly
// disabled, no admin plane), "trace" (span store + flight recorder on,
// the always-on tracing default), and "admin" (tracing plus the admin
// HTTP listener with a background /metrics scraper hitting it every
// second — an aggressive Prometheus scrape interval; the default is
// 15s — plus slow-request tracking and the event ring). The acceptance
// bar is <2% added latency per step; the plane is meant to be free
// enough to leave on.
func obsBench() {
	fmt.Println("== Observability overhead: hot-reload latency by obs-plane arm ==")
	fmt.Printf("   workload: alternating apply (1-node PGAS, %s) over a unix socket,\n", pgas.Changes[0].Name)
	fmt.Printf("   %v per arm; \"trace\" adds the span store + flight recorder,\n", *flagBudget)
	fmt.Println("   \"admin\" adds /metrics scrapes every 1s on top")

	// ABCCBA order with pooled samples, so machine drift (thermal, cache
	// warmth) cancels instead of biasing whichever arm ran last.
	base := measureObsArm(armOff)
	trace := measureObsArm(armTrace)
	admin := measureObsArm(armAdmin)
	admin = admin.pool(measureObsArm(armAdmin))
	trace = trace.pool(measureObsArm(armTrace))
	base = base.pool(measureObsArm(armOff))

	over := func(a obsArm) string {
		if base.p50 <= 0 {
			return "n/a"
		}
		return fmt.Sprintf("%+.2f%%", (a.p50-base.p50)/base.p50*100)
	}
	fmt.Printf("%-10s %8s %12s %12s %12s\n", "arm", "applies", "p50(ms)", "p99(ms)", "overhead")
	fmt.Printf("%-10s %8d %12.3f %12.3f %12s\n", "off", base.n, base.p50*1e3, base.p99*1e3, "-")
	fmt.Printf("%-10s %8d %12.3f %12.3f %12s\n", "trace", trace.n, trace.p50*1e3, trace.p99*1e3, over(trace))
	fmt.Printf("%-10s %8d %12.3f %12.3f %12s\n\n", "admin", admin.n, admin.p50*1e3, admin.p99*1e3, over(admin))
}

// Arms of the obs benchmark.
const (
	armOff   = iota // span store + flight recorder disabled, no admin
	armTrace        // span store + flight recorder on (the default)
	armAdmin        // armTrace + admin plane with 1s /metrics scrapes
)

type obsArm struct {
	lat      []float64 // sorted seconds
	n        int
	p50, p99 float64 // seconds
}

// pool merges two arms' samples and recomputes the quantiles.
func (a obsArm) pool(b obsArm) obsArm {
	lat := append(append([]float64(nil), a.lat...), b.lat...)
	sort.Float64s(lat)
	return obsArm{lat: lat, n: len(lat), p50: obsPctl(lat, 0.50), p99: obsPctl(lat, 0.99)}
}

func measureObsArm(arm int) obsArm {
	dir, err := os.MkdirTemp("", "lsb")
	if err != nil {
		fatal(err)
	}
	defer os.RemoveAll(dir)
	sock := filepath.Join(dir, "d.sock")
	ln, err := net.Listen("unix", sock)
	if err != nil {
		fatal(err)
	}
	admin := arm == armAdmin
	cfg := server.Config{QueueDepth: 8, Metrics: obs.NewRegistry()}
	if arm == armOff {
		// The span store and flight recorder default on; the baseline arm
		// must disable them explicitly (negative caps) to measure them.
		cfg.SpanStoreCap = -1
		cfg.FlightRecorderCap = -1
		cfg.BlackboxFlushEvery = -1
	}
	if admin {
		cfg.SlowRequest = time.Second
	}
	srv := server.New(cfg)
	go srv.Serve(ln)
	defer func() {
		ctx, cancel := shutdownCtx()
		defer cancel()
		srv.Shutdown(ctx)
	}()

	scrapeDone := make(chan struct{})
	if admin {
		aln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			fatal(err)
		}
		ah := &http.Server{Handler: srv.AdminHandler()}
		go ah.Serve(aln)
		defer ah.Close()
		url := "http://" + aln.Addr().String() + "/metrics"
		go func() {
			tick := time.NewTicker(time.Second)
			defer tick.Stop()
			for {
				select {
				case <-scrapeDone:
					return
				case <-tick.C:
					if resp, err := http.Get(url); err == nil {
						io.Copy(io.Discard, resp.Body)
						resp.Body.Close()
					}
				}
			}
		}()
	}
	defer close(scrapeDone)

	c, err := client.Dial("unix:" + sock)
	if err != nil {
		fatal(err)
	}
	defer c.Close()
	// Huge checkpoint interval: no background verification, so the
	// measured latency is purely compile+swap+wire — the ERD loop.
	mustResp(c.Do(&server.Request{Session: "obs", Verb: "create", PGAS: 1, CheckpointEvery: 1_000_000}))
	mustResp(c.Do(&server.Request{Session: "obs", Verb: "instpipe", Args: []string{"p0"}}))
	mustResp(c.Do(&server.Request{Session: "obs", Verb: "run", Args: []string{"tb0", "p0", "40"}}))

	orig := pgas.Source(1)
	edited, err := pgas.Changes[0].Apply(orig)
	if err != nil {
		fatal(err)
	}
	files := [2]map[string]string{edited.Files, orig.Files}

	// Warm both design versions' compile caches before timing.
	for i := 0; i < 2; i++ {
		mustResp(c.Do(&server.Request{Session: "obs", Verb: "apply", Files: files[i]}))
	}

	var lat []float64
	stop := time.Now().Add(*flagBudget)
	for i := 0; time.Now().Before(stop); i++ {
		t0 := time.Now()
		mustResp(c.Do(&server.Request{Session: "obs", Verb: "apply", Files: files[i%2]}))
		lat = append(lat, time.Since(t0).Seconds())
	}
	mustResp(c.Do(&server.Request{Session: "obs", Verb: "close"}))

	sort.Float64s(lat)
	return obsArm{lat: lat, n: len(lat), p50: obsPctl(lat, 0.50), p99: obsPctl(lat, 0.99)}
}

// obsPctl reads the q-th percentile from an already-sorted sample.
func obsPctl(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q * float64(len(sorted)-1))
	return sorted[i]
}
