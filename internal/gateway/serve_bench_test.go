package gateway_test

import (
	"context"
	"net"
	"os"
	"path/filepath"
	"testing"
	"time"

	"livesim/internal/faultinject"
	"livesim/internal/gateway"
	"livesim/internal/server"
	"livesim/internal/server/client"
)

// BenchmarkServeRoundTrip is one closed-loop wire round trip of the
// serve workloads' request, `run tb0 p0 4` on a 1-node PGAS session,
// against an in-process livesimd with the shipped defaults (journaling
// on) on a unix socket, directly and through an in-process lsgate: the
// gateway row minus the direct one is the hop. ns/op and allocs/op count
// every goroutine of the process — client, gateway and server.
//
//	make serve
func BenchmarkServeRoundTrip(b *testing.B) {
	for _, via := range []string{"direct", "gateway"} {
		b.Run(via, func(b *testing.B) {
			addr := serveFleet(b, via == "gateway")
			c, err := client.Dial(addr)
			if err != nil {
				b.Fatal(err)
			}
			defer c.Close()
			for _, req := range []*server.Request{
				{Session: "s0", Verb: "create", PGAS: 1},
				{Session: "s0", Verb: "instpipe", Args: []string{"p0"}},
			} {
				if resp, err := c.Do(req); err != nil || !resp.OK {
					b.Fatalf("%s: %+v %v", req.Verb, resp, err)
				}
			}
			run := func() {
				resp, err := c.Do(&server.Request{Session: "s0", Verb: "run", Args: []string{"tb0", "p0", "4"}})
				if err != nil || !resp.OK {
					b.Fatalf("run: %+v %v", resp, err)
				}
			}
			for i := 0; i < 200; i++ { // warm: checkpoints, pools, forwarders
				run()
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				run()
			}
		})
	}
}

// serveFleet starts a livesimd, and an lsgate in front of it when
// viaGateway, and returns the address clients dial. Both stop when b
// ends.
func serveFleet(b *testing.B, viaGateway bool) string {
	dir, err := os.MkdirTemp("", "lsrt") // short path: unix sockets cap ~104 bytes
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { os.RemoveAll(dir) })
	srv := server.New(server.Config{
		StateDir:     dir,
		WALSyncEvery: 100 * time.Millisecond,
		SlowRequest:  time.Second,
		// The host's free space must not move the disk rung mid-benchmark.
		Faults: faultinject.New().ForceDiskFree(50, 100),
	})
	addr := listen(b, filepath.Join(dir, "d.sock"), srv.Serve)
	b.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	})
	if !viaGateway {
		return addr
	}
	g, err := gateway.New(gateway.Config{Backends: []gateway.BackendSpec{{Addr: addr}}})
	if err != nil {
		b.Fatal(err)
	}
	gaddr := listen(b, filepath.Join(dir, "g.sock"), g.Serve)
	b.Cleanup(func() { // runs before the server's
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		g.Shutdown(ctx)
	})
	return gaddr
}

func listen(b *testing.B, sock string, serve func(net.Listener) error) string {
	ln, err := net.Listen("unix", sock)
	if err != nil {
		b.Fatal(err)
	}
	go serve(ln)
	return "unix:" + sock
}
