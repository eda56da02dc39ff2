package wire_test

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"maps"
	"net"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"livesim/internal/catalogue"
	"livesim/internal/gateway"
	"livesim/internal/obs"
	"livesim/internal/server"
	"livesim/internal/server/client"
	"livesim/internal/wire"
)

// One conformance suite for the protocol, run against every speaker: an
// in-process livesimd, and an in-process lsgate fronting one. Whatever a
// row asserts holds for both, because both answer through the same
// wire.Acceptor — the suite is what keeps that true.

const tinyDesign = `
module top (input clk, input [7:0] d, output reg [15:0] total);
  always @(posedge clk) total <= total + d;
endmodule
`

// chattyDesign prints a kilobyte a cycle: `run clock p0 64` answers
// with its session's whole display buffer (64 KB).
var chattyDesign = `
module top (input clk, input [7:0] d, output reg [15:0] total);
  always @(posedge clk) begin
    total <= total + d;
    $display("total=%d ` + strings.Repeat(".", 1000) + `", total);
  end
endmodule
`

// speaker is one protocol endpoint under test.
type speaker struct {
	addr     string        // where clients dial
	daemon   string        // the livesimd running sessions: addr, or the gateway's backend
	served   chan error    // Serve's return value
	shutdown func()        // stops it (idempotent enough for Cleanup)
	backend  func() string // state of the gateway's backend, "" for the server
	metrics  *obs.Registry // the speaker's own registry
}

func sockDir(t *testing.T) string {
	t.Helper()
	dir, err := os.MkdirTemp("", "lsw") // short path: unix sockets cap ~104 bytes
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.RemoveAll(dir) })
	return dir
}

func startServer(t *testing.T) *speaker {
	t.Helper()
	dir := sockDir(t)
	ln, err := net.Listen("unix", filepath.Join(dir, "d.sock"))
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(server.Config{StateDir: filepath.Join(dir, "state")})
	sp := &speaker{addr: "unix:" + filepath.Join(dir, "d.sock"), served: make(chan error, 1),
		metrics: srv.Metrics()}
	sp.daemon = sp.addr
	go func() { sp.served <- srv.Serve(ln) }()
	sp.shutdown = func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	}
	t.Cleanup(sp.shutdown)
	return sp
}

func startGateway(t *testing.T) *speaker {
	t.Helper()
	back := startServer(t)
	dir := sockDir(t)
	ln, err := net.Listen("unix", filepath.Join(dir, "g.sock"))
	if err != nil {
		t.Fatal(err)
	}
	gw, err := gateway.New(gateway.Config{
		Backends:    []gateway.BackendSpec{{Addr: back.addr}},
		HealthEvery: 50 * time.Millisecond,
		Metrics:     obs.NewRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	sp := &speaker{addr: "unix:" + filepath.Join(dir, "g.sock"), daemon: back.addr, served: make(chan error, 1),
		metrics: gw.Metrics()}
	go func() { sp.served <- gw.Serve(ln) }()
	sp.shutdown = func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		gw.Shutdown(ctx)
	}
	admin := gw.AdminHandler()
	sp.backend = func() string {
		rec := httptest.NewRecorder()
		admin.ServeHTTP(rec, httptest.NewRequest("GET", "/backendz", nil))
		var rows []gateway.BackendInfo
		if err := json.Unmarshal(rec.Body.Bytes(), &rows); err != nil || len(rows) != 1 {
			t.Fatalf("backends: %v %v", rows, err)
		}
		return rows[0].State
	}
	// Registered after the backend's cleanup, so it runs first.
	t.Cleanup(sp.shutdown)
	return sp
}

// rawConn speaks the protocol by hand, so rows can send what the client
// never would.
type rawConn struct {
	t  *testing.T
	nc net.Conn
	br *bufio.Reader
}

func dialRaw(t *testing.T, sp *speaker) *rawConn {
	t.Helper()
	return dialRawAddr(t, sp.addr)
}

func dialRawAddr(t *testing.T, addr string) *rawConn {
	t.Helper()
	network, target := wire.SplitAddr(addr)
	nc, err := net.Dial(network, target)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { nc.Close() })
	return &rawConn{t: t, nc: nc, br: bufio.NewReaderSize(nc, 64*1024)}
}

func (c *rawConn) send(s string) {
	c.t.Helper()
	c.nc.SetWriteDeadline(time.Now().Add(5 * time.Second))
	if _, err := io.WriteString(c.nc, s); err != nil {
		c.t.Fatalf("send: %v", err)
	}
}

// recv reads one response line; a closed or silent connection is an error.
func (c *rawConn) recv() (*wire.Response, error) {
	c.nc.SetReadDeadline(time.Now().Add(5 * time.Second))
	line, err := c.br.ReadBytes('\n')
	if err != nil {
		return nil, err
	}
	resp := new(wire.Response)
	if err := json.Unmarshal(line, resp); err != nil {
		return nil, fmt.Errorf("response %q: %w", line, err)
	}
	return resp, nil
}

func (c *rawConn) mustRecv() *wire.Response {
	c.t.Helper()
	resp, err := c.recv()
	if err != nil {
		c.t.Fatalf("recv: %v", err)
	}
	return resp
}

func wantCode(t *testing.T, resp *wire.Response, id uint64, code, errPart string) {
	t.Helper()
	if resp.ID != id || resp.OK != (code == "") || resp.Code != code || !strings.Contains(resp.Error, errPart) {
		t.Fatalf("got id=%d ok=%v code=%q error=%q; want id=%d code=%q error containing %q",
			resp.ID, resp.OK, resp.Code, resp.Error, id, code, errPart)
	}
}

func dialClient(t *testing.T, sp *speaker) *client.Client {
	t.Helper()
	c, err := client.Dial(sp.addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func mustOK(t *testing.T, c *client.Client, req *wire.Request) *wire.Response {
	t.Helper()
	resp, err := c.Do(req)
	if err != nil {
		t.Fatalf("%s: %v", req.Verb, err)
	}
	if !resp.OK {
		t.Fatalf("%s: %s (%s)", req.Verb, resp.Error, resp.Code)
	}
	return resp
}

// refusals reads reg's <speaker>_refused_<code> counters, by code.
func refusals(reg *obs.Registry) map[string]uint64 {
	out := map[string]uint64{}
	for name, n := range reg.Snapshot().Counters {
		if _, code, ok := strings.Cut(name, "_refused_"); ok && n > 0 {
			out[code] = n
		}
	}
	return out
}

// refused is how many of a row's requests are answered with each code:
// the speaker counts each under <speaker>_refused_<code>.
type refused map[string]uint64

// conformance is the suite's table.
var conformance = []struct {
	name    string
	refused refused
	row     func(t *testing.T, sp *speaker)
}{
	{"blank lines are ignored", nil, func(t *testing.T, sp *speaker) {
		c := dialRaw(t, sp)
		c.send("\n  \n\r\n" + `{"id":5,"verb":"ping"}` + "\n\n")
		wantCode(t, c.mustRecv(), 5, "", "")
		c.send(`{"id":6,"verb":"ping"}` + "\n")
		wantCode(t, c.mustRecv(), 6, "", "") // nothing was answered in between
	}},
	{"malformed JSON is bad_request and the connection stays usable", refused{wire.CodeBadRequest: 1}, func(t *testing.T, sp *speaker) {
		c := dialRaw(t, sp)
		c.send("{not json\n")
		wantCode(t, c.mustRecv(), 0, wire.CodeBadRequest, "bad request")
		c.send(`{"id":2,"verb":"ping"}` + "\n")
		wantCode(t, c.mustRecv(), 2, "", "")
	}},
	{"pipelined requests are answered by id", nil, func(t *testing.T, sp *speaker) {
		c := dialRaw(t, sp)
		c.send(`{"id":11,"verb":"ping"}` + "\n" + `{"id":12,"verb":"help"}` + "\n" + `{"id":13,"verb":"ping"}` + "\n")
		got := map[uint64]string{}
		for i := 0; i < 3; i++ {
			resp := c.mustRecv()
			if !resp.OK {
				t.Fatalf("id %d: %s (%s)", resp.ID, resp.Error, resp.Code)
			}
			got[resp.ID] = resp.Output
		}
		if len(got) != 3 || !strings.HasPrefix(got[11], "pong") || !strings.HasPrefix(got[13], "pong") || strings.HasPrefix(got[12], "pong") {
			t.Fatalf("answers not matched to ids 11, 12, 13: %q", got)
		}
	}},
	{"unknown verb", refused{wire.CodeBadRequest: 1}, func(t *testing.T, sp *speaker) {
		cli := dialClient(t, sp)
		mustOK(t, cli, &wire.Request{Session: "u", Verb: "create", Files: map[string]string{"top.v": tinyDesign}})
		c := dialRaw(t, sp)
		c.send(`{"id":3,"session":"u","verb":"frobnicate"}` + "\n")
		wantCode(t, c.mustRecv(), 3, wire.CodeBadRequest, "unknown verb")
	}},
	{"session verb without a session", refused{wire.CodeBadRequest: 1}, func(t *testing.T, sp *speaker) {
		c := dialRaw(t, sp)
		c.send(`{"id":4,"verb":"run","args":["clock","p0","1"]}` + "\n")
		wantCode(t, c.mustRecv(), 4, wire.CodeBadRequest, "needs a session")
	}},
	{"oversize request line is answered before the connection closes", refused{wire.CodeBadRequest: 1}, func(t *testing.T, sp *speaker) {
		c := dialRaw(t, sp)
		go func() { // the speaker stops reading at the bound: the tail of the write may fail
			c.nc.SetWriteDeadline(time.Now().Add(5 * time.Second))
			io.WriteString(c.nc, `{"id":9,"verb":"ping","args":["`+strings.Repeat("x", testMaxLine)+`"]}`+"\n")
		}()
		wantCode(t, c.mustRecv(), 0, wire.CodeBadRequest, fmt.Sprintf("%d-byte wire limit", testMaxLine))
		if resp, err := c.recv(); err == nil {
			t.Fatalf("connection still open after an unframeable line: got %+v", resp)
		} else if ne, ok := err.(net.Error); ok && ne.Timeout() {
			t.Fatal("connection neither answered nor closed")
		}
	}},
	{"oversize reply becomes a typed error with the same id", refused{wire.CodeError: 1}, func(t *testing.T, sp *speaker) {
		// peek's error quotes the signal name it could not find, so each `"`
		// in the name is 2 bytes of request line and 4 of reply line: a name
		// that fits the bound asking does not fit it answering.
		cli := dialClient(t, sp)
		mustOK(t, cli, &wire.Request{Session: "big", Verb: "create", Files: map[string]string{"top.v": tinyDesign}})
		mustOK(t, cli, &wire.Request{Session: "big", Verb: "instpipe", Args: []string{"p0"}})
		name := "top." + strings.Repeat(`"`, testMaxLine*3/8)
		resp, err := cli.Do(&wire.Request{Session: "big", Verb: "peek", Args: []string{"p0", name}})
		if err != nil {
			t.Fatalf("peek: %v (the connection must survive)", err)
		}
		if resp.OK || resp.Code != wire.CodeError || !strings.Contains(resp.Error, "wire limit") {
			t.Fatalf("peek: ok=%v code=%q error=%.200q; want a typed error naming the wire limit", resp.OK, resp.Code, resp.Error)
		}
		mustOK(t, cli, &wire.Request{Session: "big", Verb: "cycle", Args: []string{"p0"}}) // same connection
		if sp.backend != nil {
			if st := sp.backend(); st != "ok" {
				t.Fatalf("backend state %q after an unframeable reply, want ok", st)
			}
		}
	}},
	{"a request that only just fits is served, or fails alone at the hop that outgrows it", refused{wire.CodeError: 1}, func(t *testing.T, sp *speaker) {
		cli := dialClient(t, sp)
		mustOK(t, cli, &wire.Request{Session: "u", Verb: "create", Files: map[string]string{"top.v": tinyDesign}})
		c := dialRaw(t, sp)
		head, tail := `{"id":8,"session":"u","verb":"pipes","args":["`, `"]}`+"\n"
		c.send(head + strings.Repeat("x", testMaxLine-len(head)-len(tail)) + tail)
		resp := c.mustRecv()
		if sp.backend == nil {
			wantCode(t, resp, 8, wire.CodeError, "usage: pipes") // read whole, refused on its merits
			return
		}
		// The gateway stamps trace context on the forwarded copy, which no
		// longer fits: that request fails with the reason, nothing else does.
		wantCode(t, resp, 8, wire.CodeError, "not sent")
		mustOK(t, cli, &wire.Request{Session: "u", Verb: "pipes"})
		if st := sp.backend(); st != "ok" {
			t.Fatalf("backend state %q after an unforwardable request, want ok", st)
		}
	}},
	{"stalled reader trips the write deadline without wedging other connections", nil, func(t *testing.T, sp *speaker) {
		stalled := dialRaw(t, sp)
		wrote := make(chan struct{})
		go func() { // ask for far more than the socket buffers hold, read none of it
			defer close(wrote)
			stalled.nc.SetWriteDeadline(time.Now().Add(5 * time.Second))
			req := []byte(`{"id":1,"verb":"help"}` + "\n")
			for i := 0; i < 4000; i++ {
				if _, err := stalled.nc.Write(req); err != nil {
					return
				}
			}
		}()
		other := dialRaw(t, sp)
		for i := uint64(1); i <= 20; i++ {
			t0 := time.Now()
			other.send(fmt.Sprintf(`{"id":%d,"verb":"ping"}`+"\n", i))
			wantCode(t, other.mustRecv(), i, "", "")
			if d := time.Since(t0); d > time.Second {
				t.Fatalf("ping %d took %v beside a stalled connection", i, d)
			}
			time.Sleep(testWriteTimeout / 5)
		}
		<-wrote
		// The speaker gave up on the stalled connection: what it had already
		// buffered is readable, then the stream ends instead of resuming.
		stalled.nc.SetReadDeadline(time.Now().Add(5 * time.Second))
		n, err := io.Copy(io.Discard, stalled.nc)
		if ne, ok := err.(net.Error); ok && ne.Timeout() {
			t.Fatalf("stalled connection still open after %d bytes: the write deadline never tripped", n)
		}
	}},
	{"stalled readers on a session do not delay its other clients", nil, func(t *testing.T, sp *speaker) {
		// The session worker answers every request on u and ends its
		// request span. Neither may wait on a connection that stopped
		// reading: one pipelining requests with 64 KB answers, and one
		// subscribed to the daemon's and u's spans (on the daemon itself:
		// lsgate does not forward subscribe).
		cli := dialClient(t, sp)
		mustOK(t, cli, &wire.Request{Session: "u", Verb: "create", Files: map[string]string{"top.v": chattyDesign}})
		mustOK(t, cli, &wire.Request{Session: "u", Verb: "instpipe", Args: []string{"p0"}})
		sub := dialRawAddr(t, sp.daemon)
		sub.send(`{"id":1,"verb":"subscribe"}` + "\n" + `{"id":2,"session":"u","verb":"subscribe"}` + "\n")
		for acked := 0; acked < 2; { // span events (never ok) may come between the answers
			if resp := sub.mustRecv(); resp.OK {
				wantCode(t, resp, uint64(acked+1), "", "")
				acked++
			}
		}
		// Four answers of 64 KB are more than a socket buffers, and little
		// work to queue behind.
		pipelined := dialRaw(t, sp)
		for i := 1; i <= 4; i++ {
			pipelined.send(fmt.Sprintf(`{"id":%d,"session":"u","verb":"run","args":["clock","p0","64"]}`+"\n", i))
		}
		// A thousand requests end over 300 KB of spans on the subscriber.
		var worst time.Duration
		for i := 0; i < 1000; i++ {
			t0 := time.Now()
			mustOK(t, cli, &wire.Request{Session: "u", Verb: "run", Args: []string{"clock", "p0", "1"}})
			worst = max(worst, time.Since(t0))
		}
		// A worker that waited on either stalled connection would hold one
		// of these requests for a whole write deadline.
		if worst > testWriteTimeout*3/5 {
			t.Fatalf("a request on u took %v beside stalled readers (write deadline %v)", worst, testWriteTimeout)
		}
	}},
	{"request spans carry verb, session, ok and code", refused{wire.CodeBadRequest: 1}, func(t *testing.T, sp *speaker) {
		cli := dialClient(t, sp)
		for _, tc := range []struct {
			req  *wire.Request
			code string
		}{
			{&wire.Request{Verb: "ping", TraceID: "00000000000000a1"}, ""},
			{&wire.Request{Verb: "run", Args: []string{"clock", "p0", "1"}, TraceID: "00000000000000a2"}, wire.CodeBadRequest},
		} {
			if resp, err := cli.Do(tc.req); err != nil || resp.Code != tc.code {
				t.Fatalf("%s: %+v, %v; want code %q", tc.req.Verb, resp, err, tc.code)
			}
			query := &wire.Request{Verb: "spans", Args: []string{tc.req.TraceID}}
			if sp.backend != nil {
				query.Verb = "trace" // lsgate's own store, assembled with the fleet's
			}
			var got struct{ Spans []obs.SpanRecord }
			if err := json.Unmarshal(mustOK(t, cli, query).Data, &got); err != nil {
				t.Fatal(err)
			}
			var reqs []obs.SpanRecord
			for _, rec := range got.Spans {
				if rec.Name == "request" {
					reqs = append(reqs, rec)
				}
			}
			if len(reqs) != 1 {
				t.Fatalf("%s: %d request spans in %+v, want 1", tc.req.Verb, len(reqs), got.Spans)
			}
			a := reqs[0].Attrs
			if _, ok := a["session"]; !ok || a["verb"] != tc.req.Verb || a["ok"] != (tc.code == "") || a["code"] != tc.code {
				t.Errorf("%s: request span attrs %v; want verb, session, ok=%v and code %q",
					tc.req.Verb, a, tc.code == "", tc.code)
			}
		}
	}},
	{"every escape class crosses the wire as encoding/json writes it", refused{wire.CodeError: 4}, func(t *testing.T, sp *speaker) {
		// Tab, newline, quote, backslash, '<' and '&', a control byte and
		// UTF-8, in the arguments of every request, in the output of
		// `pipes` and in the error of a create whose file does not parse.
		const odd = "p\t1\n\"q\" \\ <a&b> \x01 é✓"
		cli := dialClient(t, sp)
		mustOK(t, cli, &wire.Request{Session: "u", Verb: "create", Files: map[string]string{"top.v": tinyDesign}})
		mustOK(t, cli, &wire.Request{Session: "u", Verb: "instpipe", Args: []string{odd}})
		raw := dialRaw(t, sp) // a client written with encoding/json alone
		for i, req := range []*wire.Request{
			{Session: "u", Verb: "pipes"},
			{Session: "u", Verb: "instpipe", Args: []string{odd}},
			{Session: "v", Verb: "create", Files: map[string]string{odd + ".v": "module top(; " + odd}},
		} {
			got, err := cli.Do(req)
			if err != nil {
				t.Fatalf("%s: %v", req.Verb, err)
			}
			asked := *req
			asked.ID = uint64(100 + i)
			line, _ := json.Marshal(&asked)
			raw.send(string(line) + "\n")
			want := raw.mustRecv()
			want.ID = got.ID
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s: the client read %+v, encoding/json %+v", req.Verb, got, want)
			}
			if text := got.Output + got.Error; !strings.Contains(text, odd) && !strings.Contains(text, strconv.Quote(odd)[1:]) {
				t.Errorf("%s: %q carries no copy of the name", req.Verb, text)
			}
		}
	}},
	{"shutdown closes idle connections and Serve returns nil", nil, func(t *testing.T, sp *speaker) {
		idle := dialRaw(t, sp)
		idle.send(`{"id":1,"verb":"ping"}` + "\n")
		wantCode(t, idle.mustRecv(), 1, "", "")
		sp.shutdown()
		select {
		case err := <-sp.served:
			if err != nil {
				t.Fatalf("Serve returned %v after shutdown, want nil", err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("Serve did not return after shutdown")
		}
		if resp, err := idle.recv(); err == nil {
			t.Fatalf("idle connection still answered after shutdown: %+v", resp)
		} else if ne, ok := err.(net.Error); ok && ne.Timeout() {
			t.Fatal("idle connection left open by shutdown")
		}
	}},
}

// The suite runs with a small line bound and a short write deadline so
// the oversize and stall rows need kilobytes and milliseconds.
const (
	testMaxLine      = 256 * 1024
	testWriteTimeout = 250 * time.Millisecond
)

func TestConformance(t *testing.T) {
	defer wire.SetLimits(testMaxLine, testWriteTimeout)()
	// Whatever a speaker or the client writes, the other side reads
	// without encoding/json: the one line deferred is the row's own
	// malformed one.
	stop := wire.RecordDeferred()
	defer func() {
		for _, line := range stop() {
			if line != "{not json" {
				t.Errorf("a line left to encoding/json: %.300q", line)
			}
		}
	}()
	for _, kind := range []struct {
		name  string
		start func(*testing.T) *speaker
	}{{"livesimd", startServer}, {"lsgate", startGateway}} {
		for _, tc := range conformance {
			t.Run(kind.name+"/"+tc.name, func(t *testing.T) {
				sp := kind.start(t)
				want := refusals(sp.metrics)
				tc.row(t, sp)
				for code, n := range tc.refused {
					want[code] += n
				}
				if got := refusals(sp.metrics); !maps.Equal(got, want) {
					t.Errorf("refusals counted by code: %v, want %v", got, want)
				}
			})
		}
	}
}

// Every verb of the catalogue reaches its body on every daemon that
// answers it: livesimd runs its own, lsgate its own and forwards the
// rest. Each verb goes, without arguments, to an existing session on a
// connection of its own (subscribe keeps streaming on its connection);
// whatever the answer is, it must not be the one an unknown verb gets.
func TestEveryCatalogueVerbIsAnswered(t *testing.T) {
	defer wire.SetLimits(testMaxLine, testWriteTimeout)()
	for _, kind := range []struct {
		name    string
		start   func(*testing.T) *speaker
		answers func(*catalogue.Verb) bool
	}{
		{"livesimd", startServer, (*catalogue.Verb).Livesimd},
		{"lsgate", startGateway, func(*catalogue.Verb) bool { return true }},
	} {
		t.Run(kind.name, func(t *testing.T) {
			sp := kind.start(t)
			cli := dialClient(t, sp)
			create := &wire.Request{Session: "v", Verb: "create", Files: map[string]string{"top.v": tinyDesign}}
			asked := map[string]bool{}
			for _, v := range catalogue.Verbs(kind.answers) {
				if asked[v.Name] {
					continue
				}
				asked[v.Name] = true
				cli.Do(create) // `close` may have taken it; "already exists" otherwise
				c := dialRaw(t, sp)
				c.send(`{"id":1,"session":"v","verb":"` + v.Name + `"}` + "\n")
				resp := c.mustRecv()
				if strings.Contains(resp.Error, "unknown verb") || strings.Contains(resp.Error, "unknown command") {
					t.Errorf("%s: %s (%s)", v.Name, resp.Error, resp.Code)
				}
				c.nc.Close()
			}
			c := dialRaw(t, sp)
			c.send(`{"id":2,"session":"v","verb":"frobnicate"}` + "\n")
			wantCode(t, c.mustRecv(), 2, wire.CodeBadRequest, "unknown verb")
		})
	}
}

// Shutdown racing a stream of requests: every request is answered or
// refused draining, and none is counted in flight once Shutdown waits
// for the ones that are (a WaitGroup added to after its Wait woke panics
// the whole process). Each round keeps a few connections pinging in
// lock step and shuts the speaker down under them.
func TestShutdownRacesRequests(t *testing.T) {
	for _, kind := range []struct {
		name  string
		start func(*testing.T) *speaker
	}{{"livesimd", startServer}, {"lsgate", startGateway}} {
		t.Run(kind.name, func(t *testing.T) {
			for round := 0; round < 20; round++ {
				sp := kind.start(t)
				var wg sync.WaitGroup
				for i := 0; i < 4; i++ {
					c := dialRaw(t, sp)
					wg.Add(1)
					go func() {
						defer wg.Done()
						for {
							c.nc.SetWriteDeadline(time.Now().Add(5 * time.Second))
							if _, err := io.WriteString(c.nc, `{"id":1,"verb":"ping"}`+"\n"); err != nil {
								return
							}
							resp, err := c.recv()
							if err != nil {
								return
							}
							if !resp.OK && resp.Code != wire.CodeDraining {
								t.Errorf("ping during shutdown: %s (%s)", resp.Error, resp.Code)
								return
							}
						}
					}()
				}
				time.Sleep(10 * time.Millisecond)
				sp.shutdown()
				wg.Wait()
			}
		})
	}
}

// The client's half of the oversize contract: a request it could not
// frame is refused locally, and a response line past the bound ends the
// connection with an error that says so.
func TestClientOversize(t *testing.T) {
	defer wire.SetLimits(testMaxLine, testWriteTimeout)()
	dir := sockDir(t)
	ln, err := net.Listen("unix", filepath.Join(dir, "f.sock"))
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() { // a peer that answers anything with one unframeable line
		nc, err := ln.Accept()
		if err != nil {
			return
		}
		defer nc.Close()
		bufio.NewReader(nc).ReadBytes('\n')
		io.WriteString(nc, `{"id":1,"ok":true,"output":"`+strings.Repeat("x", testMaxLine)+`"}`+"\n")
	}()
	c, err := client.Dial("unix:" + filepath.Join(dir, "f.sock"))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	_, err = c.Do(&wire.Request{Verb: "import", Blob: make([]byte, testMaxLine)})
	if !errors.Is(err, wire.ErrTooLong) || !strings.Contains(err.Error(), "not sent") {
		t.Fatalf("oversize request: %v; want a local ErrTooLong", err)
	}
	_, err = c.Do(&wire.Request{Verb: "ping"})
	if !errors.Is(err, bufio.ErrTooLong) || strings.Contains(err.Error(), "closed by server") {
		t.Fatalf("oversize response: %v; want bufio.ErrTooLong wrapped", err)
	}
}
