package client

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"os"
	"syscall"
	"testing"
	"time"

	"livesim/internal/wire"
)

// A call past its DoTimeout deadline fails, is unregistered, and its
// late response is dropped without disturbing the calls around it.
func TestDoTimeoutExpiryDropsLateResponse(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	release := make(chan struct{})
	go func() { // answers "slow" only once released, everything else at once
		nc, err := ln.Accept()
		if err != nil {
			return
		}
		defer nc.Close()
		sc := bufio.NewScanner(nc)
		for sc.Scan() {
			var req wire.Request
			if json.Unmarshal(sc.Bytes(), &req) != nil {
				continue
			}
			if req.Verb == "slow" {
				<-release
			}
			line, _ := wire.EncodeLine(&wire.Response{ID: req.ID, OK: true, Output: req.Verb})
			nc.Write(line)
		}
	}()
	c, err := Dial("tcp:" + ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	t0 := time.Now()
	_, err = c.DoTimeout(&wire.Request{Verb: "slow"}, 50*time.Millisecond)
	if !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("DoTimeout past its deadline returned %v, want os.ErrDeadlineExceeded wrapped", err)
	}
	if d := time.Since(t0); d > 2*time.Second {
		t.Fatalf("a 50ms deadline took %v to expire", d)
	}
	c.mu.Lock()
	left := len(c.pending)
	c.mu.Unlock()
	if left != 0 {
		t.Fatalf("%d call(s) still registered after the deadline", left)
	}

	close(release) // the late answer arrives now, addressed to nobody
	resp, err := c.DoTimeout(&wire.Request{Verb: "ping"}, 5*time.Second)
	if err != nil || resp.Output != "ping" {
		t.Fatalf("call after a dropped late response: %+v, %v", resp, err)
	}
}

// A peer that completes no handshake must cost Dial its dial timeout,
// not forever: the listener below has a full accept queue and never
// accepts, so further connects hang until the dialer gives up.
func TestDialTimesOutOnSilentListener(t *testing.T) {
	fd, err := syscall.Socket(syscall.AF_INET, syscall.SOCK_STREAM, 0)
	if err != nil {
		t.Skipf("raw socket: %v", err)
	}
	defer syscall.Close(fd)
	if err := syscall.Bind(fd, &syscall.SockaddrInet4{Addr: [4]byte{127, 0, 0, 1}}); err != nil {
		t.Skipf("bind: %v", err)
	}
	if err := syscall.Listen(fd, 0); err != nil {
		t.Skipf("listen: %v", err)
	}
	sa, err := syscall.Getsockname(fd)
	if err != nil {
		t.Fatal(err)
	}
	addr := fmt.Sprintf("127.0.0.1:%d", sa.(*syscall.SockaddrInet4).Port)
	full := false
	for i := 0; i < 8 && !full; i++ { // fill the accept queue
		nc, err := net.DialTimeout("tcp", addr, 100*time.Millisecond)
		if err != nil {
			full = true
			break
		}
		defer nc.Close()
	}
	if !full {
		t.Skip("kernel kept completing handshakes on a full accept queue")
	}

	t0 := time.Now()
	c, err := Dial("tcp:" + addr)
	if err == nil {
		c.Close()
		t.Fatal("Dial to a listener that never accepts succeeded")
	}
	if d := time.Since(t0); d < dialTimeout/2 || d > dialTimeout+2*time.Second {
		t.Fatalf("Dial gave up after %v, want about %v (%v)", d, dialTimeout, err)
	}
}

// Two clients sending one shared request from two goroutines each get
// the answer to their own call: the call's id goes on the wire line, not
// into the request, so neither can take the other's. The request carries
// its TraceID, which Do would otherwise stamp into it.
func TestSharedRequestGetsItsOwnAnswers(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() { // echoes each request's id and verb
		for {
			nc, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer nc.Close()
				sc := bufio.NewScanner(nc)
				for sc.Scan() {
					var req wire.Request
					if json.Unmarshal(sc.Bytes(), &req) != nil {
						continue
					}
					line, _ := wire.EncodeLine(&wire.Response{ID: req.ID, OK: true, Output: req.Verb})
					nc.Write(line)
				}
			}()
		}
	}()

	req := &wire.Request{Verb: "ping", TraceID: "shared"}
	errs := make(chan error, 2)
	for k := 0; k < 2; k++ {
		c, err := Dial("tcp:" + ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		go func() {
			for i := 0; i < 500; i++ {
				resp, err := c.DoTimeout(req, 5*time.Second)
				if err == nil && (!resp.OK || resp.Output != "ping") {
					err = fmt.Errorf("answer %+v", resp)
				}
				if err != nil {
					errs <- fmt.Errorf("call %d: %w", i, err)
					return
				}
			}
			errs <- nil
		}()
	}
	for k := 0; k < 2; k++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	if req.ID != 0 {
		t.Fatalf("the shared request's ID was written: %d", req.ID)
	}
}
