package wire

import (
	"bufio"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// socketPair returns the serving Conn and the client end of one unix
// socket connection.
func socketPair(t *testing.T) (*Conn, net.Conn) {
	t.Helper()
	dir, err := os.MkdirTemp("", "lwc") // short path: unix sockets cap ~104 bytes
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.RemoveAll(dir) })
	ln, err := net.Listen("unix", filepath.Join(dir, "c.sock"))
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	client, err := net.Dial("unix", filepath.Join(dir, "c.sock"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { client.Close() })
	nc, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	c := newConn(nc)
	t.Cleanup(func() { c.Close() })
	return c, client
}

// A client that reads late gets every line, in order: what the socket
// did not take joins a backlog its flusher drains, writes made
// meanwhile queue behind it, and once it is drained the answering
// goroutine writes again itself.
func TestBacklogKeepsOrderAndDrains(t *testing.T) {
	c, client := socketPair(t)
	if c.raw == nil {
		t.Fatal("a unix socket Conn has no raw write path")
	}
	const lines = 400
	pad := strings.Repeat("x", 4000) // 400 lines of ~4 KB: several socket buffers
	for i := 0; i < lines; i++ {
		if n, err := c.Write([]byte(fmt.Sprintf("%d %s\n", i, pad))); err != nil || n == 0 {
			t.Fatalf("write %d: %d, %v", i, n, err)
		}
	}
	c.mu.Lock()
	backlogged := c.flushing
	c.mu.Unlock()
	if !backlogged {
		t.Fatal("1.6 MB written to an unread socket, and no flusher started")
	}

	client.SetReadDeadline(time.Now().Add(10 * time.Second))
	br := bufio.NewReader(client)
	for i := 0; i < lines; i++ {
		var n int
		var rest string
		if _, err := fmt.Fscanf(br, "%d %s\n", &n, &rest); err != nil || n != i || len(rest) != len(pad) {
			t.Fatalf("line %d: read %d (%d bytes), %v", i, n, len(rest), err)
		}
	}
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		c.mu.Lock()
		flushing := c.flushing
		c.mu.Unlock()
		if !flushing {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the flusher never handed the write side back")
		}
	}
	if _, err := c.Write([]byte("last\n")); err != nil {
		t.Fatal(err)
	}
	c.mu.Lock()
	inline := !c.flushing
	c.mu.Unlock()
	if !inline {
		t.Error("a drained connection started a flusher for a line the socket could take")
	}
	if line, err := br.ReadString('\n'); err != nil || line != "last\n" {
		t.Fatalf("after the backlog: %q, %v", line, err)
	}
}
