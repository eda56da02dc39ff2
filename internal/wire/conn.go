package wire

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"
)

// The limits are variables only so this package's tests can shrink them
// (export_test.go); nothing else assigns them.
var (
	maxLine      = MaxLine
	writeTimeout = WriteTimeout
)

// ErrClosed is returned by Serve on an Acceptor that has stopped.
var ErrClosed = errors.New("wire: acceptor closed")

// lineTooLong is EncodeLine's ErrTooLong: it carries the size for the
// message the peer is shown.
type lineTooLong int

func (n lineTooLong) Error() string {
	return fmt.Sprintf("%d bytes exceeds the %d-byte wire limit", int(n), maxLine)
}
func (lineTooLong) Unwrap() error { return ErrTooLong }

// NewScanner returns a line scanner over r with the protocol's buffer
// policy: 64 KB until a line needs more, MaxLine at most. Past that
// Scan stops and Err reports ErrTooLong.
func NewScanner(r io.Reader) *bufio.Scanner {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), maxLine)
	return sc
}

// EncodeLine marshals v as one protocol line, newline included. A line
// the peer's scanner could not take is an error wrapping ErrTooLong.
func EncodeLine(v any) ([]byte, error) {
	line, err := json.Marshal(v)
	if err != nil {
		return nil, err
	}
	if len(line) >= maxLine {
		return nil, lineTooLong(len(line) + 1)
	}
	return append(line, '\n'), nil
}

// Conn is the serving side of one client connection. All writes —
// replies from any goroutine and streamed span events — serialize on
// one lock and carry WriteTimeout, so a stalled client can only hurt
// itself.
type Conn struct {
	nc      net.Conn
	writeMu sync.Mutex

	closeMu sync.Mutex
	onClose []func()
}

// Reply sends one response. It is encoded outside the write lock. A
// response that cannot be framed is replaced by a typed error with the
// same id: the caller is owed an answer it can match, not a reset.
func (c *Conn) Reply(resp *Response) error {
	line, err := EncodeLine(resp)
	if err != nil {
		line, err = EncodeLine(&Response{ID: resp.ID, Code: CodeError, Error: "reply not sent: " + err.Error()})
		if err != nil {
			return err
		}
	}
	_, err = c.Write(line)
	return err
}

// Write sends p — whole lines — in one deadline-bounded write; it is the
// raw path `subscribe` event streams use (a Conn can be attached to a
// span fanout as is). A failed write may have torn a line, so it closes
// the connection, which ends the read loop.
func (c *Conn) Write(p []byte) (int, error) {
	c.writeMu.Lock()
	defer c.writeMu.Unlock()
	c.nc.SetWriteDeadline(time.Now().Add(writeTimeout))
	n, err := c.nc.Write(p)
	if err != nil {
		c.nc.Close()
	}
	return n, err
}

// Close severs the connection; requests already read still run, and
// their replies are discarded.
func (c *Conn) Close() error { return c.nc.Close() }

// OnClose registers f to run when the connection is torn down (e.g. to
// detach a subscription). Call it from the connection's handler.
func (c *Conn) OnClose(f func()) {
	c.closeMu.Lock()
	c.onClose = append(c.onClose, f)
	c.closeMu.Unlock()
}

// Acceptor owns a speaker's listeners and connections: it accepts,
// runs the read loop of every connection, and stops in two steps —
// StopAccepting when a drain begins, Close when it ends.
type Acceptor struct {
	handler func(*Conn) func(*Request)
	// refused, when set, counts each line the read loop refuses by code.
	refused func(code string)

	mu     sync.Mutex
	lns    map[net.Listener]struct{}
	conns  map[*Conn]struct{}
	closed bool
	wg     sync.WaitGroup
}

// NewAcceptor builds an Acceptor. handler is called once per accepted
// connection and returns that connection's request handler, which then
// runs for every decoded request, in arrival order, on the connection's
// reader goroutine: a handler that blocks stops the connection being
// read, one that must not spawns its own goroutine.
func NewAcceptor(handler func(*Conn) func(*Request)) *Acceptor {
	return &Acceptor{
		handler: handler,
		lns:     make(map[net.Listener]struct{}),
		conns:   make(map[*Conn]struct{}),
	}
}

// Serve accepts connections on ln until the listener closes. It blocks;
// run it in a goroutine to serve several listeners. It returns nil when
// the Acceptor stopped it, ErrClosed if it had already stopped.
func (a *Acceptor) Serve(ln net.Listener) error {
	a.mu.Lock()
	if a.closed {
		a.mu.Unlock()
		ln.Close()
		return ErrClosed
	}
	a.lns[ln] = struct{}{}
	a.mu.Unlock()
	for {
		nc, err := ln.Accept()
		a.mu.Lock()
		if a.closed {
			a.mu.Unlock()
			if err == nil {
				nc.Close()
			}
			return nil
		}
		if err != nil {
			a.mu.Unlock()
			return err
		}
		c := &Conn{nc: nc}
		a.conns[c] = struct{}{}
		a.wg.Add(1)
		a.mu.Unlock()
		go a.serve(c)
	}
}

func (a *Acceptor) serve(c *Conn) {
	defer func() {
		c.closeMu.Lock()
		fs := c.onClose
		c.onClose = nil
		c.closeMu.Unlock()
		for _, f := range fs {
			f()
		}
		c.nc.Close()
		a.mu.Lock()
		delete(a.conns, c)
		a.mu.Unlock()
		a.wg.Done()
	}()
	handle := a.handler(c)
	sc := NewScanner(c.nc)
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		req := new(Request)
		if err := json.Unmarshal(line, req); err != nil {
			a.refuse(c, "bad request: "+err.Error())
			continue
		}
		handle(req)
	}
	if errors.Is(sc.Err(), ErrTooLong) {
		a.refuse(c, fmt.Sprintf("bad request: line exceeds the %d-byte wire limit", maxLine))
	}
}

// refuse answers a line that is no request with bad_request.
func (a *Acceptor) refuse(c *Conn, msg string) {
	if a.refused != nil {
		a.refused(CodeBadRequest)
	}
	c.Reply(&Response{Code: CodeBadRequest, Error: msg})
}

// StopAccepting closes every listener; Serve calls return nil and later
// ones fail. Connections already open keep being served.
func (a *Acceptor) StopAccepting() {
	a.mu.Lock()
	a.closed = true
	lns := a.lns
	a.lns = nil
	a.mu.Unlock()
	for ln := range lns {
		ln.Close()
	}
}

// Close stops accepting, severs every connection and waits for their
// read loops (and so their OnClose hooks) to finish.
func (a *Acceptor) Close() {
	a.StopAccepting()
	a.mu.Lock()
	conns := make([]*Conn, 0, len(a.conns))
	for c := range a.conns {
		conns = append(conns, c)
	}
	a.mu.Unlock()
	for _, c := range conns {
		c.nc.Close()
	}
	a.wg.Wait()
}
