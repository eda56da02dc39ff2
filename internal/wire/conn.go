package wire

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"syscall"
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

// EncodeLine writes v, a *Request or a *Response, as one protocol line,
// newline included: the bytes json.Marshal writes for it. A line the
// peer's scanner could not take is an error wrapping ErrTooLong.
func EncodeLine(v message) ([]byte, error) {
	line, err := v.marshal()
	if err != nil {
		return nil, err
	}
	return endLine(line)
}

// EncodeRequest is EncodeLine for req sent under id, whatever req.ID
// holds: a client numbers its calls without writing into a request its
// caller may be sending from another goroutine too.
func EncodeRequest(req *Request, id uint64) ([]byte, error) {
	return endLine(req.marshalAs(id))
}

func endLine(line []byte) ([]byte, error) {
	if len(line) >= maxLine {
		return nil, lineTooLong(len(line) + 1)
	}
	return append(line, '\n'), nil
}

// Conn is the serving side of one client connection. A reply or an
// event line is written on the goroutine that answers — a session
// worker, a forwarder, the connection's reader — when the socket takes
// the whole line at once, which is what a client that reads keeps true.
// Only a connection with a backlog gets a flusher: one goroutine,
// started on demand, that writes the backlog in order under
// WriteTimeout and exits once it is empty. Lines written meanwhile join
// the backlog. A backlog that would pass MaxLine bytes, or a flush that
// misses WriteTimeout, closes the connection: no answering goroutine
// ever waits on a client, and a stalled client can only hurt itself.
type Conn struct {
	nc net.Conn
	// raw writes without waiting; nil (a net.Conn with no file
	// descriptor) sends every line through the flusher.
	raw syscall.RawConn

	mu       sync.Mutex
	backlog  []byte // bytes the flusher has not taken, in order
	flushing bool   // a flusher owns the socket's write side
	closing  bool   // close once the backlog is written
	closed   bool
	flushed  chan struct{} // closed when the current flusher exits
	// p, n and err are writeNow's argument and results, so the function
	// handed to raw (put is bound once) captures nothing per call.
	p   []byte
	n   int
	err error
	put func(fd uintptr) bool

	closeMu sync.Mutex
	onClose []func()
}

func newConn(nc net.Conn) *Conn {
	c := &Conn{nc: nc}
	if sc, ok := nc.(syscall.Conn); ok {
		if raw, err := sc.SyscallConn(); err == nil {
			c.raw = raw
			c.put = c.writeFD
		}
	}
	return c
}

// Reply sends one response. It is encoded outside the lock. A response
// that cannot be framed is replaced by a typed error with the same id:
// the caller is owed an answer it can match, not a reset.
func (c *Conn) Reply(resp *Response) error { return c.reply(resp, 0) }

// reply is Reply with the answer held for hold before it is written,
// on a flusher: the slow-client fault delays the write, never the
// goroutine that answers. Behind a backlog the line waits for that
// instead.
func (c *Conn) reply(resp *Response, hold time.Duration) error {
	line, err := EncodeLine(resp)
	if err != nil {
		line, err = EncodeLine(&Response{ID: resp.ID, Code: CodeError, Error: "reply not sent: " + err.Error()})
		if err != nil {
			return err
		}
	}
	_, err = c.send(line, hold)
	return err
}

// Write sends p — whole lines — as Reply does; it is the raw path
// `subscribe` event streams use (a Conn can be attached to a span
// fanout as is). It fails once the connection is closed; a socket
// error or a backlog overflow closes it.
func (c *Conn) Write(p []byte) (int, error) { return c.send(p, 0) }

var errBacklog = errors.New("wire: connection backlog full")

func (c *Conn) send(p []byte, hold time.Duration) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed || c.closing {
		return 0, net.ErrClosed
	}
	if c.flushing {
		if len(c.backlog)+len(p) > maxLine {
			c.closeLocked()
			return 0, errBacklog
		}
		c.backlog = append(c.backlog, p...)
		return len(p), nil
	}
	rest := p
	if hold == 0 && c.raw != nil {
		n, err := c.writeNow(p)
		if err != nil {
			c.closeLocked() // the line may be torn: nothing more can be framed
			return n, err
		}
		if rest = p[n:]; len(rest) == 0 {
			return n, nil
		}
	}
	c.backlog = append(c.backlog[:0], rest...)
	c.flushing = true
	c.flushed = make(chan struct{})
	go c.flush(hold)
	return len(p), nil
}

// writeNow writes what the socket takes of p without waiting for room.
func (c *Conn) writeNow(p []byte) (int, error) {
	c.p = p
	err := c.raw.Write(c.put)
	n, werr := c.n, c.err
	c.p, c.err = nil, nil
	switch {
	case err != nil:
		return 0, err
	case werr == syscall.EAGAIN:
		return 0, nil
	case werr != nil:
		return 0, werr
	}
	return n, nil
}

func (c *Conn) writeFD(fd uintptr) bool {
	for {
		c.n, c.err = syscall.Write(int(fd), c.p)
		if c.err != syscall.EINTR {
			return true // done, even on EAGAIN: the flusher waits, never the caller
		}
	}
}

// flush writes the backlog, taking whatever has been added meanwhile,
// until it is empty; then it hands the write side back to the
// answering goroutines, or closes the connection if it is closing.
func (c *Conn) flush(hold time.Duration) {
	if hold > 0 {
		time.Sleep(hold)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	defer close(c.flushed)
	for len(c.backlog) > 0 && !c.closed {
		buf := c.backlog
		c.backlog = nil
		c.mu.Unlock()
		c.nc.SetWriteDeadline(time.Now().Add(writeTimeout))
		_, err := c.nc.Write(buf)
		c.mu.Lock()
		if err != nil {
			c.closeLocked()
		}
	}
	c.flushing = false
	switch {
	case c.closing:
		c.closeLocked()
	case !c.closed:
		c.nc.SetWriteDeadline(time.Time{}) // an expired deadline would refuse writeNow
	}
}

// Close severs the connection at once; requests already read still
// run, and their replies are discarded.
func (c *Conn) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.closeLocked()
}

func (c *Conn) closeLocked() error {
	if c.closed {
		return nil
	}
	c.closed, c.backlog = true, nil
	return c.nc.Close()
}

// closeAfterFlush closes the connection once its backlog is written —
// the answer to an over-long request line included — which takes at
// most a hold plus WriteTimeout; done closes then (nil: closed now).
// Nothing written after it is sent.
func (c *Conn) closeAfterFlush() (done <-chan struct{}) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.closing = true
	if !c.flushing {
		c.closeLocked()
		return nil
	}
	return c.flushed
}

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
		c := newConn(nc)
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
		if done := c.closeAfterFlush(); done != nil {
			<-done
		}
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
		req, err := decodeRequest(line)
		if err != nil {
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

// Close stops accepting, closes every connection once what it was
// answered is written (or WriteTimeout passed) and waits for their read
// loops (and so their OnClose hooks) to finish.
func (a *Acceptor) Close() {
	a.StopAccepting()
	a.mu.Lock()
	conns := make([]*Conn, 0, len(a.conns))
	for c := range a.conns {
		conns = append(conns, c)
	}
	a.mu.Unlock()
	for _, c := range conns {
		c.closeAfterFlush()
	}
	a.wg.Wait()
}
