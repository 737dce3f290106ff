package main

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"sww/internal/http2"
)

// A tierConn is the dialing side of one loopback TCP connection of the
// tier. It counts the bytes that cross it (client sockets only), and it
// holds back reads until the h2 client above it has written its own
// SETTINGS: http2.NewClientConn starts its read loop before it queues
// them, so over loopback about one handshake in five hundred
// acknowledges the server's SETTINGS first and is refused with
// PROTOCOL_ERROR (README, "Found while building"). No workload may have
// an operation that fails, so the dialer closes the window.
type tierConn struct {
	net.Conn
	count *atomic.Int64 // nil on connections inside the tier

	writes atomic.Int32
	sent   chan struct{} // closed by the second Write: preface, then SETTINGS
	dead   chan struct{}
	once   sync.Once
}

func (c *tierConn) Read(p []byte) (int, error) {
	select {
	case <-c.sent:
	case <-c.dead:
		return 0, net.ErrClosed
	}
	n, err := c.Conn.Read(p)
	if c.count != nil {
		c.count.Add(int64(n))
	}
	return n, err
}

func (c *tierConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	if c.count != nil {
		c.count.Add(int64(n))
	}
	if c.writes.Load() < 2 && c.writes.Add(1) == 2 {
		close(c.sent)
	}
	return n, err
}

func (c *tierConn) Close() error {
	c.once.Do(func() { close(c.dead) })
	return c.Conn.Close()
}

// A dialer opens every connection of one tier and closes them all when
// the tier goes down.
type dialer struct {
	mu     sync.Mutex
	conns  []*tierConn
	closed bool
}

var errTierClosed = errors.New("benchmark: tier is closed")

func (d *dialer) dial(addr string, count *atomic.Int64) (net.Conn, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return nil, errTierClosed
	}
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	c := &tierConn{Conn: nc, count: count, sent: make(chan struct{}), dead: make(chan struct{})}
	d.conns = append(d.conns, c)
	return c, nil
}

func (d *dialer) closeAll() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.closed = true
	for _, c := range d.conns {
		c.Close()
	}
}

// A front is one loopback TCP listener whose accepted connections are
// handed to a server.
type front struct {
	l    net.Listener
	done chan struct{}
	gone []func()
}

// listen opens a front; nothing is accepted until serve is called, so
// the server behind it can be built knowing the front's address.
func listen() (*front, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listening on loopback: %w", err)
	}
	return &front{l: l, done: make(chan struct{})}, nil
}

// serve accepts until close. start serves one connection and returns
// what close calls to see it gone.
func (f *front) serve(start func(net.Conn) (gone func())) {
	go func() {
		defer close(f.done)
		for {
			nc, err := f.l.Accept()
			if err != nil {
				return
			}
			f.gone = append(f.gone, start(nc))
		}
	}()
}

// serveH2 adapts an h2 server's StartConn to front.serve. The connection is
// left to die with its peer: http2's teardown may not run twice at
// once (its done channel is closed under a check, not a lock), and a
// Close here would race the read loop's own teardown on EOF.
func serveH2(start func(net.Conn) *http2.ServerConn) func(net.Conn) func() {
	return func(nc net.Conn) func() {
		sc := start(nc)
		return func() {
			select {
			case <-sc.Done():
			case <-time.After(2 * time.Second):
				nc.Close()
			}
		}
	}
}

func (f *front) addr() string { return f.l.Addr().String() }

// close stops accepting and waits for every served connection to go.
// serve must have been called.
func (f *front) close() {
	f.l.Close()
	<-f.done
	for _, gone := range f.gone {
		gone()
	}
}
