package faultnet

// Crash models a peer going away at the dial layer, and coming back.
// Either way every connection established through the peer's dial
// dies at once; what differs is how the next dial fails. Kill is a
// process death — *loud*: the kernel resets a dead process's sockets,
// new dials fail outright, and the survivor's transport errors
// immediately, which is what breaker and membership ladders key on.
// Sever is a partition — *silent*: new dials "succeed" into a
// Blackhole, so nothing errors and only a client's connect bound
// escapes, which is what timeout ladders (stale serving, standby
// promotion) key on.
// In-process chaos tests use it to rehearse kill→restart and
// partition→heal without forking real processes.

import (
	"errors"
	"net"
	"sync"
)

// ErrCrashed is returned from dials attempted while the peer is down.
var ErrCrashed = errors.New("faultnet: peer crashed")

// A Crash is a kill switch over one peer's dial func. The zero value
// is a running (not crashed) peer.
type Crash struct {
	mu     sync.Mutex
	down   bool
	silent bool // down by Sever: dials land in a Blackhole
	conns  map[*crashConn]struct{}
	kills  int
}

// Wrap returns a dial that tracks every connection it establishes so
// Kill and Sever can cut them all, and that fails with ErrCrashed
// (killed) or hands out a Blackhole (severed) while the peer is down.
func (c *Crash) Wrap(dial func() (net.Conn, error)) func() (net.Conn, error) {
	return func() (net.Conn, error) {
		c.mu.Lock()
		down, silent := c.down, c.silent
		c.mu.Unlock()
		var conn net.Conn
		if !down {
			var err error
			if conn, err = dial(); err != nil {
				return nil, err
			}
		}
		c.mu.Lock()
		defer c.mu.Unlock()
		// The peer may have gone down between the check and the dial
		// completing; the late connection dies with the rest.
		if c.down && !down {
			conn.Close()
			down, silent = true, c.silent
		}
		if down {
			if !silent {
				return nil, ErrCrashed
			}
			conn = Blackhole()
		}
		cc := &crashConn{Conn: conn, owner: c}
		if c.conns == nil {
			c.conns = map[*crashConn]struct{}{}
		}
		c.conns[cc] = struct{}{}
		return cc, nil
	}
}

// Kill crashes the peer: all live connections are severed and future
// dials fail until Restart. Idempotent.
func (c *Crash) Kill() { c.takeDown(false) }

// Sever partitions the peer silently: all live connections are cut
// and future dials land in a Blackhole until Restart. Idempotent.
func (c *Crash) Sever() { c.takeDown(true) }

func (c *Crash) takeDown(silent bool) {
	c.mu.Lock()
	if c.down {
		c.mu.Unlock()
		return
	}
	c.down, c.silent = true, silent
	c.kills++
	conns := make([]*crashConn, 0, len(c.conns))
	for cc := range c.conns {
		conns = append(conns, cc)
	}
	c.conns = nil
	c.mu.Unlock()
	for _, cc := range conns {
		cc.Conn.Close()
	}
}

// Restart brings the peer back: dials succeed again. Connections
// cut by the kill stay dead, and blackholed ones handed out while
// severed stay silent — survivors must redial, as after a real
// restart or heal.
func (c *Crash) Restart() {
	c.mu.Lock()
	c.down, c.silent = false, false
	c.mu.Unlock()
}

// Down reports whether the peer is currently killed or severed.
func (c *Crash) Down() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.down
}

// Kills returns how many times the peer has been killed or severed.
func (c *Crash) Kills() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.kills
}

// crashConn untracks itself on close so the Crash's conn table does
// not grow with every dial over a long test.
type crashConn struct {
	net.Conn
	owner *Crash
	once  sync.Once
}

func (cc *crashConn) Close() error {
	cc.once.Do(func() {
		cc.owner.mu.Lock()
		delete(cc.owner.conns, cc)
		cc.owner.mu.Unlock()
	})
	return cc.Conn.Close()
}
