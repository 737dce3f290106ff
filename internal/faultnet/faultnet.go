// Package faultnet is a deterministic fault-injection layer for
// net.Conn. It wraps one end of a connection and perturbs the byte
// stream flowing *out* of that end: added latency, bandwidth caps,
// partial (chunked) writes, byte corruption, one-time stalls,
// mid-stream truncation, silent blackholing, and abrupt resets.
//
// All randomness is drawn from a single seeded source, so a given
// Config produces the same fault schedule on every run — chaos tests
// stay reproducible and bench numbers comparable.
//
// The wrapper is placed on the *producing* end of the traffic under
// test: to fault a server's responses toward a client, wrap the
// server-side conn end. Reads pass through untouched apart from
// ReadLatency, so the wrapped end still hears its peer.
package faultnet

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"time"
)

// Injected transport errors. Both model abrupt link failures and are
// classified as retryable by internal/http2.Retryable.
var (
	// ErrTruncated is returned once the TruncateAfter budget is
	// exhausted: the tail of the stream is cut and the transport
	// closed, so the peer sees EOF mid-frame.
	ErrTruncated = errors.New("faultnet: stream truncated mid-write")

	// ErrReset is returned once the ResetAfter budget is exhausted:
	// the transport dies abruptly, as on a TCP RST.
	ErrReset = errors.New("faultnet: connection reset by fault injection")

	// ErrReadBlackholed is returned from a blackholed read direction
	// once the connection is closed; until then the read simply hangs,
	// exactly like packets lost to an asymmetric partition.
	ErrReadBlackholed = errors.New("faultnet: read direction blackholed")
)

// Config selects the faults to inject. The zero value injects
// nothing. Byte thresholds count bytes written through the wrapped
// end; zero disables the corresponding fault.
type Config struct {
	// Seed drives all probabilistic faults (corruption position and
	// probability draws). The same seed gives the same schedule.
	Seed int64

	// ReadLatency / WriteLatency are added to every Read / Write.
	ReadLatency  time.Duration
	WriteLatency time.Duration

	// BandwidthBps, when positive, paces writes to roughly this many
	// bytes per second.
	BandwidthBps int

	// ChunkWrites, when positive, splits every Write into underlying
	// writes of at most this many bytes — the partial/short-write
	// fault, exercising frame reassembly on the peer.
	ChunkWrites int

	// CorruptProb is the per-chunk probability of flipping one byte
	// (position and bit chosen from the seeded source).
	CorruptProb float64

	// StallAfter / StallFor pause the writer once, the first time the
	// written-byte count crosses StallAfter.
	StallAfter int64
	StallFor   time.Duration

	// TruncateAfter cuts the stream after this many written bytes:
	// the remainder is dropped, the transport closed, ErrTruncated
	// returned.
	TruncateAfter int64

	// BlackholeAfter silently swallows everything written after this
	// many bytes: writes keep "succeeding" but nothing reaches the
	// peer — the classic dead-peer hang that keepalives must catch.
	BlackholeAfter int64

	// ReadBlackholeAfter blackholes the *read* direction after this
	// many bytes have been read: later reads block until the conn is
	// closed (then return ErrReadBlackholed), while writes keep
	// flowing. Combined with BlackholeAfter this models asymmetric
	// partitions — a node that can still be heard but no longer
	// hears, or vice versa — the split-brain ingredient the E23
	// cross-node chaos sweep injects.
	ReadBlackholeAfter int64

	// ResetAfter kills the transport abruptly after this many written
	// bytes, returning ErrReset without writing the current chunk.
	ResetAfter int64

	// Logf, when set, receives one line per injected fault.
	Logf func(format string, args ...any)
}

// Stats counts what was actually injected on one conn.
type Stats struct {
	BytesRead      int64
	BytesWritten   int64 // bytes that genuinely reached the transport
	Corrupted      int   // chunks with a flipped byte
	Chunks         int   // underlying writes issued
	Stalled        bool
	Truncated      bool
	Blackholed     bool
	ReadBlackholed bool
	Reset          bool
}

// A Conn is a fault-injecting wrapper around an underlying net.Conn.
type Conn struct {
	nc  net.Conn
	cfg Config

	mu      sync.Mutex
	rng     *rand.Rand
	written int64
	stats   Stats
	dead    error         // sticky terminal fault (truncation/reset)
	closed  chan struct{} // closed by Close; unblocks blackholed reads
	closeMu sync.Once
}

// Wrap decorates nc with the faults in cfg.
func Wrap(nc net.Conn, cfg Config) *Conn {
	return &Conn{
		nc:     nc,
		cfg:    cfg,
		rng:    rand.New(rand.NewSource(cfg.Seed)),
		closed: make(chan struct{}),
	}
}

// Pipe returns an in-memory connection pair whose srv end injects the
// configured faults into its writes — the usual layout for testing a
// client against a misbehaving server.
func Pipe(cfg Config) (cli net.Conn, srv *Conn) {
	cEnd, sEnd := net.Pipe()
	return cEnd, Wrap(sEnd, cfg)
}

// Stats returns a snapshot of the injected-fault counters.
func (c *Conn) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

func (c *Conn) logf(format string, args ...any) {
	if c.cfg.Logf != nil {
		c.cfg.Logf("faultnet: "+format, args...)
	}
}

// Read passes through, adding ReadLatency. Once ReadBlackholeAfter
// bytes have been read, further reads block until the conn closes —
// the inbound half of an asymmetric partition.
func (c *Conn) Read(p []byte) (int, error) {
	if c.cfg.ReadLatency > 0 {
		time.Sleep(c.cfg.ReadLatency)
	}
	if c.cfg.ReadBlackholeAfter > 0 {
		c.mu.Lock()
		if c.stats.BytesRead >= c.cfg.ReadBlackholeAfter {
			if !c.stats.ReadBlackholed {
				c.stats.ReadBlackholed = true
				c.mu.Unlock()
				c.logf("read blackhole after %d bytes", c.cfg.ReadBlackholeAfter)
			} else {
				c.mu.Unlock()
			}
			<-c.closed
			return 0, ErrReadBlackholed
		}
		// Cap the read at the threshold so it trips exactly even when
		// the peer hands over one large burst.
		if room := c.cfg.ReadBlackholeAfter - c.stats.BytesRead; int64(len(p)) > room {
			p = p[:room]
		}
		c.mu.Unlock()
	}
	n, err := c.nc.Read(p)
	c.mu.Lock()
	c.stats.BytesRead += int64(n)
	c.mu.Unlock()
	return n, err
}

// Write applies the configured write-path faults in threshold order.
// It reports the full length on blackholed writes (the bytes
// "succeeded" from the writer's point of view) and a short count with
// a sticky error on truncation or reset.
func (c *Conn) Write(p []byte) (int, error) {
	if c.cfg.WriteLatency > 0 {
		time.Sleep(c.cfg.WriteLatency)
	}
	written := 0
	for written < len(p) {
		c.mu.Lock()
		if c.dead != nil {
			err := c.dead
			c.mu.Unlock()
			return written, err
		}
		// Abrupt reset: nothing past the threshold makes it out.
		if c.cfg.ResetAfter > 0 && c.written >= c.cfg.ResetAfter {
			c.dead = ErrReset
			c.stats.Reset = true
			c.mu.Unlock()
			c.logf("reset after %d bytes", c.cfg.ResetAfter)
			c.Close()
			return written, ErrReset
		}

		// Truncation: the budget was emitted by earlier (capped)
		// chunks; now cut the stream.
		if c.cfg.TruncateAfter > 0 && c.written >= c.cfg.TruncateAfter {
			c.dead = ErrTruncated
			c.stats.Truncated = true
			c.mu.Unlock()
			c.logf("truncated after %d bytes", c.cfg.TruncateAfter)
			c.Close()
			return written, ErrTruncated
		}

		// Blackhole: swallow silently, forever.
		if c.cfg.BlackholeAfter > 0 && c.written >= c.cfg.BlackholeAfter {
			if !c.stats.Blackholed {
				c.stats.Blackholed = true
				c.mu.Unlock()
				c.logf("blackhole after %d bytes", c.cfg.BlackholeAfter)
			} else {
				c.mu.Unlock()
			}
			return len(p), nil
		}

		// One-time stall at the threshold crossing.
		var stall time.Duration
		if c.cfg.StallAfter > 0 && !c.stats.Stalled && c.written >= c.cfg.StallAfter {
			c.stats.Stalled = true
			stall = c.cfg.StallFor
		}

		chunk := p[written:]
		if c.cfg.ChunkWrites > 0 && len(chunk) > c.cfg.ChunkWrites {
			chunk = chunk[:c.cfg.ChunkWrites]
		}
		// Cap the chunk at the nearest pending fault boundary so every
		// threshold trips exactly, even for a single large write.
		for _, boundary := range []int64{c.cfg.ResetAfter, c.cfg.TruncateAfter, c.cfg.BlackholeAfter, c.cfg.StallAfter} {
			if boundary > c.written {
				if room := boundary - c.written; int64(len(chunk)) > room {
					chunk = chunk[:room]
				}
			}
		}

		// Corruption: flip one byte in a copy of the chunk.
		out := chunk
		if c.cfg.CorruptProb > 0 && c.rng.Float64() < c.cfg.CorruptProb {
			buf := append([]byte(nil), chunk...)
			pos := c.rng.Intn(len(buf))
			buf[pos] ^= 1 << uint(c.rng.Intn(8))
			out = buf
			c.stats.Corrupted++
		}
		c.stats.Chunks++
		c.mu.Unlock()

		if stall > 0 {
			c.logf("stalling %v after %d bytes", c.cfg.StallFor, c.cfg.StallAfter)
			time.Sleep(stall)
		}
		if c.cfg.BandwidthBps > 0 {
			time.Sleep(time.Duration(float64(len(out)) / float64(c.cfg.BandwidthBps) * float64(time.Second)))
		}
		n, err := c.nc.Write(out)
		c.mu.Lock()
		c.written += int64(n)
		c.stats.BytesWritten += int64(n)
		c.mu.Unlock()
		written += n
		if err != nil {
			return written, fmt.Errorf("faultnet: underlying write: %w", err)
		}
	}
	return written, nil
}

// Close closes the underlying conn and releases any reads parked in
// a blackholed read direction.
func (c *Conn) Close() error {
	c.closeMu.Do(func() { close(c.closed) })
	return c.nc.Close()
}

// LocalAddr returns the underlying local address.
func (c *Conn) LocalAddr() net.Addr { return c.nc.LocalAddr() }

// RemoteAddr returns the underlying remote address.
func (c *Conn) RemoteAddr() net.Addr { return c.nc.RemoteAddr() }

// SetDeadline passes through.
func (c *Conn) SetDeadline(t time.Time) error { return c.nc.SetDeadline(t) }

// SetReadDeadline passes through.
func (c *Conn) SetReadDeadline(t time.Time) error { return c.nc.SetReadDeadline(t) }

// SetWriteDeadline passes through.
func (c *Conn) SetWriteDeadline(t time.Time) error { return c.nc.SetWriteDeadline(t) }

// blackholeAddr is the fake address of a fully blackholed conn.
type blackholeAddr struct{}

func (blackholeAddr) Network() string { return "blackhole" }
func (blackholeAddr) String() string  { return "blackhole" }

// A blackholeConn is unreachable from byte zero: writes "succeed"
// into the void and reads hang until Close.
type blackholeConn struct {
	closed chan struct{}
	once   sync.Once
}

func (b *blackholeConn) Read(p []byte) (int, error) {
	<-b.closed
	return 0, ErrReadBlackholed
}

func (b *blackholeConn) Write(p []byte) (int, error) {
	select {
	case <-b.closed:
		return 0, net.ErrClosed
	default:
		return len(p), nil
	}
}

func (b *blackholeConn) Close() error {
	b.once.Do(func() { close(b.closed) })
	return nil
}

func (b *blackholeConn) LocalAddr() net.Addr              { return blackholeAddr{} }
func (b *blackholeConn) RemoteAddr() net.Addr             { return blackholeAddr{} }
func (b *blackholeConn) SetDeadline(time.Time) error      { return nil }
func (b *blackholeConn) SetReadDeadline(time.Time) error  { return nil }
func (b *blackholeConn) SetWriteDeadline(time.Time) error { return nil }

// Blackhole returns a connection to nowhere: every write is silently
// swallowed and every read hangs until Close. It models dialing a
// peer the network has completely swallowed — the dial "succeeds"
// (SYN-ACKs still flow in many real partitions) but nothing ever
// comes back, so only a connect bound or keepalive can unstick the
// caller.
func Blackhole() net.Conn {
	return &blackholeConn{closed: make(chan struct{})}
}

// A Plan sequences fault configs across successive connections: the
// n-th dial gets the n-th config, and dials past the end get the
// last entry (use a zero Config there for "healthy from now on").
// A Plan is safe for concurrent use.
type Plan struct {
	mu      sync.Mutex
	configs []Config
	handed  int
}

// NewPlan builds a plan from the given per-connection configs.
func NewPlan(configs ...Config) *Plan { return &Plan{configs: configs} }

// Next returns the config for the next connection.
func (p *Plan) Next() Config {
	p.mu.Lock()
	defer p.mu.Unlock()
	idx := p.handed
	p.handed++
	if len(p.configs) == 0 {
		return Config{}
	}
	if idx >= len(p.configs) {
		idx = len(p.configs) - 1
	}
	return p.configs[idx]
}

// Dials reports how many connections have drawn a config so far.
func (p *Plan) Dials() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.handed
}
