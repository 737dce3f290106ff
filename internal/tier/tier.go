// Package tier boots the edge tier in one process: an origin, N named
// edges and their clients over in-memory pipes, every link behind a
// kill switch. It is the one topology the cdn scenario tests and the
// virtual-time bubbles (bubble_test.go) run on; the benchmark keeps
// its own loopback-TCP topology because it measures the socket path
// this one replaces with net.Pipe.
//
// Every dial is a link: a pipe whose far end is handed to the
// listener's StartConn, wrapped in one faultnet.Crash. Per edge there
// are three — Up (edge→primary), Push (primary→edge invalidation
// push) and In (the edge's listener: peer edges and terminal clients)
// — plus Mirror (standby→primary). Kill on a link is a process death
// (redials error at once: what breakers and membership key on), Sever
// a partition (redials hang in a blackhole: what connect bounds,
// stale serving and standby promotion key on). The edge→standby dial
// carries no switch: no scenario faults the standby.
package tier

import (
	"context"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"sync"
	"time"

	"sww/internal/cdn"
	"sww/internal/core"
	"sww/internal/device"
	"sww/internal/faultnet"
	"sww/internal/genai/imagegen"
	"sww/internal/genai/textgen"
	"sww/internal/workload"
)

// Pages is the corpus size: workload.CDNPage(0..Pages-1) on every
// origin.
const Pages = 8

// ClientRetry is the terminal-client policy.
var ClientRetry = core.RetryPolicy{MaxAttempts: 2, PeerTimeout: 2 * time.Second}

// EdgeRetry is the edge→origin policy: a severed origin's redial gives
// up after 40ms, so the edge falls into the stale path within one
// short ladder.
var EdgeRetry = core.RetryPolicy{MaxAttempts: 2, PeerTimeout: 40 * time.Millisecond}

// Health is the breaker every endpoint set in the tier runs on unless
// Options.Health overrides it.
var Health = core.EndpointHealthConfig{FailureThreshold: 2, ProbeCooldown: 25 * time.Millisecond}

// standbyPoll paces the standby's Follow loop: it promotes after 8
// polls, 120ms, of silence.
const standbyPoll = 15 * time.Millisecond

// Options selects what New boots. The zero value is one origin and no
// edges.
type Options struct {
	// Edges names the fleet; every edge lists all of them as Peers.
	Edges []string
	// Mesh gives every edge a dial to every other (heartbeats,
	// peer-fill). Without it peers are placement-only.
	Mesh bool
	// Snapshots gives every edge a SnapshotPath that survives
	// KillEdge/RebootEdge.
	Snapshots bool
	// Durable keeps the primary's invalidation log and epoch on disk,
	// so RestartPrimary resumes them.
	Durable bool
	// Standby adds a warm standby mirroring the primary; every edge
	// lists it as its second origin.
	Standby bool
	// Health overrides the edges' origin breaker (zero means Health).
	Health core.EndpointHealthConfig
	// Edge tunes each edge's config after the defaults (TTL and
	// MaxStale one hour, EdgeRetry, no poller until Start) are set.
	Edge func(*cdn.EdgeConfig)
}

// Links are one edge's kill switches.
type Links struct {
	Up, Push, In faultnet.Crash
}

// A Tier is one booted topology. Close it when done.
type Tier struct {
	opts Options
	dir  string

	// Mirror is the standby→primary link.
	Mirror faultnet.Crash
	// StandbyOrigin is nil without Options.Standby.
	StandbyOrigin *cdn.Origin

	links map[string]*Links

	mu      sync.Mutex
	primary *cdn.Origin
	edges   map[string]*cdn.Edge
	dead    map[string]bool // killed and not rebooted: already closed
	clients []io.Closer
}

// New boots the topology opts describes.
func New(opts Options) (*Tier, error) {
	t := &Tier{
		opts:  opts,
		links: map[string]*Links{},
		edges: map[string]*cdn.Edge{},
		dead:  map[string]bool{},
	}
	if opts.Snapshots || opts.Durable || opts.Standby {
		dir, err := os.MkdirTemp("", "sww-tier-")
		if err != nil {
			return nil, err
		}
		t.dir = dir
	}
	if err := t.boot(); err != nil {
		t.Close()
		return nil, err
	}
	return t, nil
}

func (t *Tier) boot() error {
	if err := t.RestartPrimary(); err != nil {
		return err
	}
	if t.opts.Standby {
		o, err := newOrigin(filepath.Join(t.dir, "standby"), true)
		if err != nil {
			return err
		}
		t.StandbyOrigin = o
		o.Follow(t.link(&t.Mirror, t.servePrimary), "", standbyPoll)
	}
	for _, name := range t.opts.Edges {
		t.links[name] = &Links{}
	}
	for _, name := range t.opts.Edges {
		t.RebootEdge(name)
	}
	return nil
}

// newOrigin builds one origin process over the corpus; dir "" keeps
// its log in memory.
func newOrigin(dir string, standby bool) (*cdn.Origin, error) {
	srv, err := core.NewServer(imagegen.SD3Medium, textgen.DeepSeek8)
	if err != nil {
		return nil, err
	}
	for i := 0; i < Pages; i++ {
		srv.AddPage(workload.CDNPage(i))
	}
	return cdn.NewOriginWithConfig(srv, cdn.OriginConfig{LogDir: dir, EpochDir: dir, Standby: standby})
}

// link is the one dial constructor: a pipe served by serve, behind c.
func (t *Tier) link(c *faultnet.Crash, serve func(net.Conn)) core.DialFunc {
	return c.Wrap(func() (net.Conn, error) {
		cEnd, sEnd := net.Pipe()
		serve(sEnd)
		return cEnd, nil
	})
}

// servePrimary and serveEdge resolve the listener at dial time: the
// process behind an address changes across restarts.
func (t *Tier) servePrimary(c net.Conn) { t.Primary().Server().StartConn(c) }

func (t *Tier) serveEdge(name string) func(net.Conn) {
	return func(c net.Conn) { t.Edge(name).StartConn(c) }
}

// Primary returns the origin currently answering the primary address.
func (t *Tier) Primary() *cdn.Origin {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.primary
}

// Edge returns the current incarnation of one edge.
func (t *Tier) Edge(name string) *cdn.Edge {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.edges[name]
}

// Link returns one edge's kill switches.
func (t *Tier) Link(name string) *Links { return t.links[name] }

// SnapshotPath is where Options.Snapshots keeps one edge's shard.
func (t *Tier) SnapshotPath(name string) string { return filepath.Join(t.dir, name+".snap") }

// SeverOrigin makes the primary unreachable from everywhere, silently:
// established connections die and every redial hangs, the edges' polls
// and the primary's pushes to them alike.
func (t *Tier) SeverOrigin() {
	t.Mirror.Sever()
	for _, l := range t.links {
		l.Up.Sever()
		l.Push.Sever()
	}
}

// HealOrigin undoes SeverOrigin. The push link of an edge KillEdge took
// down stays dead: RebootEdge restarts it.
func (t *Tier) HealOrigin() {
	t.Mirror.Restart()
	t.mu.Lock()
	defer t.mu.Unlock()
	for name, l := range t.links {
		l.Up.Restart()
		if !t.dead[name] {
			l.Push.Restart()
		}
	}
}

// KillPrimary is the SIGKILL analogue: SeverOrigin, then the process
// releases its durable log.
func (t *Tier) KillPrimary() {
	t.SeverOrigin()
	t.Primary().Close()
}

// RestartPrimary boots a new origin process at the primary address —
// over the same durable state with Options.Durable — and heals the
// links into it.
func (t *Tier) RestartPrimary() error {
	dir := ""
	if t.opts.Durable {
		dir = filepath.Join(t.dir, "primary")
	}
	o, err := newOrigin(dir, false)
	if err != nil {
		return err
	}
	t.mu.Lock()
	t.primary = o
	t.mu.Unlock()
	t.HealOrigin()
	return nil
}

// KillEdge takes one edge off the air loudly: its listener and push
// link die with every connection through them, and the edge is closed
// (flushing its snapshot).
func (t *Tier) KillEdge(name string) error {
	l := t.links[name]
	l.In.Kill()
	l.Push.Kill()
	t.mu.Lock()
	e := t.edges[name]
	t.dead[name] = true
	t.mu.Unlock()
	return e.Close()
}

// RebootEdge builds (or, after KillEdge, rebuilds) one edge. The
// snapshot path is stable per name, so a rebooted edge finds its old
// shard.
func (t *Tier) RebootEdge(name string) *cdn.Edge {
	l := t.links[name]
	health := t.opts.Health
	if health == (core.EndpointHealthConfig{}) {
		health = Health
	}
	origins := core.NewEndpointSet(health)
	origins.Add("origin", t.link(&l.Up, t.servePrimary))
	if t.StandbyOrigin != nil {
		origins.Add("origin2", func() (net.Conn, error) {
			cEnd, sEnd := net.Pipe()
			t.StandbyOrigin.Server().StartConn(sEnd)
			return cEnd, nil
		})
	}
	cfg := cdn.EdgeConfig{
		Name:     name,
		TTL:      time.Hour,
		MaxStale: time.Hour,
		Retry:    EdgeRetry,
		Peers:    t.opts.Edges,
	}
	if t.opts.Mesh {
		cfg.PeerDials = map[string]core.DialFunc{}
		for _, peer := range t.opts.Edges {
			if peer != name {
				cfg.PeerDials[peer] = t.Dial(peer)
			}
		}
	}
	if t.opts.Snapshots {
		cfg.SnapshotPath = t.SnapshotPath(name)
	}
	if t.opts.Edge != nil {
		t.opts.Edge(&cfg)
	}
	e := cdn.NewEdge(cfg, origins)
	t.mu.Lock()
	t.edges[name] = e
	t.dead[name] = false
	t.mu.Unlock()
	l.In.Restart()
	l.Push.Restart()
	return e
}

// Subscribe registers one edge for push fan-out over its Push link,
// born at the acked watermark.
func (t *Tier) Subscribe(name string, acked uint64) {
	t.Primary().Subscribe(name, "pipe://"+name, acked, t.link(&t.links[name].Push, t.serveEdge(name)))
}

// Dial returns a dial into one edge's listener, for peers and
// terminal clients alike.
func (t *Tier) Dial(name string) core.DialFunc {
	return t.link(&t.links[name].In, t.serveEdge(name))
}

// EdgeClient builds a ring-routing terminal client over the fleet,
// closed with the tier.
func (t *Tier) EdgeClient() *cdn.EdgeClient {
	dials := map[string]core.DialFunc{}
	for _, name := range t.opts.Edges {
		dials[name] = t.Dial(name)
	}
	ec := cdn.NewEdgeClient(cdn.EdgeClientConfig{Retry: ClientRetry, Health: Health}, dials)
	t.own(ec)
	return ec
}

// Client builds a raw terminal client pinned to one edge, closed with
// the tier.
func (t *Tier) Client(name string) *core.ResilientClient {
	rc := t.newClient(name)
	t.own(rc)
	return rc
}

func (t *Tier) newClient(name string) *core.ResilientClient {
	return core.NewResilientClient(t.Dial(name), device.Workstation, nil, ClientRetry)
}

func (t *Tier) own(c io.Closer) {
	t.mu.Lock()
	t.clients = append(t.clients, c)
	t.mu.Unlock()
}

// Fetch fetches path through one edge on a fresh connection.
func (t *Tier) Fetch(ctx context.Context, name, path string) (*core.RawReply, error) {
	rc := t.newClient(name)
	defer rc.Close()
	raw, err := rc.FetchRawContext(ctx, path)
	if err != nil {
		return nil, err
	}
	return &raw, nil
}

// Stats sums the serving counters over every edge, dead ones included.
func (t *Tier) Stats() cdn.EdgeStats {
	var sum cdn.EdgeStats
	for _, name := range t.opts.Edges {
		s := t.Edge(name).Stats()
		sum.Requests += s.Requests
		sum.Hits += s.Hits
		sum.Misses += s.Misses
		sum.StaleServes += s.StaleServes
		sum.Failovers += s.Failovers
		sum.UpstreamErrors += s.UpstreamErrors
		sum.Errors += s.Errors
	}
	return sum
}

// WaitUntil polls cond until it holds, ctx ends, or 15 s pass.
func WaitUntil(ctx context.Context, what string, cond func() bool) error {
	deadline := time.Now().Add(15 * time.Second)
	for !cond() {
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("%s: %w", what, err)
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
	return nil
}

// Close stops everything New and the tier's methods started and
// removes the durable state.
func (t *Tier) Close() {
	t.mu.Lock()
	clients, primary := t.clients, t.primary
	t.clients = nil
	t.mu.Unlock()
	for _, c := range clients {
		c.Close()
	}
	for _, name := range t.opts.Edges {
		t.mu.Lock()
		e, dead := t.edges[name], t.dead[name]
		t.mu.Unlock()
		if e != nil && !dead {
			e.Close()
		}
	}
	if t.StandbyOrigin != nil {
		t.StandbyOrigin.Close()
	}
	if primary != nil {
		primary.Close()
	}
	if t.dir != "" {
		os.RemoveAll(t.dir)
	}
}
