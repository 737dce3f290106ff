package main

import (
	"context"
	"fmt"
	"hash/maphash"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"sww/internal/cdn"
	"sww/internal/core"
	"sww/internal/device"
	"sww/internal/genai/imagegen"
	"sww/internal/genai/textgen"
	"sww/internal/overload"
	"sww/internal/telemetry"
	"sww/internal/workload"
)

// coldLRUEntries sizes the cold workload's generated-content LRU: small
// enough that a page is long evicted before its client comes round to
// it again.
const coldLRUEntries = 32

// invalidationLog retains more entries than a run can issue, so no edge
// can fall off the log into a reset-flush.
const invalidationLog = 1 << 16

// A topology is one booted tier: the origin server, the edges in front
// of it (if the workload has any), and the closed-loop clients.
type topology struct {
	sp *spec

	srv    *core.Server
	origin *cdn.Origin
	edges  []*cdn.Edge
	fronts []*front // what clients dial: the edges' listeners, or the server's
	back   *front   // the origin's listener behind the edges; nil without edges
	route  func(path string) int

	dialer  dialer
	clients []*client
	wire    atomic.Int64 // bytes read and written on the client sockets

	paths []string
	want  []uint64 // body hash per page, captured at set-up
	hseed maphash.Seed

	churnSrc   *pageSource   // the invalidator's targets
	churnDue   chan struct{} // one token per churnEvery fetches completed; nil without churn
	convergeMu sync.Mutex
	converge   []span // timed invalidations: issue → applied by every edge

	tel *telemetry.Set // attached by a trace run
}

// boot builds the tier over loopback TCP, publishes the corpus, captures
// every page's expected body through the real path (which also fills
// the edge shards) and connects the clients.
func boot(sp *spec, seed int64) (_ *topology, err error) {
	t := &topology{sp: sp, hseed: maphash.MakeSeed(), churnSrc: invalidationSource(sp, seed)}
	defer func() {
		if err != nil {
			t.close()
		}
	}()
	if t.srv, err = core.NewServer(imagegen.SD3Medium, textgen.DeepSeek8); err != nil {
		return nil, err
	}
	if sp.cold {
		t.srv.SetArtifactCacheBytes(0)
	}
	for i := 0; i < sp.pages; i++ {
		t.srv.AddPage(workload.LoadPage(i))
		t.paths = append(t.paths, workload.LoadPagePath(i))
	}
	srvFront, err := listen()
	if err != nil {
		return nil, err
	}
	srvFront.serve(serveH2(t.srv.StartConn))
	t.fronts = []*front{srvFront}
	t.route = func(string) int { return 0 }
	if sp.churn {
		// Room for a second of tokens while the invalidator times a
		// convergence; a client never waits on it.
		t.churnDue = make(chan struct{}, 1024)
	}
	if sp.edges > 0 {
		t.back = srvFront
		t.fronts = nil
		if err := t.bootEdges(); err != nil {
			return nil, err
		}
	}

	clients := clientCount()
	for c := 0; c < clients; c++ {
		rec, err := newRecorder()
		if err != nil {
			return nil, err
		}
		cl := &client{t: t, src: newPageSource(sp, seed, c, clients), rec: rec}
		t.clients = append(t.clients, cl)
		for _, f := range t.fronts {
			cc, err := t.connect(f)
			if err != nil {
				return nil, fmt.Errorf("connecting client %d: %w", c, err)
			}
			cl.conns = append(cl.conns, cc)
		}
	}
	if err := t.capture(); err != nil {
		return nil, err
	}
	return t, nil
}

// connect opens one client connection on a counted socket.
func (t *topology) connect(f *front) (*core.Client, error) {
	nc, err := t.dialer.dial(f.addr(), &t.wire)
	if err != nil {
		return nil, err
	}
	return core.NewClientWithAbility(nc, device.Laptop, nil, t.sp.ability)
}

// bootEdges puts a cdn.Origin on the server and sp.edges cdn.Edges in
// front of it, each on its own listener, subscribed for push fan-out.
func (t *topology) bootEdges() error {
	t.origin = cdn.NewOrigin(t.srv, invalidationLog)
	names := make([]string, t.sp.edges)
	index := map[string]int{}
	for i := range names {
		names[i] = fmt.Sprintf("edge-%d", i)
		index[names[i]] = i
	}
	// The same ring the edges build for themselves (and EdgeClient
	// would): EdgeClient has no raw fetch, so the clients route with
	// cdn.Ring and fetch with core.Client.FetchRaw.
	ring := cdn.NewRing(0, names...)
	t.route = func(path string) int { return index[ring.Lookup(path)] }
	for _, name := range names {
		f, err := listen()
		if err != nil {
			return err
		}
		origins := core.NewEndpointSet(core.EndpointHealthConfig{})
		origins.Add("origin", func() (net.Conn, error) { return t.dialer.dial(t.back.addr(), nil) })
		e := cdn.NewEdge(cdn.EdgeConfig{Name: name, TTL: time.Hour, Peers: names}, origins)
		f.serve(serveH2(e.StartConn))
		t.fronts = append(t.fronts, f)
		t.edges = append(t.edges, e)
		e.Start()
		// Subscribed here rather than by advertising an address on the
		// first poll, so that the push connection, too, is the tier's.
		t.origin.Subscribe(name, "", e.LastSeq(), func() (net.Conn, error) { return t.dialer.dial(f.addr(), nil) })
	}
	return nil
}

// capture fetches every page once through client 0 and records the
// hash of its body. On the edge workloads this is also what warms the
// shards. On the cold workload it generates every page once into the
// default LRU, which is then replaced by an empty one sized to hold
// coldLRUEntries of the entries just measured.
func (t *topology) capture() error {
	t.want = make([]uint64, len(t.paths))
	cl := t.clients[0]
	ctx := context.Background()
	for page := range t.paths {
		reply, err := cl.fetch(ctx, page)
		if err != nil {
			return err
		}
		if reply.Status != 200 || reply.Mode != t.sp.mode {
			return fmt.Errorf("capturing %s: status %d mode %q", t.paths[page], reply.Status, reply.Mode)
		}
		t.want[page] = maphash.Bytes(t.hseed, reply.Body)
	}
	if t.sp.cold {
		cache := t.srv.Overload().Cache()
		entry := cache.Bytes() / int64(cache.Len())
		t.srv.SetOverload(overload.Config{CacheBytes: coldLRUEntries*entry + entry/2})
	}
	return nil
}

// check judges one reply; the empty string means correct.
func (t *topology) check(page int, reply *core.RawReply, err error) string {
	switch {
	case err != nil:
		return err.Error()
	case reply.Status != 200:
		return fmt.Sprintf("status %d", reply.Status)
	case reply.Mode != t.sp.mode:
		return fmt.Sprintf("x-sww-mode %q, want %q", reply.Mode, t.sp.mode)
	case maphash.Bytes(t.hseed, reply.Body) != t.want[page]:
		return "body differs from the one captured at set-up"
	}
	return ""
}

// close tears the tier down from the sockets up: every dialed
// connection is closed, each served connection is seen gone, and only
// then are the edges and the origin's control plane stopped — their
// Close calls reach http2 connections whose teardown has already run.
func (t *topology) close() {
	t.dialer.closeAll()
	for _, c := range t.clients {
		c.rec.close()
	}
	for _, f := range t.fronts {
		f.close()
	}
	if t.back != nil {
		t.back.close()
	}
	for _, e := range t.edges {
		e.Close()
	}
	if t.origin != nil {
		t.origin.Close()
	}
}

// A client is one closed-loop caller: one goroutine, one h2 connection
// per front, its own page sequence.
type client struct {
	t     *topology
	conns []*core.Client
	src   *pageSource

	done   atomic.Int64 // fetches completed, correct or not
	failed atomic.Int64
	rec    *recorder
	first  string // first failure: path and reason
}

func (c *client) fetch(ctx context.Context, page int) (*core.RawReply, error) {
	path := c.t.paths[page]
	return c.conns[c.t.route(path)].FetchRaw(ctx, path)
}

// loop fetches until stop is set. A fetch is timed from the instant the
// client was free to send it; samples are kept only while recording is
// set.
func (c *client) loop(stop, recording *atomic.Bool) {
	ctx := context.Background()
	for !stop.Load() {
		page := c.src.next()
		start := time.Now()
		reply, err := c.fetch(ctx, page)
		dur := time.Since(start)
		why := c.t.check(page, reply, err)
		if why != "" {
			c.failed.Add(1)
			if c.first == "" {
				c.first = c.t.paths[page] + ": " + why
			}
		}
		if recording.Load() {
			c.rec.add(start, dur, page)
		}
		if n := c.done.Add(1); c.t.churnDue != nil && n%churnEvery == 0 {
			select {
			case c.t.churnDue <- struct{}{}:
			default:
			}
		}
	}
}
