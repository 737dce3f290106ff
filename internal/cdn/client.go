package cdn

// The terminal-client side of the edge tier: an EdgeClient routes
// each path to the edge the ring places it on, and fails over down
// the ring's successor list when that edge is dead. Each edge is
// backed by its own ResilientClient wrapping a one-endpoint health
// set, so transport outcomes feed a per-edge breaker the router can
// consult without burning a connection attempt: a dead edge is
// skipped outright until its probe cooldown passes, which is what
// keeps the error rate near zero when a replica is killed mid-run.

import (
	"context"
	"fmt"
	"net"
	"strings"
	"sync"
	"time"

	"sww/internal/core"
	"sww/internal/device"
	"sww/internal/telemetry"
)

// EdgeClientConfig shapes the router and its per-edge clients.
type EdgeClientConfig struct {
	// Device and Proc configure local generation, as on a plain
	// core.Client. Proc nil means an always-traditional client.
	Device device.Profile
	Proc   *core.PageProcessor

	// Retry shapes each per-edge retry ladder. Keep MaxAttempts low:
	// failing over to the next edge beats hammering a dead one.
	Retry core.RetryPolicy

	// Health shapes each edge's breaker (zero value = defaults).
	Health core.EndpointHealthConfig
}

type edgePeer struct {
	name string
	ep   *core.Endpoint
	rc   *core.ResilientClient
}

// An EdgeClient fetches through an edge fleet with ring placement and
// client-side failover.
type EdgeClient struct {
	cfg   EdgeClientConfig
	ring  *Ring
	peers map[string]*edgePeer

	rerouted  telemetry.Counter // fetches served by a non-owner edge
	exhausted telemetry.Counter // fetches that failed on every edge
}

// NewEdgeClient builds a router over the named edges. Each edge's
// dial opens a transport to that edge.
func NewEdgeClient(cfg EdgeClientConfig, dials map[string]core.DialFunc) *EdgeClient {
	c := &EdgeClient{
		cfg:   cfg,
		ring:  NewRing(0),
		peers: map[string]*edgePeer{},
	}
	for name, dial := range dials {
		c.AddPeer(name, dial)
	}
	return c
}

// ParsePeers reads a fleet spec, the -peers flag of both binaries: a
// comma-separated list whose entries are "name" (a ring member only)
// or "name=addr" (a ring member that is also dialed). Spaces around
// entries, names and addresses are trimmed and empty entries skipped,
// so every process given the same fleet builds the same ring. names
// lists every member in spec order; dials holds a TCP dial for each
// addressed member except self. A spec with no entries is the
// one-member fleet of self.
func ParsePeers(spec, self string) (names []string, dials map[string]core.DialFunc) {
	dials = map[string]core.DialFunc{}
	for _, entry := range strings.Split(spec, ",") {
		if strings.TrimSpace(entry) == "" {
			continue
		}
		name, addr, hasAddr := strings.Cut(entry, "=")
		name, addr = strings.TrimSpace(name), strings.TrimSpace(addr)
		names = append(names, name)
		if hasAddr && name != self {
			dials[name] = func() (net.Conn, error) {
				return net.DialTimeout("tcp", addr, 5*time.Second)
			}
		}
	}
	if len(names) == 0 {
		names = []string{self}
	}
	return names, dials
}

// AddPeer registers one more edge on the ring with its own transport
// and breaker. Not safe to call concurrently with fetches; build the
// fleet before serving (the breakers handle liveness churn after that).
func (c *EdgeClient) AddPeer(name string, dial core.DialFunc) {
	set := core.NewEndpointSet(c.cfg.Health)
	ep := set.Add(name, dial)
	rc := core.NewResilientClientEndpoints(set, c.cfg.Device, c.cfg.Proc, c.cfg.Retry)
	c.peers[name] = &edgePeer{name: name, ep: ep, rc: rc}
	c.ring.Add(name)
}

// Ring returns the client's placement ring.
func (c *EdgeClient) Ring() *Ring { return c.ring }

// RemovePeer drops an edge from the ring (its keys reshard onto the
// survivors) and closes its connection. Use when an edge is known
// dead rather than transiently failing — transient failures are
// handled by the breaker without ring surgery.
func (c *EdgeClient) RemovePeer(name string) {
	p, ok := c.peers[name]
	if !ok {
		return
	}
	delete(c.peers, name)
	c.ring.Remove(name)
	p.rc.Close()
}

// ProbePeers is one synchronous membership round for a client that
// lives for a fetch or two: it health-probes every edge once,
// concurrently, through the edge's own client, and removes each edge
// that does not answer with RemovePeer, so routing spends no fetch on
// an owner the probe found dead. It reports each edge as alive or
// dead. Not safe to call concurrently with fetches.
func (c *EdgeClient) ProbePeers(ctx context.Context) map[string]MemberState {
	states := make(map[string]MemberState, len(c.peers))
	var mu sync.Mutex
	var wg sync.WaitGroup
	for name, p := range c.peers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			state := MemberAlive
			if probeHealth(ctx, p.rc) != nil {
				state = MemberDead
			}
			mu.Lock()
			states[name] = state
			mu.Unlock()
		}()
	}
	wg.Wait()
	for name, state := range states {
		if state == MemberDead {
			c.RemovePeer(name)
		}
	}
	return states
}

// FetchContext fetches path through the fleet: ring owner first, then
// its successors. Edges whose breaker is open are skipped on the
// first pass (no connection attempt wasted) and only probed on the
// second pass if every healthy candidate failed. Returns the result
// and the name of the edge that served it.
func (c *EdgeClient) FetchContext(ctx context.Context, path string) (*core.FetchResult, string, error) {
	order := c.ring.LookupN(path, c.ring.Len())
	if len(order) == 0 {
		return nil, "", fmt.Errorf("cdn: no edges configured")
	}
	var lastErr error
	tried := make(map[string]bool, len(order))
	for pass := 0; pass < 2; pass++ {
		for _, name := range order {
			p, ok := c.peers[name]
			if !ok || tried[name] {
				continue
			}
			if pass == 0 && !p.ep.Healthy() {
				continue // breaker open: skip without an attempt
			}
			tried[name] = true
			res, err := p.rc.FetchContext(ctx, path)
			if err == nil {
				if name != order[0] {
					c.rerouted.Add(1)
				}
				return res, name, nil
			}
			lastErr = err
			if ctx.Err() != nil {
				return nil, "", ctx.Err()
			}
		}
	}
	c.exhausted.Add(1)
	return nil, "", fmt.Errorf("cdn: all %d edges failed for %s: %w", len(order), path, lastErr)
}

// Fetch is FetchContext without a deadline.
func (c *EdgeClient) Fetch(path string) (*core.FetchResult, string, error) {
	return c.FetchContext(context.Background(), path)
}

// Close drops every per-edge connection.
func (c *EdgeClient) Close() error {
	var first error
	for _, p := range c.peers {
		if err := p.rc.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Register exports the router counters and every per-edge breaker.
func (c *EdgeClient) Register(reg *telemetry.Registry) {
	if reg == nil {
		return
	}
	reg.Adopt("sww_edgeclient_rerouted_total", &c.rerouted)
	reg.Adopt("sww_edgeclient_exhausted_total", &c.exhausted)
	for _, p := range c.peers {
		p.rc.Endpoints().Register(reg)
	}
}
