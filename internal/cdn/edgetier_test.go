package cdn_test

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"sww/internal/cdn"
	"sww/internal/core"
	"sww/internal/device"
	"sww/internal/genai/imagegen"
	"sww/internal/genai/textgen"
	"sww/internal/http2"
	"sww/internal/tier"
	"sww/internal/workload"
)

func newProc(t *testing.T) *core.PageProcessor {
	t.Helper()
	proc, err := core.NewPageProcessor(device.Laptop, imagegen.SD3Medium, textgen.DeepSeek8)
	if err != nil {
		t.Fatal(err)
	}
	return proc
}

// boot boots one tier for the test and closes it with the test.
func boot(t *testing.T, opts tier.Options) *tier.Tier {
	t.Helper()
	h, err := tier.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(h.Close)
	return h
}

// newTier boots a placement-only fleet tuned for chaos: entries expire
// after 25ms and the poller ticks every 15ms unless mod says otherwise.
func newTier(t *testing.T, names []string, mod func(*cdn.EdgeConfig)) *tier.Tier {
	t.Helper()
	return boot(t, tier.Options{Edges: names, Edge: func(c *cdn.EdgeConfig) {
		c.TTL = 25 * time.Millisecond
		c.PollInterval = 15 * time.Millisecond
		if mod != nil {
			mod(c)
		}
	}})
}

// newMesh boots a fleet with the edge-to-edge mesh wired: every edge
// can dial every other (heartbeats, peer-fill).
func newMesh(t *testing.T, names []string, mod func(*cdn.EdgeConfig)) *tier.Tier {
	t.Helper()
	return boot(t, tier.Options{Edges: names, Mesh: true, Edge: mod})
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	if err := tier.WaitUntil(context.Background(), what, cond); err != nil {
		t.Fatal(err)
	}
}

// TestEdgeTierServes: terminal clients fetch through the ring-routed
// fleet; every page arrives with the origin's content, requests land
// on their ring owner, and a second round is served from edge caches
// without touching the origin again.
func TestEdgeTierServes(t *testing.T) {
	names := []string{"edge1", "edge2", "edge3"}
	h := newTier(t, names, func(c *cdn.EdgeConfig) { c.TTL = time.Hour })
	ec := h.EdgeClient()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	for i := 0; i < tier.Pages; i++ {
		path := workload.CDNPagePath(i)
		res, served, err := ec.FetchContext(ctx, path)
		if err != nil {
			t.Fatalf("fetch %s: %v", path, err)
		}
		if want := ec.Ring().Lookup(path); served != want {
			t.Errorf("%s served by %s, ring owner %s", path, served, want)
		}
		if !strings.Contains(res.HTML, fmt.Sprintf("edge tier page %03d payload", i)) {
			t.Errorf("%s: wrong content through the edge", path)
		}
	}
	first := h.Stats()
	if first.Misses != tier.Pages {
		t.Errorf("first round misses = %d, want %d", first.Misses, tier.Pages)
	}

	for i := 0; i < tier.Pages; i++ {
		if _, _, err := ec.FetchContext(ctx, workload.CDNPagePath(i)); err != nil {
			t.Fatalf("second round fetch: %v", err)
		}
	}
	// An edge counts a hit after its reply has gone out, so the last
	// reply can reach the client before its hit is counted.
	waitFor(t, "the second round's hits", func() bool { return h.Stats().Hits-first.Hits >= tier.Pages })
	second := h.Stats()
	if hits := second.Hits - first.Hits; hits != tier.Pages {
		t.Errorf("second round hits = %d, want %d", hits, tier.Pages)
	}
	if second.Misses != first.Misses {
		t.Errorf("second round pulled the origin again (%d → %d misses)", first.Misses, second.Misses)
	}
}

// TestEdgeTierAbilityKeying: the same path serves prompt bytes to a
// generative client and rendered bytes to a traditional one through
// the same edge — the cache must key on ability, not just path.
func TestEdgeTierAbilityKeying(t *testing.T) {
	// The patient upstream policy: LoadPage renders server-side for
	// the traditional client, which overruns the chaos tests' tight
	// 40ms attempts on slow (-race) runners.
	h := newTier(t, []string{"edge1"}, func(c *cdn.EdgeConfig) {
		c.TTL = time.Hour
		c.Retry = tier.ClientRetry
	})
	h.Primary().Server().AddPage(workload.LoadPage(0))
	path := workload.LoadPagePath(0)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	dial := h.Dial("edge1")
	// Traditional client first: the edge must pull and cache the
	// rendered form.
	trad := core.NewResilientClient(dial, device.Laptop, nil, tier.ClientRetry)
	defer trad.Close()
	tres, err := trad.FetchContext(ctx, path)
	if err != nil {
		t.Fatalf("traditional fetch: %v", err)
	}
	if tres.Mode != core.ModeTraditional {
		t.Fatalf("traditional client got mode %q", tres.Mode)
	}

	// Generative client next: same path, but it must NOT receive the
	// cached rendered bytes — ability keying forces a second pull that
	// returns the prompt form.
	proc := newProc(t)
	gen := core.NewResilientClient(dial, device.Laptop, proc, tier.ClientRetry)
	defer gen.Close()
	gres, err := gen.FetchContext(ctx, path)
	if err != nil {
		t.Fatalf("generative fetch: %v", err)
	}
	if gres.Mode != core.ModeGenerative {
		t.Fatalf("generative client got mode %q through the edge cache", gres.Mode)
	}
	if s := h.Edge("edge1").Stats(); s.Misses < 2 {
		t.Errorf("misses = %d, want one per ability", s.Misses)
	}
}

// TestEdgeTierStaleServe: with the origin blackholed, warm entries
// keep being served past their TTL (stamped stale), cold paths fail,
// and after the origin heals the edge goes back to fresh pulls.
func TestEdgeTierStaleServe(t *testing.T) {
	h := newTier(t, []string{"edge1"}, nil)
	ec := h.EdgeClient()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	warm := workload.CDNPagePath(0)
	cold := workload.CDNPagePath(1)

	if _, _, err := ec.FetchContext(ctx, warm); err != nil {
		t.Fatalf("warming fetch: %v", err)
	}

	h.SeverOrigin()
	time.Sleep(40 * time.Millisecond) // let the warm entry expire

	res, _, err := ec.FetchContext(ctx, warm)
	if err != nil {
		t.Fatalf("stale fetch during blackhole: %v", err)
	}
	if !strings.Contains(res.HTML, "edge tier page 000") {
		t.Error("stale serve returned wrong content")
	}
	s := h.Edge("edge1").Stats()
	if s.StaleServes == 0 {
		t.Error("no stale serves counted during origin blackhole")
	}
	if s.UpstreamErrors == 0 {
		t.Error("no upstream errors counted during origin blackhole")
	}
	if _, _, err := ec.FetchContext(ctx, cold); err == nil {
		t.Error("cold path served during origin blackhole — from where?")
	}

	h.HealOrigin()
	// The origin endpoint breaker needs its cooldown before a probe;
	// with the breaker open the 502 path kicks a background
	// revalidation, whose success flips the endpoint healthy (and may
	// itself store the page — so the success below can be a hit).
	waitFor(t, "the edge to recover after the origin healed", func() bool {
		_, _, err := ec.FetchContext(ctx, cold)
		return err == nil
	})
	// A never-seen path must now take the synchronous pull path again.
	if _, _, err := ec.FetchContext(ctx, workload.CDNPagePath(2)); err != nil {
		t.Fatalf("cold fetch after heal: %v", err)
	}
	after := h.Edge("edge1").Stats()
	if after.Misses <= s.Misses {
		t.Error("no fresh origin pull after heal")
	}
}

// TestEdgeTierInvalidation: an unpublish at the origin reaches the
// edge through the poller and the edge stops serving the content.
func TestEdgeTierInvalidation(t *testing.T) {
	h := newTier(t, []string{"edge1"}, func(c *cdn.EdgeConfig) { c.TTL = time.Hour })
	h.Edge("edge1").Start()
	ec := h.EdgeClient()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	path := workload.CDNPagePath(2)

	if _, _, err := ec.FetchContext(ctx, path); err != nil {
		t.Fatalf("warming fetch: %v", err)
	}
	h.Primary().Server().RemovePage(path)
	if h.Primary().Seq() == 0 {
		t.Fatal("RemovePage did not append to the invalidation log")
	}

	waitFor(t, "the edge to catch up", func() bool {
		return h.Edge("edge1").LastSeq() >= h.Primary().Seq()
	})
	if s := h.Edge("edge1").Stats(); s.InvalApplied == 0 {
		t.Error("invalidation reached the edge but removed nothing")
	}
	// The edge must now miss and surface the origin's 404 rather than
	// serve the unpublished page from cache.
	if _, _, err := ec.FetchContext(ctx, path); err == nil {
		t.Error("unpublished page still served after invalidation")
	}
}

// TestEdgeTierPartitionReconcile: an edge partitioned from the origin
// keeps serving its warm copy (bounded staleness is the designed
// hazard window), and on reconnect its poller resumes from the last
// applied sequence — the invalidation issued mid-partition lands and
// the unpublished page stops being served.
func TestEdgeTierPartitionReconcile(t *testing.T) {
	h := newTier(t, []string{"edge1"}, nil)
	h.Edge("edge1").Start()
	ec := h.EdgeClient()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	path := workload.CDNPagePath(3)

	if _, _, err := ec.FetchContext(ctx, path); err != nil {
		t.Fatalf("warming fetch: %v", err)
	}
	h.Link("edge1").Up.Sever()
	h.Primary().Server().RemovePage(path) // unpublished while the edge cannot hear

	time.Sleep(60 * time.Millisecond) // past TTL, poller now failing
	if _, _, err := ec.FetchContext(ctx, path); err != nil {
		t.Fatalf("partitioned edge dropped its warm copy: %v", err)
	}
	if s := h.Edge("edge1").Stats(); s.PollErrors == 0 {
		t.Error("partitioned poller reported no errors")
	}

	h.Link("edge1").Up.Restart()
	waitFor(t, "the reconcile", func() bool {
		return h.Edge("edge1").LastSeq() >= h.Primary().Seq()
	})
	if _, _, err := ec.FetchContext(ctx, path); err == nil {
		t.Error("unpublished page still served after reconcile")
	}
}

// TestEdgeTierFeedReset: an edge that fell further behind than the
// origin's invalidation log reaches is told to reset, and flushes its
// whole shard rather than guess what it missed.
func TestEdgeTierFeedReset(t *testing.T) {
	h := newTier(t, []string{"edge1"}, func(c *cdn.EdgeConfig) { c.TTL = time.Hour })
	e, origin := h.Edge("edge1"), h.Primary()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if _, err := h.Fetch(ctx, "edge1", workload.CDNPagePath(0)); err != nil {
		t.Fatalf("warming fetch: %v", err)
	}
	if e.Stats().CacheEntries == 0 {
		t.Fatal("nothing cached")
	}

	// One invalidation more than the log retains truncates past the
	// edge's position (lastSeq still 0).
	for i := 0; i <= cdn.DefaultInvalidationLog; i++ {
		origin.Invalidate([]string{"/churn"})
	}
	if err := e.PollOnce(ctx); err != nil {
		t.Fatalf("poll: %v", err)
	}
	s := e.Stats()
	if s.InvalResets != 1 {
		t.Errorf("resets = %d, want 1", s.InvalResets)
	}
	if s.CacheEntries != 0 {
		t.Errorf("cache entries after reset = %d, want 0", s.CacheEntries)
	}
	if s.LastSeq != origin.Seq() {
		t.Errorf("lastSeq = %d, want %d", s.LastSeq, origin.Seq())
	}
}

// TestEdgeTierFailover: killing one of three edges mid-run must not
// surface errors to terminal clients — the picker's breaker routes
// around the corpse, the survivors count the failover traffic, and
// removing the dead peer reshards the ring exactly as LookupN
// predicted.
func TestEdgeTierFailover(t *testing.T) {
	names := []string{"edge1", "edge2", "edge3"}
	h := newTier(t, names, func(c *cdn.EdgeConfig) { c.TTL = time.Hour })
	ec := h.EdgeClient()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	// Baseline round; record each path's predicted failover order.
	successor := map[string]string{}
	victim := "edge2"
	for i := 0; i < tier.Pages; i++ {
		path := workload.CDNPagePath(i)
		order := ec.Ring().LookupN(path, 3)
		if order[0] == victim {
			successor[path] = order[1]
		}
		if _, _, err := ec.FetchContext(ctx, path); err != nil {
			t.Fatalf("baseline fetch %s: %v", path, err)
		}
	}
	if len(successor) == 0 {
		t.Fatalf("%s owns no pages; enlarge the corpus", victim)
	}

	h.KillEdge(victim)

	failures := 0
	const rounds = 3
	for r := 0; r < rounds; r++ {
		for i := 0; i < tier.Pages; i++ {
			path := workload.CDNPagePath(i)
			_, served, err := ec.FetchContext(ctx, path)
			if err != nil {
				failures++
				continue
			}
			if served == victim {
				t.Fatalf("%s served by the dead edge", path)
			}
		}
	}
	total := rounds * tier.Pages
	if rate := float64(failures) / float64(total); rate >= 0.01 {
		t.Errorf("error rate with one edge dead = %.1f%% (%d/%d), want <1%%",
			rate*100, failures, total)
	}
	if h.Stats().Failovers == 0 {
		t.Error("survivors counted no failover traffic")
	}

	// Declare the edge dead: the ring reshards, and every key the
	// victim owned lands exactly on its predicted successor.
	ec.RemovePeer(victim)
	if ec.Ring().Len() != 2 {
		t.Fatalf("ring size after reshard = %d", ec.Ring().Len())
	}
	for path, want := range successor {
		if got := ec.Ring().Lookup(path); got != want {
			t.Errorf("%s resharded to %s, LookupN predicted %s", path, got, want)
		}
	}
}

// TestEdgeCountsOncePerRequest: shard hits answered on the read loop
// and shard hits the transport declines there (the narrow client's
// stream window is smaller than the body, so its requests are served
// again from a goroutine) each count once in requests, hits and
// failovers; a declined attempt counts nothing.
func TestEdgeCountsOncePerRequest(t *testing.T) {
	h := newTier(t, []string{"edge1", "edge2"}, func(c *cdn.EdgeConfig) { c.TTL = time.Hour })
	edge := h.Edge("edge1")
	dial := func(window uint32) *http2.ClientConn {
		nc, err := h.Dial("edge1")()
		if err != nil {
			t.Fatal(err)
		}
		cc, err := http2.NewClientConn(nc, http2.Config{GenAbility: http2.GenFull, InitialWindowSize: window})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { cc.Close() })
		return cc
	}
	wide, narrow := dial(0), dial(64)

	// One page edge1 owns and one it does not: every request for the
	// second is a failover.
	var own, other string
	for i := 0; i < tier.Pages; i++ {
		if p := workload.CDNPagePath(i); edge.Ring().Lookup(p) == "edge1" {
			own = p
		} else {
			other = p
		}
	}
	if own == "" || other == "" {
		t.Fatal("the ring gave one edge every page")
	}
	var requests uint64
	get := func(cc *http2.ClientConn, path, cache string) {
		t.Helper()
		requests++
		resp, err := cc.Get(path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		body, err := http2.ReadAllBody(resp)
		if err != nil || resp.Status != 200 || len(body) <= 64 {
			t.Fatalf("GET %s = %d, %d bytes, %v", path, resp.Status, len(body), err)
		}
		if got := resp.HeaderValue(core.EdgeCacheHeader); got != cache {
			t.Fatalf("GET %s: %s = %q, want %q", path, core.EdgeCacheHeader, got, cache)
		}
	}
	get(wide, own, "miss")
	get(wide, other, "miss")
	const rounds = 10
	for i := 0; i < rounds; i++ {
		get(wide, own, "hit")
		get(narrow, own, "hit")
		get(wide, other, "hit")
		get(narrow, other, "hit")
	}
	// The last reply can reach the client before the edge has counted it.
	waitFor(t, "the edge to count the last request", func() bool { return edge.Stats().Requests >= requests })
	s := edge.Stats()
	if s.Requests != requests || s.Hits != requests-2 || s.Misses != 2 || s.Failovers != 1+2*rounds {
		t.Errorf("requests %d hits %d misses %d failovers %d; want %d, %d, 2, %d",
			s.Requests, s.Hits, s.Misses, s.Failovers, requests, requests-2, 1+2*rounds)
	}
}
