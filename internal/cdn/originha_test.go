package cdn_test

// Origin high-availability scenario tests: standby mirroring and
// promotion, zombie fencing on the edge side, edge failover to the
// promoted standby, reconciling across an origin restart, the retry
// budget under a poll storm, and the regression tests for edge
// shutdown goroutine leaks and concurrent push/poll convergence.

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sww/internal/cdn"
	"sww/internal/core"
	"sww/internal/faultnet"
	"sww/internal/http2"
	"sww/internal/telemetry"
	"sww/internal/tier"
	"sww/internal/workload"
)

// TestEdgeRefusesStaleEpochPush: an edge that lived through a failover
// refuses a zombie's pushes — not applied, acked with the newer epoch
// so the zombie fences itself.
func TestEdgeRefusesStaleEpochPush(t *testing.T) {
	h := newMesh(t, []string{"edge1"}, nil)
	e := h.Edge("edge1")
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	if got := e.ObserveOriginEpoch(3); got != 3 {
		t.Fatalf("first epoch observation left the edge at epoch %d, want 3", got)
	}
	rc := h.Client("edge1")
	raw, err := rc.FetchRawContext(ctx, pushPath+"?since=0&seq=5&epoch=2&paths=/stale")
	if err != nil || raw.Status != 200 {
		t.Fatalf("stale push transport: %v status %d", err, raw.Status)
	}
	var ack cdn.PushAck
	if err := json.Unmarshal(raw.Body, &ack); err != nil {
		t.Fatal(err)
	}
	if ack.Epoch != 3 {
		t.Fatalf("refusal ack epoch = %d, want 3 (tell the zombie)", ack.Epoch)
	}
	if e.LastSeq() != 0 {
		t.Fatalf("stale push applied: lastSeq %d", e.LastSeq())
	}
	if got := e.Stats().EpochFenced; got != 1 {
		t.Fatalf("epoch-fenced counter = %d, want 1", got)
	}
	// The same feed at the current epoch applies normally.
	raw, err = rc.FetchRawContext(ctx, pushPath+"?since=0&seq=5&epoch=3&reset=1")
	if err != nil || raw.Status != 200 {
		t.Fatalf("current push transport: %v status %d", err, raw.Status)
	}
	if e.LastSeq() != 5 {
		t.Fatalf("current-epoch push not applied: lastSeq %d", e.LastSeq())
	}
}

// TestStandbyMirrorsAndPromotes: the full ladder — mirror while the
// primary lives, promote past its epoch after silence, keep serving
// the continued sequence space, and fence the zombie when it returns.
func TestStandbyMirrorsAndPromotes(t *testing.T) {
	h := boot(t, tier.Options{Durable: true, Standby: true})
	primary, standby := h.Primary(), h.StandbyOrigin
	reg := telemetry.NewRegistry()
	standby.Register(reg)

	primary.Invalidate([]string{"/a"})
	primary.Invalidate([]string{"/b", "/c"})
	waitFor(t, "mirror catch-up", func() bool { return standby.Seq() == primary.Seq() })
	if got := standby.Seq(); got != 2 {
		t.Fatalf("mirrored seq = %d, want 2", got)
	}
	// The mirror batches at feed granularity, so an in-batch position
	// gets a superset of its missed paths — never a reset, never less.
	feed := standby.Feed(1)
	if feed.Reset {
		t.Fatalf("standby feed = %+v, want no reset", feed)
	}
	for _, want := range []string{"/b", "/c"} {
		found := false
		for _, got := range feed.Paths {
			found = found || got == want
		}
		if !found {
			t.Fatalf("standby feed %v missing %s", feed.Paths, want)
		}
	}

	primarySeq := primary.Seq()
	h.KillPrimary()
	waitFor(t, "promotion", func() bool { return standby.Role() == cdn.RolePrimary })
	if got := standby.Epoch(); got != 2 {
		t.Fatalf("promoted epoch = %d, want 2", got)
	}
	if got := standby.Seq(); got != primarySeq {
		t.Fatalf("promotion lost sequences: seq %d, want %d", got, primarySeq)
	}
	// The promoted origin owns the space: fresh invalidations continue
	// it, and the feed carries the new epoch.
	standby.Invalidate([]string{"/fresh"})
	if got := standby.Seq(); got != primarySeq+1 {
		t.Fatalf("post-promotion seq = %d, want %d", got, primarySeq+1)
	}
	if feed := standby.Feed(primarySeq); feed.Epoch != 2 || feed.Reset {
		t.Fatalf("post-promotion feed = %+v, want epoch 2, no reset", feed)
	}

	// The zombie returns (same dirs, so it remembers epoch 1). The
	// standby's watch loop is still probing its address; the probe's
	// epoch header fences it.
	if err := h.RestartPrimary(); err != nil {
		t.Fatal(err)
	}
	zombie := h.Primary()
	if zombie.Epoch() != 1 {
		t.Fatalf("zombie booted at epoch %d", zombie.Epoch())
	}
	waitFor(t, "zombie fenced", func() bool { return zombie.Role() == cdn.RoleFenced })
	waitFor(t, "zombie seen in metrics", func() bool {
		return reg.Counter("sww_standby_zombie_fenced_total").Load() > 0
	})
	if zombie.Seq() < primarySeq {
		t.Fatalf("zombie lost its durable log: seq %d", zombie.Seq())
	}
}

// TestEdgeFailsOverToPromotedStandby: an edge with both origins in its
// endpoint set keeps reconciling invalidations across a failover — the
// promoted standby's higher epoch is adopted (counted as a failover),
// the sequence space continues, and nothing resets.
func TestEdgeFailsOverToPromotedStandby(t *testing.T) {
	h := boot(t, tier.Options{Edges: []string{"edge1"}, Durable: true, Standby: true})
	primary, standby, e := h.Primary(), h.StandbyOrigin, h.Edge("edge1")
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	// Warm the edge and anchor it on the primary's feed.
	path := workload.CDNPagePath(0)
	if raw, err := h.Fetch(ctx, "edge1", path); err != nil || raw.Status != 200 {
		t.Fatalf("warming fetch: %v status %d", err, raw.Status)
	}
	primary.Invalidate([]string{"/other"})
	if err := e.PollOnce(ctx); err != nil {
		t.Fatal(err)
	}
	if e.OriginEpoch() != 1 || e.LastSeq() != primary.Seq() {
		t.Fatalf("anchor: epoch %d seq %d", e.OriginEpoch(), e.LastSeq())
	}
	anchored := e.LastSeq()

	// The standby must have mirrored to the head before the primary
	// dies, or the edge's first poll of it would answer with a reset.
	waitFor(t, "mirror catch-up", func() bool { return standby.Seq() == primary.Seq() })
	h.KillPrimary()
	waitFor(t, "promotion", func() bool { return standby.Role() == cdn.RolePrimary })
	standby.Invalidate([]string{path})

	// Poll until the edge has rotated onto the standby and applied the
	// post-failover invalidation. The first polls burn the primary's
	// breaker; the edge's failure ladder does the rotation.
	waitFor(t, "edge reconciled via standby", func() bool {
		e.PollOnce(ctx)
		return e.LastSeq() == standby.Seq()
	})
	s := e.Stats()
	if s.OriginEpoch != 2 {
		t.Fatalf("edge epoch = %d, want 2", s.OriginEpoch)
	}
	if s.OriginFailovers != 1 {
		t.Fatalf("edge failovers = %d, want 1", s.OriginFailovers)
	}
	if s.InvalResets != 0 {
		t.Fatalf("failover reset the edge %d times; the sequence space continued", s.InvalResets)
	}
	if s.LastSeq < anchored {
		t.Fatalf("edge seq went backwards: %d < %d", s.LastSeq, anchored)
	}
	// The invalidation actually evicted the warmed page, and the page
	// refills from the promoted standby.
	if e.Stats().CacheEntries != 0 {
		t.Fatalf("post-failover invalidation left %d entries", e.Stats().CacheEntries)
	}
	if raw, err := h.Fetch(ctx, "edge1", path); err != nil || raw.Status != 200 || raw.StaleAge != 0 {
		t.Fatalf("refetch after the failover: %v, %v", raw, err)
	}
	if s := e.Stats(); s.Misses != 2 || s.CacheEntries != 1 {
		t.Fatalf("refetch after the failover: %d misses, %d entries; want 2 and 1 (refilled)", s.Misses, s.CacheEntries)
	}
}

// TestEdgeReconcilesAcrossOriginRestart: an origin killed and
// restarted over its durable log resumes its sequence number, and a
// warm edge's next poll takes what was issued since incrementally: no
// reset, only the invalidated pages gone from its shard.
func TestEdgeReconcilesAcrossOriginRestart(t *testing.T) {
	h := boot(t, tier.Options{Edges: []string{"edge1"}, Durable: true})
	e := h.Edge("edge1")
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for i := 0; i < tier.Pages; i++ {
		if raw, err := h.Fetch(ctx, "edge1", workload.CDNPagePath(i)); err != nil || raw.Status != 200 {
			t.Fatalf("warming %d: %v status %d", i, err, raw.Status)
		}
	}
	h.Primary().Invalidate([]string{workload.CDNPagePath(0)})
	h.Primary().Invalidate([]string{workload.CDNPagePath(1)})
	if err := e.PollOnce(ctx); err != nil {
		t.Fatalf("anchor poll: %v", err)
	}
	seq := h.Primary().Seq()

	h.KillPrimary()
	if err := h.RestartPrimary(); err != nil {
		t.Fatal(err)
	}
	if got := h.Primary().Seq(); got != seq {
		t.Fatalf("restarted origin at seq %d, want %d", got, seq)
	}
	h.Primary().Invalidate([]string{workload.CDNPagePath(2)})
	if err := e.PollOnce(ctx); err != nil {
		t.Fatalf("poll after the restart: %v", err)
	}
	s := e.Stats()
	if s.InvalResets != 0 {
		t.Errorf("the restart reset the edge %d times, want 0", s.InvalResets)
	}
	if s.LastSeq != h.Primary().Seq() {
		t.Errorf("edge at seq %d, origin at %d", s.LastSeq, h.Primary().Seq())
	}
	if s.CacheEntries != tier.Pages-3 {
		t.Errorf("%d entries cached, want %d: only the three invalidated pages gone", s.CacheEntries, tier.Pages-3)
	}
}

// TestEdgeRetryBudgetCapsPollStorm: against a blackholed origin whose
// breaker never opens, an edge's polls spend at most burst + ratio ×
// polls retries beyond one try each, which is what the edge's retry
// budget allows, instead of MaxAttempts tries a poll; and the edge
// reports the budget's exhaustion.
func TestEdgeRetryBudgetCapsPollStorm(t *testing.T) {
	var dials atomic.Uint64
	origins := core.NewEndpointSet(core.EndpointHealthConfig{FailureThreshold: 1 << 20})
	origins.Add("origin", func() (net.Conn, error) {
		dials.Add(1)
		return faultnet.Blackhole(), nil
	})
	const ratio, polls = 0.2, 50
	e := cdn.NewEdge(cdn.EdgeConfig{
		Name:             "edge1",
		RetryBudgetRatio: ratio,
		Retry: core.RetryPolicy{
			MaxAttempts:    4,
			AttemptTimeout: 4 * time.Millisecond,
			BaseDelay:      time.Millisecond,
			MaxDelay:       2 * time.Millisecond,
			Seed:           17,
		},
	}, origins)
	defer e.Close()
	for i := 0; i < polls; i++ {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		err := e.PollOnce(ctx)
		cancel()
		if err == nil {
			t.Fatal("a poll through a blackhole succeeded")
		}
	}
	retries := dials.Load() - polls
	if ceiling := core.DefaultRetryBudgetBurst + ratio*polls; float64(retries) > ceiling+1 {
		t.Errorf("%d polls spent %d retries, want at most the budget's %.0f", polls, retries, ceiling)
	}
	if got := e.Stats().RetryBudgetExhausted; got == 0 {
		t.Error("the edge reported no retry budget exhaustion")
	}
}

// TestConcurrentPushPollConverge (satellite): concurrent pushes with
// overlapping ranges racing anti-entropy polls must leave every
// replica of the state — lastSeq and the shard — exactly where a
// serial application would. Run under -race.
func TestConcurrentPushPollConverge(t *testing.T) {
	h := newMesh(t, []string{"edge1"}, nil)
	e := h.Edge("edge1")
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	// Warm every page so invalidations have something to chew on.
	for i := 0; i < tier.Pages; i++ {
		if raw, err := h.Fetch(ctx, "edge1", workload.CDNPagePath(i)); err != nil || raw.Status != 200 {
			t.Fatalf("warming %d: %v status %d", i, err, raw.Status)
		}
	}

	const rounds = 40
	var wg sync.WaitGroup
	wg.Add(3)
	// Writer: the origin appends entries.
	go func() {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			h.Primary().Invalidate([]string{workload.CDNPagePath(i % tier.Pages)})
			time.Sleep(time.Millisecond)
		}
	}()
	// Pusher: replays overlapping feed windows straight at servePush —
	// the origin's push loop plus a zombie re-pushing old ranges.
	go func() {
		defer wg.Done()
		rc := h.Client("edge1")
		for i := 0; i < rounds; i++ {
			feed := h.Primary().Feed(0) // since=0: maximally overlapping
			q := fmt.Sprintf("%s?since=0&seq=%d&epoch=1&paths=%s",
				pushPath, feed.Seq, strings.Join(feed.Paths, ","))
			rc.FetchRawContext(ctx, q)
			time.Sleep(time.Millisecond)
		}
	}()
	// Poller: anti-entropy repair racing the pushes.
	go func() {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			e.PollOnce(ctx)
			time.Sleep(time.Millisecond)
		}
	}()
	wg.Wait()

	// Drain the tail: one final poll brings the edge to the head.
	if err := e.PollOnce(ctx); err != nil {
		t.Fatal(err)
	}
	if got, want := e.LastSeq(), h.Primary().Seq(); got != want {
		t.Fatalf("converged seq = %d, origin seq = %d", got, want)
	}
	s := e.Stats()
	if s.InvalResets != 0 {
		t.Fatalf("overlapping pushes forced %d resets", s.InvalResets)
	}
	// Every warmed page was invalidated at least once and the racing
	// appliers never resurrected one: the shard must be empty of them.
	for i := 0; i < tier.Pages; i++ {
		if e.Cached(workload.CDNPagePath(i), http2.GenFull) {
			t.Fatalf("page %d survived the invalidation storm", i)
		}
	}
}

// TestEdgeCloseStopsGoroutines (satellite): Start spins the poller,
// the membership sweep and the snapshot ticker; Close must take them
// all down — no goroutine leak across an edge's lifecycle.
func TestEdgeCloseStopsGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	for round := 0; round < 3; round++ {
		names := []string{"edge1", "edge2"}
		h, err := tier.New(tier.Options{Edges: names, Mesh: true, Snapshots: true, Edge: func(c *cdn.EdgeConfig) {
			c.SnapshotInterval = 5 * time.Millisecond
			c.PollInterval = 5 * time.Millisecond
			c.Heartbeat = 5 * time.Millisecond
		}})
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		for _, name := range names {
			h.Edge(name).Start()
			if raw, err := h.Fetch(ctx, name, workload.CDNPagePath(0)); err != nil || raw.Status != 200 {
				cancel()
				t.Fatalf("fetch via %s: %v status %d", name, err, raw.Status)
			}
		}
		h.Subscribe("edge1", 0)
		h.Primary().Invalidate([]string{workload.CDNPagePath(0)})
		time.Sleep(20 * time.Millisecond) // let tickers tick and pushes land
		cancel()
		for _, name := range names {
			if err := h.KillEdge(name); err != nil {
				t.Fatal(err)
			}
		}
		h.Close()
	}
	// Settle: conn goroutines unwind asynchronously after Close.
	deadline := time.Now().Add(10 * time.Second)
	for {
		runtime.GC()
		now := runtime.NumGoroutine()
		if now <= before+2 {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines: %d before, %d after 3 lifecycles\n%s", before, now, buf[:n])
		}
		time.Sleep(20 * time.Millisecond)
	}
}
