package cdn_test

// Scenario tests for the self-healing mesh: membership surfaced
// through stats, push invalidation with gap refusal, peer-fill,
// crash-safe warm restart, and the router's probe round.

import (
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"testing"
	"time"

	"sww/internal/cdn"
	"sww/internal/core"
	"sww/internal/telemetry"
	"sww/internal/tier"
	"sww/internal/workload"
)

// pushPath is the edge's push endpoint on its control surface.
const pushPath = cdn.ControlPrefix + "push"

// tripOriginBreaker blackholes the origin and burns one fetch on a
// cold path so the edge's endpoint breaker opens.
func tripOriginBreaker(ctx context.Context, t *testing.T, h *tier.Tier, edge, coldPath string) {
	t.Helper()
	h.SeverOrigin()
	if _, err := h.Fetch(ctx, edge, coldPath); err != nil {
		t.Fatalf("breaker-tripping fetch transport error: %v", err)
	}
	if h.Edge(edge).Upstream().Endpoints().AnyHealthy() {
		t.Fatal("breaker did not open after the failed pull")
	}
}

// TestEdgeMembershipStats: a dead mesh peer is declared dead by the
// sweep, removed from the placement ring, surfaced through EdgeStats
// and the telemetry gauges, and re-admitted on recovery.
func TestEdgeMembershipStats(t *testing.T) {
	names := []string{"edge1", "edge2", "edge3"}
	h := newMesh(t, names, nil)
	e := h.Edge("edge1")
	reg := telemetry.NewRegistry()
	e.Register(reg)
	ctx := context.Background()

	if s := e.Stats(); s.PeersAlive != 2 || s.RingSize != 3 {
		t.Fatalf("boot state: alive=%d ring=%d", s.PeersAlive, s.RingSize)
	}

	h.Link("edge3").In.Kill()
	for i := 0; i < cdn.DeadFailures; i++ {
		e.Membership().Tick(ctx)
	}
	s := e.Stats()
	if s.PeersAlive != 1 || s.PeersDead != 1 {
		t.Fatalf("after dead sweep: alive=%d dead=%d", s.PeersAlive, s.PeersDead)
	}
	if s.RingSize != 2 {
		t.Fatalf("dead peer still on the ring: size %d", s.RingSize)
	}
	snap := reg.Snapshot()
	if got := snap.Gauges["sww_member_dead"]; got != 1 {
		t.Errorf("sww_member_dead = %v, want 1", got)
	}
	if got := snap.Gauges["sww_edge_ring_size"]; got != 2 {
		t.Errorf("sww_edge_ring_size = %v, want 2", got)
	}
	key := telemetry.WithLabel("sww_member_peer_state", "peer", "edge3")
	if got := snap.Gauges[key]; got != float64(cdn.MemberDead) {
		t.Errorf("%s = %v, want %v", key, got, float64(cdn.MemberDead))
	}

	h.Link("edge3").In.Restart()
	e.Membership().Tick(ctx)
	s = e.Stats()
	if s.PeersAlive != 2 || s.PeersDead != 0 || s.RingSize != 3 {
		t.Fatalf("after recovery: alive=%d dead=%d ring=%d", s.PeersAlive, s.PeersDead, s.RingSize)
	}
	if got := reg.Snapshot().Gauges[key]; got != float64(cdn.MemberAlive) {
		t.Errorf("recovered %s = %v, want %v", key, got, float64(cdn.MemberAlive))
	}
}

// TestPushInvalidation: a subscribed edge receives invalidations by
// push alone (its poller never runs), acks them, and refuses a push
// that would skip sequence numbers.
func TestPushInvalidation(t *testing.T) {
	h := newMesh(t, []string{"edge1"}, nil)
	e := h.Edge("edge1")
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	path := workload.CDNPagePath(0)

	if raw, err := h.Fetch(ctx, "edge1", path); err != nil || raw.Status != 200 {
		t.Fatalf("warming fetch: %v status %d", err, raw.Status)
	}
	if e.Stats().CacheEntries == 0 {
		t.Fatal("warming fetch did not cache")
	}

	h.Subscribe("edge1", e.LastSeq())
	h.Primary().Invalidate([]string{path})

	waitFor(t, "the push to apply", func() bool { return e.LastSeq() >= h.Primary().Seq() })
	s := e.Stats()
	if s.PushApplied == 0 {
		t.Errorf("push applied counter = 0")
	}
	if s.CacheEntries != 0 {
		t.Errorf("pushed invalidation left %d entries cached", s.CacheEntries)
	}
	if ack, ok := h.Primary().SubscriberAck("edge1"); !ok || ack != h.Primary().Seq() {
		t.Errorf("subscriber ack = %d,%v want %d", ack, ok, h.Primary().Seq())
	}

	// A push claiming to continue from a future position must be
	// refused (not applied, not adopted) and acked with where we are.
	rc := h.Client("edge1")
	last := e.LastSeq()
	raw, err := rc.FetchRawContext(ctx, fmt.Sprintf("%s?since=%d&seq=%d&paths=%s",
		pushPath, last+5, last+6, "/nope"))
	if err != nil || raw.Status != 200 {
		t.Fatalf("gap push transport: %v status %d", err, raw.Status)
	}
	var ack cdn.PushAck
	if err := json.Unmarshal(raw.Body, &ack); err != nil {
		t.Fatalf("gap push ack: %v", err)
	}
	if ack.Ack != last {
		t.Errorf("gap push ack = %d, want %d", ack.Ack, last)
	}
	if e.LastSeq() != last {
		t.Errorf("gap push advanced lastSeq to %d", e.LastSeq())
	}
	if e.Stats().PushGaps != 1 {
		t.Errorf("push gap counter = %d, want 1", e.Stats().PushGaps)
	}

	// A reset push flushes and adopts the pushed head.
	if raw, err := h.Fetch(ctx, "edge1", path); err != nil || raw.Status != 200 {
		t.Fatalf("re-warming fetch: %v status %d", err, raw.Status)
	}
	if _, err := rc.FetchRawContext(ctx, fmt.Sprintf("%s?since=0&seq=%d&reset=1", pushPath, last+9)); err != nil {
		t.Fatalf("reset push: %v", err)
	}
	if e.LastSeq() != last+9 {
		t.Errorf("reset push seq = %d, want %d", e.LastSeq(), last+9)
	}
	if got := e.Stats().CacheEntries; got != 0 {
		t.Errorf("reset push left %d entries", got)
	}
}

// TestOriginRestartReset: an edge whose cursor is ahead of the
// origin's head (the origin restarted and its in-memory log re-started
// at 0) gets a reset — it flushes and re-anchors at the new head
// instead of keeping a cursor no log backs, which would suppress every
// invalidation until the new seq outgrew it.
func TestOriginRestartReset(t *testing.T) {
	h := newMesh(t, []string{"edge1"}, nil)
	e := h.Edge("edge1")
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	path := workload.CDNPagePath(0)

	if feed := h.Primary().Feed(5); !feed.Reset {
		t.Fatalf("Feed(since ahead of head) = %+v, want reset", feed)
	}

	// The restart scenario end to end: a warm edge anchored at 7 from
	// a previous origin incarnation polls the restarted origin (seq 1).
	if raw, err := h.Fetch(ctx, "edge1", path); err != nil || raw.Status != 200 {
		t.Fatalf("warming fetch: %v status %d", err, raw.Status)
	}
	e.SetLastSeq(7)
	h.Primary().Invalidate([]string{"/unrelated"})
	if err := e.PollOnce(ctx); err != nil {
		t.Fatalf("poll against restarted origin: %v", err)
	}
	if got := e.LastSeq(); got != h.Primary().Seq() {
		t.Errorf("edge did not re-anchor: lastSeq %d, origin seq %d", got, h.Primary().Seq())
	}
	s := e.Stats()
	if s.InvalResets != 1 {
		t.Errorf("inval resets = %d, want 1", s.InvalResets)
	}
	if s.CacheEntries != 0 {
		t.Errorf("reset left %d entries cached", s.CacheEntries)
	}

	// The origin's acked view must follow the edge back down too, or
	// push delivery would stay suppressed until seq outgrew the stale
	// watermark.
	h.Subscribe("edge1", 7)
	h.Primary().ObservePoll("edge1", "pipe://edge1", e.LastSeq())
	if ack, ok := h.Primary().SubscriberAck("edge1"); !ok || ack != e.LastSeq() {
		t.Errorf("subscriber ack = %d,%v want %d", ack, ok, e.LastSeq())
	}
}

// TestSubscribeBornCurrent: subscribing a fully current edge must not
// push it anything — before the watermark rode on Subscribe, a new
// subscriber was born at acked=0 and the racing push loop could
// deliver the whole retained log, or a reset (flushing the warm shard)
// once the log had truncated.
func TestSubscribeBornCurrent(t *testing.T) {
	h := newMesh(t, []string{"edge1"}, nil)
	e := h.Edge("edge1")
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	path := workload.CDNPagePath(0)

	// Truncate the log (floor > 0) so a push loop starting from
	// acked=0 would deliver reset=true.
	for i := 0; i < cdn.DefaultInvalidationLog+10; i++ {
		h.Primary().Invalidate([]string{"/churn"})
	}
	if raw, err := h.Fetch(ctx, "edge1", path); err != nil || raw.Status != 200 {
		t.Fatalf("warming fetch: %v status %d", err, raw.Status)
	}
	e.SetLastSeq(h.Primary().Seq()) // the edge is current

	h.Subscribe("edge1", e.LastSeq())
	time.Sleep(100 * time.Millisecond) // let any racing push loop run
	if got := h.Primary().Stats().Pushes; got != 0 {
		t.Errorf("subscribing a current edge attempted %d pushes", got)
	}
	s := e.Stats()
	if s.InvalResets != 0 {
		t.Errorf("subscription flushed a current edge: %d resets", s.InvalResets)
	}
	if s.CacheEntries == 0 {
		t.Error("warm entry lost after subscribing")
	}
	if ack, ok := h.Primary().SubscriberAck("edge1"); !ok || ack != e.LastSeq() {
		t.Errorf("subscriber ack = %d,%v want %d", ack, ok, e.LastSeq())
	}
}

// TestPushOverlapSkipped: a push whose Since is behind the edge's
// position (the origin's acked view lags a poll) is not re-applied —
// re-invalidating the overlap would drop entries legitimately
// re-cached since — and the ack tells the origin where to resume.
func TestPushOverlapSkipped(t *testing.T) {
	h := newMesh(t, []string{"edge1"}, nil)
	e := h.Edge("edge1")
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	path := workload.CDNPagePath(0)

	rc := h.Client("edge1")
	push := func(since, seq uint64, paths string) cdn.PushAck {
		t.Helper()
		url := fmt.Sprintf("%s?since=%d&seq=%d&paths=%s", pushPath, since, seq, paths)
		raw, err := rc.FetchRawContext(ctx, url)
		if err != nil || raw.Status != 200 {
			t.Fatalf("push transport: %v status %d", err, raw.Status)
		}
		var ack cdn.PushAck
		if err := json.Unmarshal(raw.Body, &ack); err != nil {
			t.Fatalf("push ack: %v", err)
		}
		return ack
	}

	// Bring the edge to seq 2, then re-cache path — the entry the
	// overlapping push must not drop.
	if ack := push(0, 2, "/churn"); ack.Ack != 2 {
		t.Fatalf("aligned push ack = %d, want 2", ack.Ack)
	}
	if raw, err := h.Fetch(ctx, "edge1", path); err != nil || raw.Status != 200 {
		t.Fatalf("re-caching fetch: %v status %d", err, raw.Status)
	}

	// Overlapping push: covers (1, 3] while we stand at 2, naming the
	// re-cached path. Must be skipped, acked with 2.
	if ack := push(1, 3, path); ack.Ack != 2 {
		t.Errorf("overlap push ack = %d, want 2", ack.Ack)
	}
	s := e.Stats()
	if s.PushOverlaps != 1 {
		t.Errorf("push overlap counter = %d, want 1", s.PushOverlaps)
	}
	if e.LastSeq() != 2 {
		t.Errorf("overlap push moved lastSeq to %d", e.LastSeq())
	}
	if s.CacheEntries == 0 {
		t.Error("overlap push dropped the re-cached entry")
	}

	// The resumed, exactly-aligned push applies.
	if ack := push(2, 3, path); ack.Ack != 3 {
		t.Errorf("resumed push ack = %d, want 3", ack.Ack)
	}
	if got := e.Stats().CacheEntries; got != 0 {
		t.Errorf("resumed push left %d entries", got)
	}
}

// TestPeerFill: with the origin breaker open, a cold edge answers a
// miss from the ring-successor peer's warm shard, caches the fill,
// and serves the next request locally.
func TestPeerFill(t *testing.T) {
	h := newMesh(t, []string{"edge1", "edge2"}, nil)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	path := workload.CDNPagePath(2)
	cold := workload.CDNPagePath(3)

	// Warm only edge2, then write the origin off on edge1.
	if raw, err := h.Fetch(ctx, "edge2", path); err != nil || raw.Status != 200 {
		t.Fatalf("warming edge2: %v status %d", err, raw.Status)
	}
	tripOriginBreaker(ctx, t, h, "edge1", cold)

	raw, err := h.Fetch(ctx, "edge1", path)
	if err != nil {
		t.Fatalf("peer-fill fetch: %v", err)
	}
	if raw.Status != 200 {
		t.Fatalf("peer-fill status %d", raw.Status)
	}
	if !strings.Contains(string(raw.Body), "edge tier page 002") {
		t.Error("peer-fill returned wrong content")
	}
	if s := h.Edge("edge1").Stats(); s.PeerFills != 1 {
		t.Errorf("edge1 peer fills = %d, want 1", s.PeerFills)
	}
	if s := h.Edge("edge2").Stats(); s.PeerServes != 1 {
		t.Errorf("edge2 peer serves = %d, want 1", s.PeerServes)
	}

	// The fill joined edge1's shard: the next request is a local hit.
	before := h.Edge("edge1").Stats().Hits
	if raw, err := h.Fetch(ctx, "edge1", path); err != nil || raw.Status != 200 {
		t.Fatalf("post-fill fetch: %v status %d", err, raw.Status)
	}
	if got := h.Edge("edge1").Stats().Hits; got != before+1 {
		t.Errorf("post-fill hits = %d, want %d", got, before+1)
	}

	// A mesh-wide cold key must not recurse: edge2 is also missing
	// it, answers "cold" to the fill probe, and edge1 (cacheless)
	// reports upstream failure — but edge2 must not pull the origin.
	misses2 := h.Edge("edge2").Stats().Misses
	raw, err = h.Fetch(ctx, "edge1", workload.CDNPagePath(4))
	if err != nil {
		t.Fatalf("cold fetch transport: %v", err)
	}
	if raw.Status == 200 {
		t.Fatalf("mesh-wide cold key served %d from nowhere", raw.Status)
	}
	if got := h.Edge("edge2").Stats().Misses; got != misses2 {
		t.Error("peer-fill recursed into an origin pull on the peer")
	}
}

// TestPeerFillPreservesStaleness: a stale entry filled from a peer
// keeps its age — the receiving edge re-serves it as stale, not as
// fresh content.
func TestPeerFillPreservesStaleness(t *testing.T) {
	h := newMesh(t, []string{"edge1", "edge2"}, func(c *cdn.EdgeConfig) {
		c.TTL = 20 * time.Millisecond
		c.MaxStale = time.Hour
	})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	path := workload.CDNPagePath(5)

	if raw, err := h.Fetch(ctx, "edge2", path); err != nil || raw.Status != 200 {
		t.Fatalf("warming edge2: %v status %d", err, raw.Status)
	}
	tripOriginBreaker(ctx, t, h, "edge1", workload.CDNPagePath(6))
	time.Sleep(40 * time.Millisecond) // let edge2's entry go stale

	raw, err := h.Fetch(ctx, "edge1", path)
	if err != nil || raw.Status != 200 {
		t.Fatalf("stale peer-fill: %v status %d", err, raw.Status)
	}
	if raw.StaleAge == 0 {
		t.Error("peer-filled stale entry lost its stale-age stamp")
	}

	// And the locally cached copy stays stale-stamped too.
	raw, err = h.Fetch(ctx, "edge1", path)
	if err != nil || raw.Status != 200 {
		t.Fatalf("post-fill stale fetch: %v status %d", err, raw.Status)
	}
	if raw.StaleAge == 0 {
		t.Error("re-serve of a peer-filled stale entry claims freshness")
	}
}

// TestSnapshotWarmRestart: an edge restarted from its snapshot serves
// its old shard warm (zero origin pulls), and its first poll
// reconciles invalidations issued while it was down.
func TestSnapshotWarmRestart(t *testing.T) {
	h := boot(t, tier.Options{Edges: []string{"edge1"}, Snapshots: true})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	const warmPages = 4
	for i := 0; i < warmPages; i++ {
		if raw, err := h.Fetch(ctx, "edge1", workload.CDNPagePath(i)); err != nil || raw.Status != 200 {
			t.Fatalf("warming %d: %v status %d", i, err, raw.Status)
		}
	}
	// First incarnation dies; Close flushes the snapshot.
	if err := h.KillEdge("edge1"); err != nil {
		t.Fatalf("close: %v", err)
	}
	// While it is down, the origin unpublishes one of its pages.
	h.Primary().Invalidate([]string{workload.CDNPagePath(0)})

	// Second incarnation, same snapshot.
	e2 := h.RebootEdge("edge1")

	s := e2.Stats()
	if s.SnapshotLoaded != warmPages {
		t.Fatalf("restored %d entries, want %d", s.SnapshotLoaded, warmPages)
	}
	// Warm serve with no origin pull.
	for i := 1; i < warmPages; i++ {
		raw, err := h.Fetch(ctx, "edge1", workload.CDNPagePath(i))
		if err != nil || raw.Status != 200 {
			t.Fatalf("warm restart fetch %d: %v status %d", i, err, raw.Status)
		}
	}
	s = e2.Stats()
	if s.Misses != 0 {
		t.Errorf("warm restart pulled the origin %d times", s.Misses)
	}
	if s.Hits != warmPages-1 {
		t.Errorf("warm restart hits = %d, want %d", s.Hits, warmPages-1)
	}

	// Reconcile: the first poll applies the invalidation issued while
	// down, so the unpublished page is not served from the snapshot.
	if err := e2.PollOnce(ctx); err != nil {
		t.Fatalf("reconcile poll: %v", err)
	}
	if e2.LastSeq() != h.Primary().Seq() {
		t.Errorf("reconciled seq = %d, want %d", e2.LastSeq(), h.Primary().Seq())
	}
	if got := e2.Stats().InvalApplied; got == 0 {
		t.Error("reconcile applied no invalidations")
	}
	if got := e2.Stats().CacheEntries; got != warmPages-1 {
		t.Errorf("after reconcile: %d entries, want %d", got, warmPages-1)
	}
}

// TestSnapshotRejectsForeign: a snapshot written by a different edge
// is ignored — warm restart must never adopt another shard's view.
func TestSnapshotRejectsForeign(t *testing.T) {
	h := boot(t, tier.Options{Edges: []string{"edge1"}, Snapshots: true})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if raw, err := h.Fetch(ctx, "edge1", workload.CDNPagePath(0)); err != nil || raw.Status != 200 {
		t.Fatalf("warming: %v status %d", err, raw.Status)
	}
	if err := h.Edge("edge1").SaveSnapshot(); err != nil {
		t.Fatalf("save: %v", err)
	}

	other := cdn.NewEdge(cdn.EdgeConfig{Name: "edge9", TTL: time.Hour, SnapshotPath: h.SnapshotPath("edge1")},
		core.NewEndpointSet(tier.Health))
	defer other.Close()
	if s := other.Stats(); s.SnapshotLoaded != 0 || s.CacheEntries != 0 {
		t.Fatalf("edge9 adopted edge1's snapshot: loaded=%d entries=%d", s.SnapshotLoaded, s.CacheEntries)
	}
}

// TestEdgeClientProbePeers: one probe round finds a killed edge dead
// and takes it off the router's ring before any fetch is routed, as
// sww-client -probe-peers does.
func TestEdgeClientProbePeers(t *testing.T) {
	h := newMesh(t, []string{"edge1", "edge2"}, nil)
	ec := h.EdgeClient()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	h.Link("edge2").In.Kill()
	states := ec.ProbePeers(ctx)
	if states["edge1"] != cdn.MemberAlive || states["edge2"] != cdn.MemberDead || len(states) != 2 {
		t.Fatalf("probe round states = %v, want edge1 alive and edge2 dead", states)
	}
	if ec.Ring().Len() != 1 {
		t.Fatalf("dead edge2 still on the router ring (size %d)", ec.Ring().Len())
	}
	// Every path now routes to edge1 without burning a failover try.
	path := workload.CDNPagePath(1)
	if owner := ec.Ring().Lookup(path); owner != "edge1" {
		t.Fatalf("lookup after the round = %q", owner)
	}
	if _, served, err := ec.FetchContext(ctx, path); err != nil || served != "edge1" {
		t.Fatalf("fetch after the round: served by %q, %v", served, err)
	}
}
