//go:build goexperiment.synctest

package tier

import (
	"context"
	"fmt"
	"net"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"testing/synctest"
	"time"

	"sww/internal/cdn"
	"sww/internal/core"
	"sww/internal/faultnet"
	"sww/internal/telemetry"
	"sww/internal/workload"
)

// bubble runs f in a synctest bubble: every goroutine f starts reads a
// fake clock that jumps ahead whenever all of them are blocked, so the
// tier's timeouts, polls and heartbeats cost no wall time. A toolchain
// with synctest.Test switches by calling it here instead.
func bubble(t *testing.T, f func(t *testing.T)) {
	t.Helper()
	synctest.Run(func() { f(t) })
}

// TestBubbleInvalidateAndPromote converges one invalidation on a mesh
// of three edges, then loses the primary and waits for the standby to
// promote, all on virtual time.
func TestBubbleInvalidateAndPromote(t *testing.T) {
	bubble(t, func(t *testing.T) {
		start := time.Now()
		names := []string{"edge1", "edge2", "edge3"}
		tr, err := New(Options{Edges: names, Mesh: true, Standby: true})
		if err != nil {
			t.Fatal(err)
		}
		// Deferred so that a Fatal still stops every goroutine in the
		// bubble, which synctest.Run waits for.
		defer tr.Close()
		ctx := context.Background()
		for _, name := range names {
			tr.Edge(name).Start()
			tr.Subscribe(name, 0)
		}
		ec := tr.EdgeClient()
		for i := 0; i < Pages; i++ {
			if _, _, err := ec.FetchContext(ctx, workload.CDNPagePath(i)); err != nil {
				t.Fatalf("fetch %d: %v", i, err)
			}
		}
		tr.Primary().Invalidate([]string{workload.CDNPagePath(0)})
		if err := WaitUntil(ctx, "every edge at the primary's seq", func() bool {
			for _, name := range names {
				if tr.Edge(name).LastSeq() != tr.Primary().Seq() {
					return false
				}
			}
			return true
		}); err != nil {
			t.Fatal(err)
		}
		tr.KillPrimary()
		if err := WaitUntil(ctx, "standby promotion", func() bool {
			return tr.StandbyOrigin.Role() == cdn.RolePrimary
		}); err != nil {
			t.Fatal(err)
		}
		t.Logf("%v of virtual time", time.Since(start))
	})
}

// TestBubbleStandbyPromotes times on virtual time how long a standby
// that has mirrored the primary for a second takes to promote once the
// primary is killed. It promotes at 8 polls of silence, counted from
// its last feed up to a jittered poll before the kill and checked
// after each poll, and each poll of the blackholed primary runs to its
// 4-poll context: 7 to 14 polls after the kill.
func TestBubbleStandbyPromotes(t *testing.T) {
	bubble(t, func(t *testing.T) {
		tr, err := New(Options{Standby: true})
		if err != nil {
			t.Fatal(err)
		}
		defer tr.Close()
		time.Sleep(time.Second)
		if s := tr.StandbyOrigin; s.Role() != cdn.RoleStandby {
			t.Fatalf("standby is %v after mirroring for 1s, want standby", s.Role())
		}

		killed := time.Now()
		tr.KillPrimary()
		if err := WaitUntil(context.Background(), "standby promotion", func() bool {
			return tr.StandbyOrigin.Role() == cdn.RolePrimary
		}); err != nil {
			t.Fatal(err)
		}
		if took := time.Since(killed); took < 7*standbyPoll || took > 14*standbyPoll {
			t.Errorf("standby promoted %v after the kill, want 7 to 14 polls (%v to %v)",
				took, 7*standbyPoll, 14*standbyPoll)
		}
		t.Logf("promoted %v after the kill, on virtual time", time.Since(killed))
	})
}

// TestBubbleMeshDeadAndReadmit kills one mesh edge's listener and
// times on virtual time how long a peer takes to write it off and to
// take it back, at the default heartbeat: dead (off the ring) after
// its sixth failed sweep, 3 to 8 heartbeats after the kill, and
// re-admitted by the first sweep after the restart, within 2.
func TestBubbleMeshDeadAndReadmit(t *testing.T) {
	bubble(t, func(t *testing.T) {
		const heartbeat = 500 * time.Millisecond // cdn.EdgeConfig's default
		names := []string{"edge1", "edge2", "edge3"}
		tr, err := New(Options{Edges: names, Mesh: true})
		if err != nil {
			t.Fatal(err)
		}
		defer tr.Close()
		ctx := context.Background()
		for _, name := range names {
			tr.Edge(name).Start()
		}
		e := tr.Edge("edge1")

		killed := time.Now()
		tr.Link("edge3").In.Kill()
		if err := WaitUntil(ctx, "edge1 to write edge3 off", func() bool {
			s := e.Stats()
			return s.PeersDead == 1 && s.RingSize == 2
		}); err != nil {
			t.Fatal(err)
		}
		if took := time.Since(killed); took < 3*heartbeat || took > 8*heartbeat {
			t.Errorf("edge3 declared dead %v after the kill, want 3 to 8 heartbeats (%v to %v)",
				took, 3*heartbeat, 8*heartbeat)
		}

		restarted := time.Now()
		tr.Link("edge3").In.Restart()
		if err := WaitUntil(ctx, "edge1 to re-admit edge3", func() bool {
			s := e.Stats()
			return s.PeersAlive == 2 && s.RingSize == 3
		}); err != nil {
			t.Fatal(err)
		}
		if took := time.Since(restarted); took > 2*heartbeat {
			t.Errorf("edge3 re-admitted %v after the restart, want within 2 heartbeats (%v)", took, 2*heartbeat)
		}
		t.Logf("dead after %v, re-admitted after %v of virtual time", restarted.Sub(killed), time.Since(restarted))
	})
}

// TestBubblePushLossRepairedByPoll loses every push of a burst of
// invalidations to a partition and has the anti-entropy poller repair
// them within one poll interval of the heal, on virtual time. Each edge
// applies each invalidation once: the refilled entries survive the
// polls that follow and the pushes queued behind the partition, which
// reach the edge, if at all, as duplicates.
func TestBubblePushLossRepairedByPoll(t *testing.T) {
	bubble(t, func(t *testing.T) {
		const poll = 200 * time.Millisecond
		names := []string{"edge1", "edge2", "edge3"}
		tr, err := New(Options{Edges: names, Edge: func(c *cdn.EdgeConfig) { c.PollInterval = poll }})
		if err != nil {
			t.Fatal(err)
		}
		defer tr.Close()
		ctx := context.Background()
		// fetch fetches path through one edge, which must answer it
		// from its shard (hit) or pull it (miss).
		fetch := func(name, path string, hit bool) {
			t.Helper()
			before := tr.Edge(name).Stats().Hits
			raw, err := tr.Fetch(ctx, name, path)
			if err != nil || raw.Status != 200 {
				t.Fatalf("%s %s: %v, %v", name, path, raw, err)
			}
			synctest.Wait() // an edge counts a hit once its reply is out
			if got := tr.Edge(name).Stats().Hits > before; got != hit {
				t.Errorf("%s %s: hit %v, want %v", name, path, got, hit)
			}
		}
		paths := make([]string, Pages)
		for i := range paths {
			paths[i] = workload.CDNPagePath(i)
		}
		for _, name := range names {
			tr.Edge(name).Start()
			tr.Subscribe(name, 0)
			for _, p := range paths {
				fetch(name, p, false)
			}
		}

		// Nothing is in flight; then the partition, and one
		// invalidation a path, each pushed into it. SeverOrigin alone
		// cuts the pushes too.
		synctest.Wait()
		tr.SeverOrigin()
		for _, p := range paths {
			tr.Primary().Invalidate([]string{p})
		}
		head := tr.Primary().Seq()
		synctest.Wait()
		for _, name := range names {
			if got := tr.Edge(name).LastSeq(); got != 0 {
				t.Fatalf("%s at seq %d through the partition, want 0: a push got through", name, got)
			}
		}

		tr.HealOrigin()
		healed := time.Now()
		if err := WaitUntil(ctx, "every edge at the primary's head", func() bool {
			for _, name := range names {
				if tr.Edge(name).LastSeq() != head {
					return false
				}
			}
			return true
		}); err != nil {
			t.Fatal(err)
		}
		// One jittered tick (at most 1.2 intervals) and the retry
		// ladder's one backoff on the connection the partition cut.
		if took := time.Since(healed); took > poll*6/5+core.RetryBaseDelay {
			t.Errorf("repaired %v after the heal, want within one poll interval (%v)", took, poll)
		}
		t.Logf("repaired %v after the heal, on virtual time", time.Since(healed))
		for _, name := range names {
			for _, p := range paths {
				fetch(name, p, false)
			}
		}

		// The lost pushes' watchdog (2 s) fires and the pushers try
		// again, and the pollers keep polling.
		time.Sleep(3 * time.Second)
		synctest.Wait()
		for _, name := range names {
			e := tr.Edge(name)
			for _, p := range paths {
				fetch(name, p, true)
			}
			if s := e.Stats(); s.LastSeq != head || s.InvalApplied != uint64(len(paths)) {
				t.Errorf("%s: lastSeq %d, %d entries invalidated; want %d, %d (each path once)",
					name, s.LastSeq, s.InvalApplied, head, len(paths))
			}
		}
	})
}

// originTries reads how many tries of the origin an edge registered on
// reg has booked: an attempt books a failure or a success, and while
// the origin's breaker is open, every attempt first claims a probe.
func originTries(reg *telemetry.Registry) uint64 {
	var n uint64
	for _, name := range []string{"sww_endpoint_failures_total", "sww_endpoint_successes_total", "sww_endpoint_probes_total"} {
		n += reg.Counter(telemetry.WithLabel(name, "endpoint", "origin")).Load()
	}
	return n
}

// TestBubbleServeStaleWaitsOnNothing severs the origin under three
// edges holding every page past its TTL, and has each edge serve every
// page stale, three rounds over. An edge's first fetch waits out one
// upstream retry ladder, whose failures open its breaker on the
// origin; after that no fetch spends any virtual time, so none waits
// on the origin. (The breaker's probes go on in the background, on
// the revalidation each stale serve kicks off.)
func TestBubbleServeStaleWaitsOnNothing(t *testing.T) {
	bubble(t, func(t *testing.T) {
		const ttl = 40 * time.Millisecond
		names := []string{"edge1", "edge2", "edge3"}
		tr, err := New(Options{Edges: names, Edge: func(c *cdn.EdgeConfig) { c.TTL = ttl }})
		if err != nil {
			t.Fatal(err)
		}
		defer tr.Close()
		ctx := context.Background()
		for _, name := range names {
			for i := 0; i < Pages; i++ {
				if raw, err := tr.Fetch(ctx, name, workload.CDNPagePath(i)); err != nil || raw.Status != 200 {
					t.Fatalf("warming %s page %d: %v, %v", name, i, raw, err)
				}
			}
		}
		tr.SeverOrigin()
		time.Sleep(2 * ttl)

		ladder := time.Duration(EdgeRetry.MaxAttempts)*EdgeRetry.PeerTimeout + core.RetryBaseDelay
		tripped := map[string]bool{}
		for round := 0; round < 3; round++ {
			for _, name := range names {
				rc := tr.Client(name)
				for i := 0; i < Pages; i++ {
					start := time.Now()
					raw, err := rc.FetchRawContext(ctx, workload.CDNPagePath(i))
					took := time.Since(start)
					if err != nil || raw.Status != 200 || raw.StaleAge == 0 ||
						!strings.Contains(string(raw.Body), fmt.Sprintf("edge tier page %03d payload", i)) {
						t.Fatalf("round %d, %s page %d: not served stale: %v, %v", round, name, i, raw, err)
					}
					switch {
					case !tripped[name]:
						if took > ladder {
							t.Errorf("%s's first stale serve took %v, want within one retry ladder (%v)", name, took, ladder)
						}
						tripped[name] = true
					case took != 0:
						t.Errorf("round %d, %s page %d: stale serve took %v of virtual time, want 0", round, name, i, took)
					}
				}
			}
		}
	})
}

// TestBubblePeerFillWaitsOnNothing severs the origin under a mesh of
// a warm edge and a cold one, and has the cold edge fill every page
// from its peer once a fetch nobody can answer has opened its breaker
// on the origin. Each fill tries the origin 0 times and takes 0
// virtual time, and the page's next fetch is a local hit, in 0 time
// too.
func TestBubblePeerFillWaitsOnNothing(t *testing.T) {
	bubble(t, func(t *testing.T) {
		tr, err := New(Options{Edges: []string{"edge1", "edge2"}, Mesh: true})
		if err != nil {
			t.Fatal(err)
		}
		defer tr.Close()
		ctx := context.Background()
		reg1, reg2 := telemetry.NewRegistry(), telemetry.NewRegistry()
		tr.Edge("edge1").Register(reg1)
		tr.Edge("edge2").Register(reg2)
		for i := 0; i < Pages; i++ {
			if raw, err := tr.Fetch(ctx, "edge2", workload.CDNPagePath(i)); err != nil || raw.Status != 200 {
				t.Fatalf("warming edge2 page %d: %v, %v", i, raw, err)
			}
		}
		tr.SeverOrigin()
		cold := tr.Client("edge1")
		if raw, err := cold.FetchRawContext(ctx, workload.CDNPagePath(Pages)); err != nil || raw.Status != 502 {
			t.Fatalf("fetch of a page no edge holds: %v, %v; want a 502", raw, err)
		}
		if tr.Edge("edge1").Upstream().Endpoints().AnyHealthy() {
			t.Fatal("edge1's breaker on the origin did not open")
		}

		counter := func(reg *telemetry.Registry, name string) uint64 { return reg.Counter(name).Load() }
		tries := originTries(reg1)
		for i := 0; i < Pages; i++ {
			path := workload.CDNPagePath(i)
			fills, serves, hits := counter(reg1, "sww_edge_peer_fill_total"), counter(reg2, "sww_edge_peer_serves_total"), counter(reg1, "sww_edge_cache_hits_total")
			for _, fetch := range []string{"fill", "hit"} {
				start := time.Now()
				raw, err := cold.FetchRawContext(ctx, path)
				if err != nil || raw.Status != 200 || !strings.Contains(string(raw.Body), fmt.Sprintf("edge tier page %03d payload", i)) {
					t.Fatalf("page %d %s: %v, %v", i, fetch, raw, err)
				}
				if took := time.Since(start); took != 0 {
					t.Errorf("page %d %s took %v of virtual time, want 0", i, fetch, took)
				}
			}
			synctest.Wait() // an edge counts a serve once its reply is out
			if got := counter(reg1, "sww_edge_peer_fill_total") - fills; got != 1 {
				t.Errorf("page %d: edge1 booked %d peer fills, want 1", i, got)
			}
			if got := counter(reg2, "sww_edge_peer_serves_total") - serves; got != 1 {
				t.Errorf("page %d: edge2 booked %d peer serves, want 1", i, got)
			}
			if got := counter(reg1, "sww_edge_cache_hits_total") - hits; got != 1 {
				t.Errorf("page %d: edge1 booked %d hits after the fill, want 1", i, got)
			}
		}
		if got := originTries(reg1) - tries; got != 0 {
			t.Errorf("edge1 tried the origin %d times while filling from its peer, want 0", got)
		}
	})
}

// TestBubblePushNeverLost: with the poller off only a push can deliver,
// and back-to-back invalidations from two goroutines must each reach the
// edge within 100ms of virtual time, round after round. A wake-up that
// lands while the pusher is finishing a drain used to be dropped,
// leaving the entry to the next Invalidate; here both goroutines then
// wait on the edge, so the clock runs out their 100ms.
func TestBubblePushNeverLost(t *testing.T) {
	bubble(t, func(t *testing.T) {
		tr, err := New(Options{Edges: []string{"edge1"}}) // no Start: no poller
		if err != nil {
			t.Fatal(err)
		}
		defer tr.Close()
		tr.Subscribe("edge1", 0)
		o, e := tr.Primary(), tr.Edge("edge1")
		const rounds = 20000
		var wg sync.WaitGroup
		for g := range 2 {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for round := range rounds {
					// Rounds start 0–5 yields after the last was
					// delivered, so their invalidations land across the
					// whole of the pusher's drain.
					for range round % 6 {
						runtime.Gosched()
					}
					o.Invalidate([]string{"/a"})
					o.Invalidate([]string{"/b"})
					seq := o.Seq()
					// Spin first, as a busy caller would, so the rounds
					// overlap the pusher's drains; then sleep, which lets
					// the clock move once every goroutine waits.
					for spins, start := 0, time.Now(); e.LastSeq() < seq; spins++ {
						if time.Since(start) > 100*time.Millisecond {
							t.Errorf("goroutine %d, round %d: edge at %d, origin at %d after 100ms", g, round, e.LastSeq(), seq)
							return
						}
						if spins < 1000 {
							runtime.Gosched()
						} else {
							time.Sleep(time.Millisecond)
						}
					}
				}
			}()
		}
		wg.Wait()
		if got := o.Seq(); got != 4*rounds {
			t.Errorf("origin at seq %d after %d rounds of four invalidations, want %d", got, rounds, 4*rounds)
		}
	})
}

// TestBubblePushWatchdog: a push whose dial lands in a blackhole is cut
// by the pusher's watchdog (cdn's 2s pushTimeout) and counted as a push
// error within 3 timeouts; the next Invalidate redials and brings the
// edge to the head, both paths applied, within 6 timeouts of the first.
func TestBubblePushWatchdog(t *testing.T) {
	bubble(t, func(t *testing.T) {
		const pushTimeout = 2 * time.Second
		tr, err := New(Options{Edges: []string{"edge1"}}) // no Start: no poller
		if err != nil {
			t.Fatal(err)
		}
		defer tr.Close()
		o, e := tr.Primary(), tr.Edge("edge1")
		var dials atomic.Int32
		o.Subscribe("edge1", "pipe://edge1", 0, func() (net.Conn, error) {
			if dials.Add(1) == 1 {
				return faultnet.Blackhole(), nil
			}
			return tr.Dial("edge1")()
		})
		ctx := context.Background()
		start := time.Now()
		o.Invalidate([]string{"/a"})
		if err := WaitUntil(ctx, "the push into the blackhole to fail", func() bool { return o.Stats().PushErrors > 0 }); err != nil {
			t.Fatal(err)
		}
		if took := time.Since(start); took > 3*pushTimeout {
			t.Errorf("a push into a blackhole failed after %v, want within %v", took, 3*pushTimeout)
		}
		o.Invalidate([]string{"/b"})
		if err := WaitUntil(ctx, "the edge at seq 2", func() bool { return e.LastSeq() == 2 }); err != nil {
			t.Fatalf("%v (%d dials)", err, dials.Load())
		}
		if took := time.Since(start); took > 6*pushTimeout {
			t.Errorf("edge at seq 2 %v after the first push, want within %v", took, 6*pushTimeout)
		}
		if got := e.Stats().PushApplied; got != 2 {
			t.Errorf("push applied %d paths, want 2", got)
		}
		t.Logf("push error after the blackhole, edge at the head %v after the first push, on virtual time", time.Since(start))
	})
}
