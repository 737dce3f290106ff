package cdn

// Tests that reach inside the package: the membership ladder, poll
// jitter, stores racing invalidation, live ring surgery, the durable
// invalidation log (WAL + snapshot compaction, torn tails, corrupted
// snapshots), epoch persistence, mirroring, a following standby and
// origin-side fencing.
// The scenario tests that boot a whole tier live in package cdn_test.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sww/internal/core"
	"sww/internal/device"
	"sww/internal/faultnet"
	"sww/internal/genai/imagegen"
	"sww/internal/genai/textgen"
	"sww/internal/hpack"
	"sww/internal/http2"
	"sww/internal/telemetry"
	"sww/internal/workload"
)

// meshOfOne builds edge e0 whose one mesh peer, p1, is a live edge
// behind a kill switch, and neither edge's loops running: the test
// drives the sweep by hand.
func meshOfOne(t *testing.T) (*Edge, *faultnet.Crash) {
	t.Helper()
	peer := NewEdge(EdgeConfig{Name: "p1"}, core.NewEndpointSet(core.EndpointHealthConfig{}))
	link := &faultnet.Crash{}
	dial := link.Wrap(func() (net.Conn, error) {
		cEnd, sEnd := net.Pipe()
		peer.StartConn(sEnd)
		return cEnd, nil
	})
	e := NewEdge(EdgeConfig{
		Name:      "e0",
		Peers:     []string{"e0", "p1"},
		PeerDials: map[string]core.DialFunc{"p1": dial},
	}, core.NewEndpointSet(core.EndpointHealthConfig{}))
	t.Cleanup(func() {
		e.Close()
		peer.Close()
	})
	return e, link
}

// peerFillOnce is one data-path consultation of e0's mesh, for a key
// no shard holds.
func peerFillOnce(e *Edge) {
	path := workload.CDNPagePath(0)
	e.peerFill(context.Background(), cacheKey(path, http2.GenFull), path, http2.GenFull)
}

// wantPeer checks p1's state, its run of failures, whether it is on
// e0's ring, and how many transitions the sweep has counted.
func wantPeer(t *testing.T, e *Edge, when string, state MemberState, run int, onRing bool, transitions uint64) {
	t.Helper()
	p := e.mesh.peers["p1"]
	if got := p.state(); got != state {
		t.Errorf("%s: p1 is %v, want %v", when, got, state)
	}
	if got := p.ep.Health().ConsecutiveFailures; got != run {
		t.Errorf("%s: run of %d failures, want %d", when, got, run)
	}
	if got := e.ring.Len() == 2; got != onRing {
		t.Errorf("%s: p1 on the ring = %v, want %v", when, got, onRing)
	}
	if got := e.mesh.transitions.Load(); got != transitions {
		t.Errorf("%s: %d transitions, want %d", when, got, transitions)
	}
}

// TestMembershipLadder walks one peer alive → suspect → dead on
// failed probes and back to alive on one probe success, checking the
// ring moves exactly on the dead and dead→alive transitions, once
// each.
func TestMembershipLadder(t *testing.T) {
	e, link := meshOfOne(t)
	ctx := context.Background()

	e.mesh.Tick(ctx)
	wantPeer(t, e, "healthy sweep", MemberAlive, 0, true, 0)

	link.Kill()
	for i := 1; i < suspectFailures; i++ {
		e.mesh.Tick(ctx)
	}
	wantPeer(t, e, "2 failed probes", MemberAlive, suspectFailures-1, true, 0)
	e.mesh.Tick(ctx)
	wantPeer(t, e, "3 failed probes", MemberSuspect, suspectFailures, true, 1)
	for i := suspectFailures + 1; i < deadFailures; i++ {
		e.mesh.Tick(ctx)
	}
	wantPeer(t, e, "5 failed probes", MemberSuspect, deadFailures-1, true, 1)
	e.mesh.Tick(ctx)
	wantPeer(t, e, "6 failed probes", MemberDead, deadFailures, false, 2)

	// Still dead: the sweep acts on transitions, so a peer put back by
	// someone else is not taken off again.
	e.ring.Add("p1")
	e.mesh.Tick(ctx)
	wantPeer(t, e, "a 7th failed probe", MemberDead, deadFailures+1, true, 2)
	e.ring.Remove("p1")

	link.Restart()
	e.mesh.Tick(ctx)
	wantPeer(t, e, "one probe success", MemberAlive, 0, true, 3)
	e.ring.Remove("p1")
	e.mesh.Tick(ctx)
	wantPeer(t, e, "a second healthy sweep", MemberAlive, 0, false, 3)
	if s := e.Stats(); s.PeersAlive != 1 || s.PeersSuspect != 0 || s.PeersDead != 0 {
		t.Fatalf("counts = %d/%d/%d", s.PeersAlive, s.PeersSuspect, s.PeersDead)
	}
}

// TestMembershipDataPathEvidence: peer-fill failures feed the same
// run as probes — three suspect the peer without touching the ring —
// but peer-fill asks only alive peers, so data-path failures alone
// never make a peer dead; the sweep's probes carry the run on.
func TestMembershipDataPathEvidence(t *testing.T) {
	e, link := meshOfOne(t)
	ctx := context.Background()

	link.Kill()
	for i := 0; i < suspectFailures; i++ {
		peerFillOnce(e)
	}
	wantPeer(t, e, "3 failed peer-fills", MemberSuspect, suspectFailures, true, 0)
	for i := 0; i < 10*deadFailures; i++ {
		peerFillOnce(e)
	}
	wantPeer(t, e, "peer-fills against a suspect", MemberSuspect, suspectFailures, true, 0)

	// Mixed evidence: the sweep's probes extend the data path's run.
	e.mesh.Tick(ctx)
	wantPeer(t, e, "a failed probe after 3 failed peer-fills", MemberSuspect, suspectFailures+1, true, 1)
	for i := suspectFailures + 1; i < deadFailures; i++ {
		e.mesh.Tick(ctx)
	}
	wantPeer(t, e, "3 failed peer-fills and 3 failed probes", MemberDead, deadFailures, false, 2)

	link.Restart()
	e.mesh.Tick(ctx)
	wantPeer(t, e, "one probe success", MemberAlive, 0, true, 3)
}

// TestMembershipConsecutiveFailures: only a run of failures suspects a
// peer — a success from either source resets it — and probes and
// peer-fill add to the same run.
func TestMembershipConsecutiveFailures(t *testing.T) {
	e, link := meshOfOne(t)
	ctx := context.Background()

	link.Kill()
	peerFillOnce(e)
	e.mesh.Tick(ctx)
	wantPeer(t, e, "a failed peer-fill and a failed probe", MemberAlive, 2, true, 0)
	link.Restart()
	peerFillOnce(e) // the peer's shard is cold: a 504, and proof of life
	wantPeer(t, e, "a successful peer-fill", MemberAlive, 0, true, 0)

	link.Kill()
	e.mesh.Tick(ctx)
	e.mesh.Tick(ctx)
	link.Restart()
	e.mesh.Tick(ctx)
	wantPeer(t, e, "a successful probe", MemberAlive, 0, true, 0)

	link.Kill()
	e.mesh.Tick(ctx)
	peerFillOnce(e)
	wantPeer(t, e, "2 failures after the reset", MemberAlive, 2, true, 0)
	e.mesh.Tick(ctx)
	wantPeer(t, e, "3 consecutive failures", MemberSuspect, suspectFailures, true, 1)
}

// TestPeerFillHedgeLoserBooksNothing: when the first peer answers
// after the hedge has asked the second, the winner cancels the loser
// mid-connect, and that cancellation is no failure of the loser's.
func TestPeerFillHedgeLoserBooksNothing(t *testing.T) {
	path := workload.CDNPagePath(0)
	key := cacheKey(path, http2.GenFull)
	warm := NewEdge(EdgeConfig{Name: "warm"}, core.NewEndpointSet(core.EndpointHealthConfig{}))
	defer warm.Close()
	warm.store(key, path, http2.GenFull, core.RawReply{Status: 200, ContentType: "text/html", Body: []byte("page 0")})

	loserDialing, release := make(chan struct{}), make(chan struct{})
	defer close(release)
	var winner, loser string
	dial := func(name string) core.DialFunc {
		return func() (net.Conn, error) {
			if name == loser {
				close(loserDialing)
				<-release
				return nil, errors.New("released")
			}
			<-loserDialing // answer only once the hedge has asked the loser
			cEnd, sEnd := net.Pipe()
			warm.StartConn(sEnd)
			return cEnd, nil
		}
	}
	e := NewEdge(EdgeConfig{
		Name:      "e0",
		Peers:     []string{"e0", "p1", "p2"},
		PeerDials: map[string]core.DialFunc{"p1": dial("p1"), "p2": dial("p2")},
	}, core.NewEndpointSet(core.EndpointHealthConfig{}))
	defer e.Close()
	for _, name := range e.ring.LookupN(path, 3) {
		switch {
		case name == "e0":
		case winner == "":
			winner = name
		default:
			loser = name
		}
	}

	ent, _, ok := e.peerFill(context.Background(), key, path, http2.GenFull)
	if !ok || string(ent.raw.Body) != "page 0" {
		t.Fatalf("peer-fill = %v, %v, want the winner's page", ent, ok)
	}
	// The loser's connect holds its client's lock until it has booked
	// its outcome; this waits for that.
	e.mesh.peers[loser].rc.CurrentEndpoint()
	if h := e.mesh.peers[loser].ep.Health(); !h.Healthy || h.Failures != 0 {
		t.Fatalf("cancelled hedge loser %s: %+v, want healthy with no failures", loser, h)
	}
}

// TestPollJitter: the per-tick jitter is deterministic for a seed,
// stays within ±20%, centers on the base interval, and two edges
// derive different schedules from their names alone.
func TestPollJitter(t *testing.T) {
	base := time.Second
	rng := newJitterRng(42)
	var sum time.Duration
	const draws = 2000
	for i := 0; i < draws; i++ {
		d := jitterDuration(base, rng)
		if d < 800*time.Millisecond || d > 1200*time.Millisecond {
			t.Fatalf("draw %d = %v outside ±20%% of %v", i, d, base)
		}
		sum += d
	}
	mean := sum / draws
	if mean < 950*time.Millisecond || mean > 1050*time.Millisecond {
		t.Errorf("jitter mean = %v, want ≈%v", mean, base)
	}

	// Determinism: same seed, same schedule — the fake-clock property
	// the poll loop's tests and reproducible chaos runs rely on.
	a, b := newJitterRng(7), newJitterRng(7)
	for i := 0; i < 10; i++ {
		if da, db := jitterDuration(base, a), jitterDuration(base, b); da != db {
			t.Fatalf("same seed diverged at draw %d: %v vs %v", i, da, db)
		}
	}

	// Two identically configured edges must not share a schedule.
	s1 := nameSeed("edge1")
	s2 := nameSeed("edge2")
	if s1 == s2 || s1 == 0 || s2 == 0 {
		t.Fatalf("name-derived seeds collide: %d vs %d", s1, s2)
	}
	d1 := jitterDuration(base, newJitterRng(s1))
	d2 := jitterDuration(base, newJitterRng(s2))
	if d1 == d2 {
		t.Errorf("edge1 and edge2 first ticks coincide at %v", d1)
	}
}

// TestStoreFlushRace: stores of two abilities racing Flush and
// InvalidatePath must never leave an entry in the shard that an
// invalidation of its path cannot find (such an entry would be served
// until eviction however often its path was unpublished). Run with
// -race; the final invariant catches the leak even without it.
func TestStoreFlushRace(t *testing.T) {
	origins := core.NewEndpointSet(core.EndpointHealthConfig{})
	e := NewEdge(EdgeConfig{Name: "edge1", TTL: time.Hour}, origins)
	defer e.Close()
	raw := core.RawReply{Status: 200, ContentType: "text/plain", Body: []byte("payload")}

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			gen := []http2.GenAbility{http2.GenNone, http2.GenFull}[g%2]
			for i := 0; i < 400; i++ {
				p := fmt.Sprintf("/race/%d", (g*400+i)%23)
				e.store(cacheKey(p, gen), p, gen, raw)
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 150; i++ {
			if i%3 == 0 {
				e.InvalidatePath(fmt.Sprintf("/race/%d", i%23))
			} else {
				e.Flush()
			}
		}
	}()
	wg.Wait()

	for i := 0; i < 23; i++ {
		e.InvalidatePath(fmt.Sprintf("/race/%d", i))
	}
	if n := e.cache.Len(); n != 0 {
		t.Fatalf("%d cache entries survived invalidating every path", n)
	}
}

// TestPullOutlivesLeaderCancel: a miss's origin pull answers every
// request coalesced on its key, so the request that started it going
// away must not fail the others. The pull runs on, is cached once, and
// answers the request that waited on it.
func TestPullOutlivesLeaderCancel(t *testing.T) {
	entered, release := make(chan struct{}, 4), make(chan struct{})
	dropped := make(chan struct{}, 4) // an origin request its puller reset
	var pulls atomic.Int32
	e, dial := pullFixture(t, EdgeConfig{Name: "edge1", TTL: time.Hour}, func(w *http2.ResponseWriter, r *http2.Request) {
		pulls.Add(1)
		entered <- struct{}{}
		select {
		case <-release:
			writeControl(w, 200, "text/html; charset=utf-8", []byte("fresh\n"))
		case <-r.Stream().Context().Done():
			dropped <- struct{}{}
		}
	})

	leader, waiter := dial(), dial()
	ctx, cancel := context.WithCancel(context.Background())
	leaderErr := make(chan error, 1)
	go func() {
		_, err := leader.GetContext(ctx, "/p")
		leaderErr <- err
	}()
	<-entered
	type reply struct{ cache, got string }
	waited := make(chan reply, 1)
	go func() {
		cache, got, err := pullGet(waiter, "/p")
		if err != nil {
			got = err.Error()
		}
		waited <- reply{cache, got}
	}()
	for e.requests.Load() < 2 { // the waiter has reached the edge
		runtime.Gosched()
	}
	cancel()
	if err := <-leaderErr; err == nil {
		t.Fatal("the cancelled request got a reply")
	}
	// A pull that took the leader's context resets its origin request
	// now; let that land before the origin answers, so such a pull
	// always fails its waiter.
	select {
	case <-dropped:
		t.Error("the leader's cancel reached the origin request")
	case <-time.After(200 * time.Millisecond):
	}
	close(release)
	if r := <-waited; r != (reply{"miss", "200 fresh\n"}) {
		t.Errorf("the coalesced request got %+v, want the pull's 200 as a miss", r)
	}
	if cache, got, err := pullGet(waiter, "/p"); err != nil || cache != "hit" || got != "200 fresh\n" {
		t.Errorf("the next request got %q %q, %v; want the cached 200 as a hit", cache, got, err)
	}
	if n := pulls.Load(); n != 1 {
		t.Errorf("%d origin pulls, want 1", n)
	}
}

// TestPullBoundedByUpstreamBudget: a pull runs under no request's
// context, and an origin that takes the request and never answers
// still ACKs keepalive PINGs, so the edge's own budget must end it.
// Every request coalesced on the key gets its 502 — here, with a zero
// Retry's one attempt, within 2 s plus 1 s of slack — instead of
// waiting forever.
func TestPullBoundedByUpstreamBudget(t *testing.T) {
	cfg := EdgeConfig{Name: "edge1", TTL: time.Hour, Retry: core.RetryPolicy{MaxAttempts: 1}}
	_, dial := pullFixture(t, cfg, func(w *http2.ResponseWriter, r *http2.Request) {
		<-r.Stream().Context().Done() // never answers; unwinds when the edge gives up
	})
	replies := make(chan string, 2)
	for range 2 {
		cc := dial()
		go func() {
			_, got, err := pullGet(cc, "/p")
			if err != nil {
				got = err.Error()
			}
			replies <- got
		}()
	}
	deadline := time.After(10 * time.Second)
	for range 2 {
		select {
		case got := <-replies:
			if !strings.HasPrefix(got, "502 ") {
				t.Errorf("a request on the hung pull got %q, want a 502", got)
			}
		case <-deadline:
			t.Fatal("a request coalesced on a pull the origin never answers got no reply in 10 s")
		}
	}
}

// TestHungOriginOpensBreaker: an origin that takes every request and
// never answers still ACKs keepalive PINGs, so only upstreamBudget ends
// its pulls, and each pull so ended books the origin a failure and
// drops its connection. Under a 3-attempt policy three misses each get
// a 502 when their budget runs out, which opens the origin's breaker
// (the default threshold of 3), and the next miss fails static: a 502
// at once, with no pull. The misses come one after another, or at once
// on three keys: three pulls on one connection, cut by one shared
// deadline, book three failures, though the first to fail drops the
// connection the others ran on.
func TestHungOriginOpensBreaker(t *testing.T) {
	for _, together := range []bool{false, true} {
		t.Run(map[bool]string{false: "in-turn", true: "at-once"}[together], func(t *testing.T) {
			var pulls atomic.Int32
			cfg := EdgeConfig{Name: "edge1", TTL: time.Hour,
				Retry: core.RetryPolicy{MaxAttempts: 3, PeerTimeout: 100 * time.Millisecond}}
			e, dial := pullFixture(t, cfg, func(w *http2.ResponseWriter, r *http2.Request) {
				pulls.Add(1)
				<-r.Stream().Context().Done() // never answers; unwinds when the edge gives up
			})
			cc := dial()
			budget := e.upstreamBudget()
			miss := func(i int) {
				if _, got, err := pullGet(cc, fmt.Sprint("/p", i)); err != nil || !strings.HasPrefix(got, "502 ") {
					t.Errorf("miss %d on the hung origin got %q, %v; want a 502", i, got, err)
				}
			}
			var wg sync.WaitGroup
			for i := range 3 {
				if !together {
					miss(i)
					continue
				}
				wg.Add(1)
				go func() { defer wg.Done(); miss(i) }()
			}
			wg.Wait()
			if e.upstream.Endpoints().AnyHealthy() {
				t.Fatalf("origin breaker closed after %d pulls cut at the %v budget", pulls.Load(), budget)
			}
			start := time.Now()
			if _, got, err := pullGet(cc, "/p"); err != nil || !strings.HasPrefix(got, "502 ") {
				t.Errorf("the miss after the breaker opened got %q, %v; want a 502", got, err)
			}
			if took, n := time.Since(start), pulls.Load(); took >= budget/2 || n != 3 {
				t.Errorf("the miss after the breaker opened took %v with %d pulls in all, want it at once and 3", took, n)
			}
		})
	}
}

// TestUpstreamCtxShared: the fetches that start within upstreamSlack
// of one another share one deadline context, which leaves each at least
// a full retry ladder and at most upstreamBudget. A later fetch gets a
// new context and the old one runs on for the fetches under it; Close
// ends both.
func TestUpstreamCtxShared(t *testing.T) {
	e := NewEdge(EdgeConfig{Name: "edge1", Retry: core.RetryPolicy{MaxAttempts: 2, PeerTimeout: time.Second}},
		core.NewEndpointSet(core.EndpointHealthConfig{}))
	budget := e.upstreamBudget()
	start := time.Now()
	first := e.upstreamCtx()
	if second := e.upstreamCtx(); second != first {
		t.Fatal("two fetches a moment apart got different contexts")
	}
	if dl, ok := first.Deadline(); !ok || dl.Before(start.Add(budget-upstreamSlack)) || dl.After(time.Now().Add(budget)) {
		t.Fatalf("deadline %v after the fetch began, want within [%v, %v]", dl.Sub(start), budget-upstreamSlack, budget)
	}
	// A fetch starting upstreamSlack later would get less than a ladder
	// from the shared deadline.
	e.upMu.Lock()
	e.upDeadline = time.Now().Add(budget - upstreamSlack - time.Millisecond)
	e.upMu.Unlock()
	later := e.upstreamCtx()
	if later == first || first.Err() != nil {
		t.Fatalf("a later fetch got the same context (%v) or ended the old one (%v)", later == first, first.Err())
	}
	e.Close()
	if first.Err() == nil || later.Err() == nil {
		t.Fatal("Close left a shared upstream context running")
	}
}

// pullFixture starts an edge with cfg in front of an origin served by
// handler, both over net.Pipe, and returns it with a dialer for
// GenFull clients; the test's cleanup closes them all.
func pullFixture(t *testing.T, cfg EdgeConfig, handler http2.HandlerFunc) (*Edge, func() *http2.ClientConn) {
	origin := &http2.Server{Handler: handler}
	origins := core.NewEndpointSet(core.EndpointHealthConfig{})
	origins.Add("origin", func() (net.Conn, error) {
		cEnd, sEnd := net.Pipe()
		origin.StartConn(sEnd)
		return cEnd, nil
	})
	e := NewEdge(cfg, origins)
	t.Cleanup(func() { e.Close() })
	return e, func() *http2.ClientConn {
		cEnd, sEnd := net.Pipe()
		e.StartConn(sEnd)
		cc, err := http2.NewClientConn(cEnd, http2.Config{GenAbility: http2.GenFull})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { cc.Close() })
		return cc
	}
}

// pullGet fetches path on cc: the reply's edge cache header, and its
// status and body as one string.
func pullGet(cc *http2.ClientConn, path string) (cache, got string, err error) {
	resp, err := cc.Get(path)
	if err != nil {
		return "", "", err
	}
	status, cache := resp.Status, resp.HeaderValue(core.EdgeCacheHeader)
	body, err := http2.ReadAllBody(resp)
	return cache, fmt.Sprintf("%d %s", status, body), err
}

// TestEdgeLeavesFencedOrigin: a 409 from the origin an edge polls is
// a rotation signal. With the zombie first in the set and the promoted
// origin second, the poll after the first 409 is answered by the
// promoted origin at any failure threshold: the zombie answers, so no
// failure count would move the edge off it.
func TestEdgeLeavesFencedOrigin(t *testing.T) {
	for _, threshold := range []int{1, 2, 3} {
		t.Run(fmt.Sprint("threshold=", threshold), func(t *testing.T) {
			origins := core.NewEndpointSet(core.EndpointHealthConfig{FailureThreshold: threshold, ProbeCooldown: time.Minute})
			serve := func(name string, status int, body string) {
				srv := &http2.Server{Handler: http2.HandlerFunc(func(w *http2.ResponseWriter, _ *http2.Request) {
					writeControl(w, status, "application/json", []byte(body))
				})}
				origins.Add(name, func() (net.Conn, error) {
					cEnd, sEnd := net.Pipe()
					srv.StartConn(sEnd)
					return cEnd, nil
				})
			}
			serve("zombie", statusFenced, "fenced\n")
			serve("promoted", 200, `{"seq":7,"epoch":2}`)
			e := NewEdge(EdgeConfig{Name: "edge1", TTL: time.Hour}, origins)
			defer e.Close()
			e.observeOriginEpoch(2)
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()

			if err := e.PollOnce(ctx); err == nil {
				t.Fatal("the zombie's poll succeeded")
			}
			if err := e.PollOnce(ctx); err != nil {
				t.Fatalf("poll after the 409: %v (endpoint %q)", err, e.upstream.CurrentEndpoint())
			}
			if got := e.upstream.CurrentEndpoint(); got != "promoted" || e.LastSeq() != 7 {
				t.Fatalf("endpoint %q, lastSeq %d; want promoted, 7", got, e.LastSeq())
			}
			if got := e.Stats().EpochFenced; got != 1 {
				t.Fatalf("epoch-fenced counter = %d, want 1", got)
			}
		})
	}
}

// TestRingConcurrentSurgery: LookupN callers racing Remove/Add (the
// membership callbacks) — correctness under -race plus basic sanity
// on every lookup result.
func TestRingConcurrentSurgery(t *testing.T) {
	ring := NewRing(0, "a", "b", "c")
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				order := ring.LookupN(fmt.Sprintf("/k/%d/%d", r, i), 3)
				seen := map[string]bool{}
				for _, n := range order {
					if seen[n] {
						t.Errorf("duplicate %q in lookup order %v", n, order)
						return
					}
					seen[n] = true
				}
			}
		}(r)
	}
	for i := 0; i < 300; i++ {
		ring.Remove("b")
		ring.Add("b")
	}
	close(stop)
	wg.Wait()
	if ring.Len() != 3 {
		t.Fatalf("ring size after surgery = %d", ring.Len())
	}
}

func newHAServer(t *testing.T) *core.Server {
	t.Helper()
	srv, err := core.NewServer(imagegen.SD3Medium, textgen.DeepSeek8)
	if err != nil {
		t.Fatal(err)
	}
	srv.AddPage(workload.CDNPage(0))
	return srv
}

// TestOriginLogWarmRestart: an origin with a durable log resumes its
// old sequence number after a restart, and an edge anchored mid-log
// reconciles incrementally — no reset, no flush.
func TestOriginLogWarmRestart(t *testing.T) {
	dir := t.TempDir()
	srv := newHAServer(t)
	o, err := NewOriginWithConfig(srv, OriginConfig{LogDir: dir, EpochDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		o.Invalidate([]string{fmt.Sprintf("/p%d", i)})
	}
	wantSeq := o.Seq()
	if wantSeq != 6 {
		t.Fatalf("seq = %d, want 6", wantSeq)
	}
	o.Close()

	o2, err := NewOriginWithConfig(newHAServer(t), OriginConfig{LogDir: dir, EpochDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer o2.Close()
	if got := o2.Seq(); got != wantSeq {
		t.Fatalf("restarted seq = %d, want %d", got, wantSeq)
	}
	// An edge that applied through seq 4 gets exactly the tail.
	feed := o2.Feed(4)
	if feed.Reset {
		t.Fatal("warm restart answered an in-log position with a reset")
	}
	if len(feed.Paths) != 2 || feed.Paths[0] != "/p4" || feed.Paths[1] != "/p5" {
		t.Fatalf("incremental feed paths = %v, want [/p4 /p5]", feed.Paths)
	}
	// New invalidations continue the sequence space.
	o2.Invalidate([]string{"/after"})
	if got := o2.Seq(); got != wantSeq+1 {
		t.Fatalf("post-restart seq = %d, want %d", got, wantSeq+1)
	}
}

// TestOriginLogCompaction: once the WAL outgrows the retained window
// it is compacted into the snapshot, and recovery from the compacted
// pair reproduces the same seq/floor/entries.
func TestOriginLogCompaction(t *testing.T) {
	dir := t.TempDir()
	o, err := NewOriginWithConfig(newHAServer(t), OriginConfig{MaxLog: 4, LogDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		o.Invalidate([]string{fmt.Sprintf("/p%d", i)})
	}
	if _, err := os.Stat(filepath.Join(dir, originSnapName)); err != nil {
		t.Fatalf("no snapshot after churn past the window: %v", err)
	}
	if fi, err := os.Stat(filepath.Join(dir, originWALName)); err != nil || fi.Size() > 4*200 {
		t.Fatalf("WAL not compacted: err %v size %d", err, fi.Size())
	}
	wantSeq := o.Seq()
	o.Close()

	o2, err := NewOriginWithConfig(newHAServer(t), OriginConfig{MaxLog: 4, LogDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer o2.Close()
	if got := o2.Seq(); got != wantSeq {
		t.Fatalf("recovered seq = %d, want %d", got, wantSeq)
	}
	if feed := o2.Feed(wantSeq - 2); feed.Reset || len(feed.Paths) != 2 {
		t.Fatalf("recovered feed = %+v, want 2 incremental paths", feed)
	}
	if feed := o2.Feed(1); !feed.Reset {
		t.Fatal("position below the recovered floor did not reset")
	}
}

// TestOriginLogTornTail: a crash mid-append leaves a torn final WAL
// line; recovery keeps every complete entry before it and counts the
// tear.
func TestOriginLogTornTail(t *testing.T) {
	dir := t.TempDir()
	l, _, err := openOriginLog(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 3; i++ {
		if err := l.append(walEntry{Seq: uint64(i), Paths: []string{fmt.Sprintf("/p%d", i)}}); err != nil {
			t.Fatal(err)
		}
	}
	l.close()
	f, err := os.OpenFile(filepath.Join(dir, originWALName), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString(`{"seq":4,"paths":["/p4`) // the torn append
	f.Close()

	o, err := NewOriginWithConfig(newHAServer(t), OriginConfig{LogDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer o.Close()
	if got := o.Seq(); got != 3 {
		t.Fatalf("recovered seq = %d, want 3 (torn tail dropped)", got)
	}
	if got := o.Stats().LogTorn; got != 1 {
		t.Fatalf("torn counter = %d, want 1", got)
	}
}

// TestOriginSnapshotCorruptRejected: a corrupted origin snapshot is
// treated as missing (never a crash), and the WAL still recovers the
// entries it holds.
func TestOriginSnapshotCorruptRejected(t *testing.T) {
	dir := t.TempDir()
	l, _, err := openOriginLog(dir)
	if err != nil {
		t.Fatal(err)
	}
	l.append(walEntry{Seq: 1, Paths: []string{"/p1"}})
	l.append(walEntry{Seq: 2, Paths: []string{"/p2"}})
	l.close()
	if err := os.WriteFile(filepath.Join(dir, originSnapName), []byte("not json{"), 0o644); err != nil {
		t.Fatal(err)
	}
	o, err := NewOriginWithConfig(newHAServer(t), OriginConfig{LogDir: dir})
	if err != nil {
		t.Fatalf("corrupt snapshot escalated to a boot error: %v", err)
	}
	defer o.Close()
	if got := o.Seq(); got != 2 {
		t.Fatalf("seq = %d after corrupt snapshot, want 2 from the WAL", got)
	}

	// A snapshot from a future format version is rejected the same way.
	dir2 := t.TempDir()
	snap, _ := json.Marshal(originSnapshot{Version: originLogVersion + 1, Seq: 99, Floor: 99})
	os.WriteFile(filepath.Join(dir2, originSnapName), snap, 0o644)
	o2, err := NewOriginWithConfig(newHAServer(t), OriginConfig{LogDir: dir2})
	if err != nil {
		t.Fatal(err)
	}
	defer o2.Close()
	if got := o2.Seq(); got != 0 {
		t.Fatalf("future-version snapshot adopted: seq %d", got)
	}

	// Entries out of order cannot be searched by seq: the log is dropped
	// and every position below the head resets, none is answered short.
	dir3 := t.TempDir()
	snap, _ = json.Marshal(originSnapshot{Version: originLogVersion, Seq: 5, Entries: []walEntry{
		{Seq: 5, Paths: []string{"/e"}}, {Seq: 1, Paths: []string{"/a"}}, {Seq: 4, Paths: []string{"/d"}},
	}})
	os.WriteFile(filepath.Join(dir3, originSnapName), snap, 0o644)
	o3, err := NewOriginWithConfig(newHAServer(t), OriginConfig{LogDir: dir3})
	if err != nil {
		t.Fatal(err)
	}
	defer o3.Close()
	if feed := o3.Feed(2); !feed.Reset {
		t.Fatalf("out-of-order snapshot: Feed(2) = %+v, want a reset", feed)
	}
	if feed := o3.Feed(5); feed.Reset || len(feed.Paths) != 0 {
		t.Fatalf("out-of-order snapshot: Feed(5) = %+v, want current", feed)
	}
}

// TestEdgeSnapshotCorruptRejected: garbage where the edge's shard
// snapshot should be means a cold boot, not a crash or a poisoned
// cache (persist.go satellite regression).
func TestEdgeSnapshotCorruptRejected(t *testing.T) {
	path := filepath.Join(t.TempDir(), "edge.snap")
	if err := os.WriteFile(path, []byte("\x00\xffnot a snapshot"), 0o644); err != nil {
		t.Fatal(err)
	}
	e := NewEdge(EdgeConfig{Name: "edge1", SnapshotPath: path}, core.NewEndpointSet(core.EndpointHealthConfig{}))
	defer e.Close()
	s := e.Stats()
	if s.SnapshotLoaded != 0 || s.CacheEntries != 0 {
		t.Fatalf("corrupt snapshot restored entries: loaded %d, cached %d",
			s.SnapshotLoaded, s.CacheEntries)
	}
	if s.SnapshotErrors == 0 {
		t.Fatal("corrupt snapshot not counted as an error")
	}
}

// TestEpochPersistence: the fencing epoch round-trips through its
// file, a missing file reads as 0, and corruption is an explicit boot
// error (an origin must never guess its epoch).
func TestEpochPersistence(t *testing.T) {
	dir := t.TempDir()
	if ep, err := loadEpoch(dir); err != nil || ep != 0 {
		t.Fatalf("missing epoch file = %d, %v; want 0, nil", ep, err)
	}
	if err := saveEpoch(dir, 7); err != nil {
		t.Fatal(err)
	}
	if ep, err := loadEpoch(dir); err != nil || ep != 7 {
		t.Fatalf("epoch = %d, %v; want 7", ep, err)
	}
	os.WriteFile(filepath.Join(dir, epochFileName), []byte("sevenish"), 0o644)
	if _, err := loadEpoch(dir); err == nil {
		t.Fatal("corrupt epoch file read without error")
	}
	if _, err := NewOriginWithConfig(newHAServer(t), OriginConfig{EpochDir: dir}); err == nil {
		t.Fatal("origin booted over a corrupt epoch file")
	}
}

// TestMirrorFeedLadder: a standby drops local invalidations and stops
// mirroring the moment it is promoted. (TestFeedVerdicts/standby-ladder
// feeds it in order, a duplicate, an overlap and a reset.)
func TestMirrorFeedLadder(t *testing.T) {
	o, err := NewOriginWithConfig(newHAServer(t), OriginConfig{Standby: true})
	if err != nil {
		t.Fatal(err)
	}
	defer o.Close()
	if o.Role() != RoleStandby {
		t.Fatalf("role = %v, want standby", o.Role())
	}
	// A standby drops local invalidations: the primary owns the space.
	o.Invalidate([]string{"/local"})
	if o.Seq() != 0 {
		t.Fatal("standby appended a local invalidation")
	}
	if ack := o.MirrorFeed(InvalidationFeed{Seq: 10, Reset: true, Epoch: 1}); ack != 10 {
		t.Fatalf("mirror ack = %d, want 10", ack)
	}

	if ep := o.Promote(); ep != 2 {
		t.Fatalf("promotion epoch = %d, want 2", ep)
	}
	if o.Role() != RolePrimary {
		t.Fatalf("role after promote = %v", o.Role())
	}
	if ep := o.Promote(); ep != 2 {
		t.Fatalf("second promote bumped the epoch to %d", ep)
	}
	// Promoted: mirror feeds from the old primary are refused.
	o.MirrorFeed(InvalidationFeed{Seq: 20, Since: 10, Paths: []string{"/z"}, Epoch: 1})
	if o.Seq() != 10 {
		t.Fatal("promoted origin mirrored a zombie feed")
	}
	o.Invalidate([]string{"/mine"})
	if o.Seq() != 11 {
		t.Fatalf("promoted origin seq = %d, want 11", o.Seq())
	}
}

// TestStandbyFollowsByPush: a standby that follows with an advertise
// address is subscribed by its first poll, and the primary's next
// invalidation reaches it by push, well before the next poll (at
// least 800ms later).
func TestStandbyFollowsByPush(t *testing.T) {
	psrv := newHAServer(t)
	primary := NewOrigin(psrv, 0)
	defer primary.Close()
	standby, err := NewOriginWithConfig(newHAServer(t), OriginConfig{Standby: true})
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	accepting := make(chan struct{})
	go func() {
		defer close(accepting)
		for {
			nc, err := l.Accept()
			if err != nil {
				return
			}
			standby.Server().StartConn(nc)
		}
	}()
	defer func() {
		l.Close()
		<-accepting
	}()
	defer standby.Close()

	standby.Follow(func() (net.Conn, error) {
		cEnd, sEnd := net.Pipe()
		psrv.StartConn(sEnd)
		return cEnd, nil
	}, l.Addr().String(), time.Second)
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		if _, ok := primary.SubscriberAck(standbyName); ok {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the standby's first poll did not subscribe it")
		}
	}
	pushed := time.Now()
	primary.Invalidate([]string{"/a"})
	for standby.Seq() != primary.Seq() {
		if time.Since(pushed) > 300*time.Millisecond {
			t.Fatalf("standby at seq %d 300ms after the invalidation, want %d by push", standby.Seq(), primary.Seq())
		}
		time.Sleep(time.Millisecond)
	}

	// Only the standby exports the Follow loop's families.
	preg, sreg := telemetry.NewRegistry(), telemetry.NewRegistry()
	primary.Register(preg)
	standby.Register(sreg)
	const polls = "sww_standby_mirror_polls_total"
	if _, ok := preg.Snapshot().Counters[polls]; ok {
		t.Errorf("primary exports %s", polls)
	}
	if _, ok := sreg.Snapshot().Counters[polls]; !ok {
		t.Errorf("standby does not export %s", polls)
	}
}

// TestZombieFencing: a primary that sees a newer epoch — on a request
// header or a push ack — demotes itself to fenced: invalidation polls
// answer 409, local invalidations are dropped, pushes stop.
func TestZombieFencing(t *testing.T) {
	srv := newHAServer(t)
	o := NewOrigin(srv, 0)
	defer o.Close()
	o.Invalidate([]string{"/warm"})

	dial := func() (net.Conn, error) {
		cEnd, sEnd := net.Pipe()
		srv.StartConn(sEnd)
		return cEnd, nil
	}
	rc := core.NewResilientClient(dial, device.Workstation, nil, core.RetryPolicy{})
	defer rc.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	// A poll carrying a newer epoch is the fence.
	raw, err := rc.FetchRawContext(ctx, invalidationsPath+"?since=0",
		hpack.HeaderField{Name: originEpochHeader, Value: "2"})
	if err != nil {
		t.Fatal(err)
	}
	if raw.Status != statusFenced {
		t.Fatalf("fencing poll status = %d, want %d", raw.Status, statusFenced)
	}
	if o.Role() != RoleFenced {
		t.Fatalf("role = %v, want fenced", o.Role())
	}
	if got := o.Epoch(); got != 1 {
		t.Fatalf("fenced origin adopted the newer epoch (%d); it must keep its own", got)
	}
	seq := o.Seq()
	o.Invalidate([]string{"/rejected"})
	if o.Seq() != seq {
		t.Fatal("fenced origin appended an invalidation")
	}
	raw, err = rc.FetchRawContext(ctx, invalidationsPath+"?since=0")
	if err != nil || raw.Status != statusFenced {
		t.Fatalf("post-fence poll = status %d, %v; want %d", raw.Status, err, statusFenced)
	}
	s := o.Stats()
	if s.FenceEvents != 1 || s.FenceRefusals != 2 {
		t.Fatalf("fence events %d refusals %d, want 1 and 2", s.FenceEvents, s.FenceRefusals)
	}
	// Health stays up — fencing is about writes, not liveness.
	if raw, err := rc.FetchRawContext(ctx, healthPath); err != nil || raw.Status != 200 {
		t.Fatalf("health while fenced = %d, %v", raw.Status, err)
	}
}
