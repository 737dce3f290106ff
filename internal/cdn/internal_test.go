package cdn

// Tests that reach inside the package: the membership ladder, poll
// jitter, the store/Flush race fix, live ring surgery, the durable
// invalidation log (WAL + snapshot compaction, torn tails, corrupted
// snapshots), epoch persistence, mirroring and origin-side fencing.
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
	"sww/internal/genai/imagegen"
	"sww/internal/genai/textgen"
	"sww/internal/hpack"
	"sww/internal/http2"
	"sww/internal/workload"
)

// fakeClock is a hand-advanced clock for deterministic ladder tests.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *fakeClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

// TestMembershipLadder walks one peer alive → suspect → dead on a
// fake clock and back to alive on recovery, checking the ring
// callbacks fire exactly on the dead and dead→alive transitions.
func TestMembershipLadder(t *testing.T) {
	clock := &fakeClock{t: time.Unix(1000, 0)}
	var failing atomic.Bool
	var deaths, revivals []string
	m := NewMembership(MemberConfig{
		Heartbeat:    time.Second,
		SuspectAfter: 3 * time.Second,
		DeadAfter:    6 * time.Second,
		Clock:        clock.now,
		OnDead:       func(n string) { deaths = append(deaths, n) },
		OnAlive:      func(n string) { revivals = append(revivals, n) },
	})
	m.AddPeer("p1", func(ctx context.Context) error {
		if failing.Load() {
			return errors.New("probe failed")
		}
		return nil
	})
	ctx := context.Background()

	m.Tick(ctx)
	if s := m.State("p1"); s != MemberAlive {
		t.Fatalf("after healthy tick: %v", s)
	}

	failing.Store(true)
	clock.advance(2 * time.Second)
	m.Tick(ctx)
	if s := m.State("p1"); s != MemberAlive {
		t.Fatalf("2s of silence should not suspect yet: %v", s)
	}
	clock.advance(2 * time.Second) // 4s silent ≥ SuspectAfter
	m.Tick(ctx)
	if s := m.State("p1"); s != MemberSuspect {
		t.Fatalf("4s of silence should suspect: %v", s)
	}
	if len(deaths) != 0 {
		t.Fatalf("suspect must not fire OnDead: %v", deaths)
	}
	clock.advance(3 * time.Second) // 7s silent ≥ DeadAfter
	m.Tick(ctx)
	if s := m.State("p1"); s != MemberDead {
		t.Fatalf("7s of silence should be dead: %v", s)
	}
	if len(deaths) != 1 || deaths[0] != "p1" {
		t.Fatalf("OnDead = %v, want [p1]", deaths)
	}
	m.Tick(ctx) // still dead: no second callback
	if len(deaths) != 1 {
		t.Fatalf("repeated dead ticks re-fired OnDead: %v", deaths)
	}

	failing.Store(false)
	m.Tick(ctx)
	if s := m.State("p1"); s != MemberAlive {
		t.Fatalf("recovery tick should revive: %v", s)
	}
	if len(revivals) != 1 || revivals[0] != "p1" {
		t.Fatalf("OnAlive = %v, want [p1]", revivals)
	}
	if a, s, d := m.Counts(); a != 1 || s != 0 || d != 0 {
		t.Fatalf("counts = %d/%d/%d", a, s, d)
	}
}

// TestMembershipDataPathEvidence: ReportFailure escalates to suspect
// only after SuspectAfter of silence (one error burst cannot), never
// to dead; ReportSuccess revives a dead peer instantly with OnAlive.
func TestMembershipDataPathEvidence(t *testing.T) {
	clock := &fakeClock{t: time.Unix(1000, 0)}
	var revived int
	m := NewMembership(MemberConfig{
		SuspectAfter: 3 * time.Second,
		DeadAfter:    6 * time.Second,
		Clock:        clock.now,
		OnAlive:      func(string) { revived++ },
	})
	m.AddPeer("p1", nil)

	m.ReportFailure("p1")
	if s := m.State("p1"); s != MemberAlive {
		t.Fatalf("fresh failure suspected a recently-heard peer: %v", s)
	}
	clock.advance(4 * time.Second)
	m.ReportFailure("p1")
	if s := m.State("p1"); s != MemberSuspect {
		t.Fatalf("failure after 4s of silence should suspect: %v", s)
	}
	clock.advance(time.Hour)
	m.ReportFailure("p1")
	if s := m.State("p1"); s == MemberDead {
		t.Fatal("data-path failures must never declare death")
	}

	// Walk it dead via the sweep, then revive via the data path.
	m.AddPeer("p1", func(ctx context.Context) error { return errors.New("down") })
	m.Tick(context.Background())
	if s := m.State("p1"); s != MemberDead {
		t.Fatalf("sweep after an hour of silence: %v", s)
	}
	m.ReportSuccess("p1")
	if s := m.State("p1"); s != MemberAlive {
		t.Fatalf("ReportSuccess should revive: %v", s)
	}
	if revived != 1 {
		t.Fatalf("OnAlive fired %d times, want 1", revived)
	}
}

// TestMembershipConsecutiveFailures: a streak of data-path failures
// suspects an alive peer even while probes keep refreshing lastOK (a
// peer whose probe port answers but whose data path is broken), a
// success resets the streak, and the streak alone never declares
// death.
func TestMembershipConsecutiveFailures(t *testing.T) {
	clock := &fakeClock{t: time.Unix(1000, 0)}
	m := NewMembership(MemberConfig{
		SuspectAfter: time.Hour, // silence alone never triggers here
		Clock:        clock.now,
	})
	m.AddPeer("p1", nil)

	m.ReportFailure("p1")
	m.ReportFailure("p1")
	if s := m.State("p1"); s != MemberAlive {
		t.Fatalf("%d failures suspected early: %v", suspectFailures-1, s)
	}
	m.ReportSuccess("p1")
	m.ReportFailure("p1")
	m.ReportFailure("p1")
	if s := m.State("p1"); s != MemberAlive {
		t.Fatalf("success did not reset the failure streak: %v", s)
	}
	m.ReportFailure("p1")
	if s := m.State("p1"); s != MemberSuspect {
		t.Fatalf("%d consecutive failures should suspect: %v", suspectFailures, s)
	}
	for i := 0; i < 10*suspectFailures; i++ {
		m.ReportFailure("p1")
	}
	if s := m.State("p1"); s == MemberDead {
		t.Fatal("data-path failures must never declare death")
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
	s1 := EdgeConfig{Name: "edge1"}.seed()
	s2 := EdgeConfig{Name: "edge2"}.seed()
	if s1 == s2 || s1 == 0 || s2 == 0 {
		t.Fatalf("name-derived seeds collide: %d vs %d", s1, s2)
	}
	d1 := jitterDuration(base, newJitterRng(s1))
	d2 := jitterDuration(base, newJitterRng(s2))
	if d1 == d2 {
		t.Errorf("edge1 and edge2 first ticks coincide at %v", d1)
	}
	if got := (EdgeConfig{Name: "edge1", Seed: 99}).seed(); got != 99 {
		t.Errorf("explicit seed not honoured: %d", got)
	}
}

// TestStoreFlushRace: concurrent stores racing Flush/InvalidatePath
// must never leak an entry into the cache that the path index no
// longer covers (such an entry would be uninvalidatable until
// eviction). Run with -race; the final invariant catches the leak
// even without it.
func TestStoreFlushRace(t *testing.T) {
	origins := core.NewEndpointSet(core.EndpointHealthConfig{})
	e := NewEdge(EdgeConfig{Name: "edge1", TTL: time.Hour}, origins)
	defer e.Close()
	raw := &core.RawReply{Status: 200, ContentType: "text/plain", Body: []byte("payload")}

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 400; i++ {
				p := fmt.Sprintf("/race/%d", (g*400+i)%23)
				e.store(cacheKey(p, 1), p, raw)
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

	leaked := 0
	e.cache.Each(func(key string, v any, _ int64) {
		ent := v.(*edgeEntry)
		e.mu.Lock()
		indexed := e.byPath[ent.path].has(key)
		e.mu.Unlock()
		if !indexed {
			leaked++
		}
	})
	if leaked > 0 {
		t.Fatalf("%d cache entries leaked past the flush (present but unindexed)", leaked)
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
		cache, got, err := pullGet(waiter)
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
	if cache, got, err := pullGet(waiter); err != nil || cache != "hit" || got != "200 fresh\n" {
		t.Errorf("the next request got %q %q, %v; want the cached 200 as a hit", cache, got, err)
	}
	if n := pulls.Load(); n != 1 {
		t.Errorf("%d origin pulls, want 1", n)
	}
}

// TestPullBoundedWithoutAttemptTimeout: a pull runs under no request's
// context, so with no per-attempt deadline (AttemptTimeout zero, as in
// a zero Retry) the edge's own budget must still end it. An origin
// that takes the request and never answers gets every request
// coalesced on the key its 502 — here within one 2 s attempt plus 1 s
// of slack — instead of holding them forever.
func TestPullBoundedWithoutAttemptTimeout(t *testing.T) {
	cfg := EdgeConfig{Name: "edge1", TTL: time.Hour, Retry: core.RetryPolicy{MaxAttempts: 1}}
	_, dial := pullFixture(t, cfg, func(w *http2.ResponseWriter, r *http2.Request) {
		<-r.Stream().Context().Done() // never answers; unwinds when the edge gives up
	})
	replies := make(chan string, 2)
	for range 2 {
		cc := dial()
		go func() {
			_, got, err := pullGet(cc)
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

// TestUpstreamCtxShared: the fetches that start within upstreamSlack
// of one another share one deadline context, which leaves each at least
// a full retry ladder and at most upstreamBudget. A later fetch gets a
// new context and the old one runs on for the fetches under it; Close
// ends both.
func TestUpstreamCtxShared(t *testing.T) {
	e := NewEdge(EdgeConfig{Name: "edge1", Retry: core.RetryPolicy{MaxAttempts: 2, AttemptTimeout: time.Second}},
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

// pullGet fetches /p on cc: the reply's edge cache header, and its
// status and body as one string.
func pullGet(cc *http2.ClientConn) (cache, got string, err error) {
	resp, err := cc.Get("/p")
	if err != nil {
		return "", "", err
	}
	body, err := http2.ReadAllBody(resp)
	return resp.HeaderValue(core.EdgeCacheHeader), fmt.Sprintf("%d %s", resp.Status, body), err
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

// TestMirrorFeedLadder: a standby applies mirrored feeds in order,
// skips duplicates, adopts resets, and stops mirroring the moment it
// is promoted.
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

	if ack := o.MirrorFeed(InvalidationFeed{Seq: 1, Since: 0, Paths: []string{"/a"}, Epoch: 1}); ack != 1 {
		t.Fatalf("mirror ack = %d, want 1", ack)
	}
	if ack := o.MirrorFeed(InvalidationFeed{Seq: 3, Since: 1, Paths: []string{"/b", "/c"}, Epoch: 1}); ack != 3 {
		t.Fatalf("mirror ack = %d, want 3", ack)
	}
	// Duplicate (a push racing the mirror poll) is a no-op.
	if ack := o.MirrorFeed(InvalidationFeed{Seq: 3, Since: 1, Paths: []string{"/b", "/c"}, Epoch: 1}); ack != 3 {
		t.Fatalf("duplicate mirror ack = %d, want 3", ack)
	}
	if feed := o.Feed(1); feed.Reset || len(feed.Paths) != 2 {
		t.Fatalf("standby feed = %+v, want the mirrored tail", feed)
	}
	// A reset adopts the primary's head as both floor and seq.
	o.MirrorFeed(InvalidationFeed{Seq: 10, Reset: true, Epoch: 1})
	if o.Seq() != 10 {
		t.Fatalf("reset mirror seq = %d, want 10", o.Seq())
	}
	if feed := o.Feed(3); !feed.Reset {
		t.Fatal("position below the adopted head did not reset")
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
	rc := core.NewResilientClient(dial, device.Workstation, nil, core.RetryPolicy{}, nil)
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
