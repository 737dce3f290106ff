package overload

import (
	"context"
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// fakeClock is a manually stepped clock for bucket/breaker tests.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock { return &fakeClock{t: time.Unix(1_000_000, 0)} }

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

func TestTokenBucketAdmission(t *testing.T) {
	clk := newFakeClock()
	b := NewTokenBucket(2, 3, clk.Now)
	for i := 0; i < 3; i++ {
		if !b.Allow() {
			t.Fatalf("burst token %d denied", i)
		}
	}
	if b.Allow() {
		t.Fatal("empty bucket admitted")
	}
	if got := b.UntilNextToken(); got != 500*time.Millisecond {
		t.Fatalf("UntilNextToken = %v, want 500ms", got)
	}
	clk.Advance(500 * time.Millisecond) // one token refills at 2/s
	if !b.Allow() {
		t.Fatal("refilled token denied")
	}
	if b.Allow() {
		t.Fatal("second token admitted after single refill")
	}
	clk.Advance(time.Hour)
	if got := b.Available(); got != 3 {
		t.Fatalf("bucket overfilled: %v tokens, want burst 3", got)
	}
}

func TestPoolFIFOAndDeadline(t *testing.T) {
	p := NewPool(1)
	if err := p.Acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	// A queued waiter beyond its deadline is shed.
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := p.Acquire(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("queued acquire = %v, want deadline exceeded", err)
	}
	if in, wait := p.Load(); in != 1 || wait != 0 {
		t.Fatalf("after timeout: inflight %d waiting %d", in, wait)
	}

	// FIFO: the first queued waiter is granted first.
	order := make(chan int, 2)
	var ready sync.WaitGroup
	ready.Add(1)
	go func() {
		ready.Done()
		p.Acquire(context.Background())
		order <- 1
	}()
	ready.Wait()
	time.Sleep(10 * time.Millisecond) // let waiter 1 enqueue first
	go func() {
		p.Acquire(context.Background())
		order <- 2
	}()
	time.Sleep(10 * time.Millisecond)
	p.Release()
	if got := <-order; got != 1 {
		t.Fatalf("first grant went to waiter %d", got)
	}
	p.Release()
	if got := <-order; got != 2 {
		t.Fatalf("second grant went to waiter %d", got)
	}
	p.Release()
	if in, wait := p.Load(); in != 0 || wait != 0 {
		t.Fatalf("drained pool: inflight %d waiting %d", in, wait)
	}
}

func TestPoolSlotNotLeakedOnLateGrant(t *testing.T) {
	p := NewPool(1)
	if !p.TryAcquire() {
		t.Fatal("fresh pool has no slot")
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- p.Acquire(ctx) }()
	time.Sleep(10 * time.Millisecond)
	// Release and cancel race; whatever the waiter observes, the slot
	// must end up usable.
	cancel()
	p.Release()
	err := <-done
	if err != nil {
		// The waiter gave up; the slot must be free for others.
		if !p.TryAcquire() {
			t.Fatal("slot leaked after cancelled acquire")
		}
	}
	p.Release()
}

func TestSingleflightCoalesces(t *testing.T) {
	var g Group
	var runs atomic.Int32
	release := make(chan struct{})
	const n = 16
	var wg sync.WaitGroup
	shared := make([]bool, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, err, sh := g.Do("page", func() (any, error) {
				runs.Add(1)
				<-release
				return "html", nil
			})
			if err != nil || v.(string) != "html" {
				t.Errorf("Do = %v, %v", v, err)
			}
			shared[i] = sh
		}(i)
	}
	time.Sleep(20 * time.Millisecond)
	close(release)
	wg.Wait()
	if got := runs.Load(); got != 1 {
		t.Fatalf("fn ran %d times, want 1", got)
	}
	nshared := 0
	for _, sh := range shared {
		if sh {
			nshared++
		}
	}
	if nshared != n-1 {
		t.Fatalf("shared count %d, want %d", nshared, n-1)
	}
	// After completion the key is forgotten: a new Do runs again.
	_, _, sh := g.Do("page", func() (any, error) { return "again", nil })
	if sh {
		t.Fatal("post-completion Do reported shared")
	}
}

// TestBreakerTransitions drives the one consecutive-failure breaker through each
// parameter set the repo runs it with: the Guard's, an endpoint's
// default, and the tier harness's (tier.Health).
func TestBreakerTransitions(t *testing.T) {
	for _, tc := range []struct {
		name                string
		failures, successes int
		cooldown            time.Duration
	}{
		{"guard", breakerFailures, breakerSuccesses, breakerCooldown},
		{"endpoint", 3, 1, 500 * time.Millisecond},
		{"tier", 2, 1, 25 * time.Millisecond},
	} {
		t.Run(tc.name, func(t *testing.T) {
			newBreaker := func() (*Breaker, *fakeClock, *atomic.Int32) {
				clk := newFakeClock()
				var opens atomic.Int32
				b := NewBreaker(tc.failures, tc.cooldown, tc.successes, clk.Now)
				b.OnChange = func(_, to BreakerState) {
					if to == BreakerOpen {
						opens.Add(1)
					}
				}
				return b, clk, &opens
			}
			pass := func(b *Breaker, wantProbe bool, ok bool) {
				t.Helper()
				probe, err := b.Allow()
				if err != nil || probe != wantProbe {
					t.Fatalf("Allow = probe %v, %v; want probe %v", probe, err, wantProbe)
				}
				b.Record(ok)
			}
			trip := func(b *Breaker) {
				t.Helper()
				for i := 1; i < tc.failures; i++ {
					pass(b, false, false)
				}
				if b.State() != BreakerClosed {
					t.Fatal("breaker tripped before threshold")
				}
				pass(b, false, false)
				if b.State() != BreakerOpen {
					t.Fatal("breaker not open after threshold failures")
				}
			}

			t.Run("transitions", func(t *testing.T) {
				b, clk, opens := newBreaker()
				trip(b)
				if _, err := b.Allow(); !errors.Is(err, ErrBreakerOpen) {
					t.Fatalf("open breaker allowed: %v", err)
				}
				if got := b.UntilProbe(); got != tc.cooldown {
					t.Fatalf("UntilProbe = %v", got)
				}
				clk.Advance(tc.cooldown - 1)
				if _, err := b.Allow(); !errors.Is(err, ErrBreakerOpen) {
					t.Fatal("probe admitted before the cooldown passed")
				}

				clk.Advance(1)
				if b.State() != BreakerHalfOpen {
					t.Fatal("breaker not half-open after cooldown")
				}
				// One probe in flight, a second rejected.
				if probe, err := b.Allow(); err != nil || !probe {
					t.Fatalf("half-open probe = %v, %v", probe, err)
				}
				if _, err := b.Allow(); !errors.Is(err, ErrBreakerOpen) {
					t.Fatal("second probe admitted while the first is in flight")
				}
				// A failed probe re-opens for another cooldown.
				b.Record(false)
				if b.State() != BreakerOpen {
					t.Fatal("failed probe did not re-open")
				}
				if _, err := b.Allow(); !errors.Is(err, ErrBreakerOpen) {
					t.Fatal("allowed right after a failed probe")
				}
				if got := opens.Load(); got != 2 {
					t.Fatalf("OnChange opened %d times, want 2", got)
				}

				// Cooldown again, then a run of probe successes closes it.
				clk.Advance(tc.cooldown)
				for i := 0; i < tc.successes; i++ {
					if b.State() == BreakerClosed {
						t.Fatalf("closed after %d of %d probe successes", i, tc.successes)
					}
					pass(b, true, true)
				}
				if b.State() != BreakerClosed {
					t.Fatal("breaker not closed after probe successes")
				}
				if _, err := b.Allow(); err != nil {
					t.Fatalf("closed breaker rejected: %v", err)
				}
				b.Record(true)
				// A success resets the failure run.
				for i := 1; i < tc.failures; i++ {
					pass(b, false, false)
				}
				pass(b, false, true)
				if b.Failures() != 0 {
					t.Fatalf("Failures = %d after a success", b.Failures())
				}
				pass(b, false, false)
				if b.State() != BreakerClosed {
					t.Fatal("success did not reset consecutive-failure count")
				}
			})

			// Only a claimed probe's outcome moves a breaker that is not
			// closed: a late success does not close it, a late failure
			// does not restart its cooldown.
			t.Run("late-outcomes", func(t *testing.T) {
				b, clk, opens := newBreaker()
				trip(b)
				clk.Advance(tc.cooldown / 2)
				b.Record(true)
				b.Record(false)
				if b.State() != BreakerOpen || b.UntilProbe() != tc.cooldown-tc.cooldown/2 {
					t.Fatalf("late outcomes moved an open breaker: %v, %v to probe", b.State(), b.UntilProbe())
				}
				clk.Advance(tc.cooldown - tc.cooldown/2)
				if b.State() != BreakerHalfOpen {
					t.Fatal("breaker not half-open after cooldown")
				}
				for i := 0; i < tc.successes; i++ {
					b.Record(true)
				}
				b.Record(false)
				if b.State() != BreakerHalfOpen {
					t.Fatalf("late outcomes moved a half-open breaker with no probe out: %v", b.State())
				}
				if got := opens.Load(); got != 1 {
					t.Fatalf("OnChange opened %d times, want 1", got)
				}
				for i := 0; i < tc.successes; i++ {
					pass(b, true, true)
				}
				if b.State() != BreakerClosed {
					t.Fatal("claimed probes did not close the breaker")
				}
			})

			// N callers racing Allow on a half-open breaker: exactly one
			// claims the probe. Run under -race.
			t.Run("one-probe", func(t *testing.T) {
				b, clk, _ := newBreaker()
				trip(b)
				clk.Advance(tc.cooldown)
				var probes, rejects atomic.Int32
				var wg sync.WaitGroup
				for range 16 {
					wg.Add(1)
					go func() {
						defer wg.Done()
						probe, err := b.Allow()
						switch {
						case probe && err == nil:
							probes.Add(1)
						case !probe && errors.Is(err, ErrBreakerOpen):
							rejects.Add(1)
						}
					}()
				}
				wg.Wait()
				if probes.Load() != 1 || rejects.Load() != 15 {
					t.Fatalf("%d probes and %d rejects of 16, want 1 and 15", probes.Load(), rejects.Load())
				}
			})
		})
	}
}

func TestByteLRUEviction(t *testing.T) {
	var evicted []string
	l := NewByteLRU(100)
	l.SetOnEvict(func(key string, _ any, _ int64) { evicted = append(evicted, key) })

	l.Add("a", "A", 40)
	l.Add("b", "B", 40)
	if n := l.Add("c", "C", 40); n != 1 {
		t.Fatalf("third add evicted %d entries, want 1", n)
	}
	if len(evicted) != 1 || evicted[0] != "a" {
		t.Fatalf("evicted %v, want [a]", evicted)
	}
	// Promotion: touching b makes c the eviction victim.
	if _, ok := l.Get("b"); !ok {
		t.Fatal("b missing")
	}
	l.Add("d", "D", 40)
	if len(evicted) != 2 || evicted[1] != "c" {
		t.Fatalf("evicted %v, want [a c]", evicted)
	}
	// GetBytes is Get for a key held as bytes: it finds and promotes b,
	// so d is the next victim.
	if v, ok := l.GetBytes([]byte("b")); !ok || v != "B" {
		t.Fatalf("GetBytes(b) = %v, %v", v, ok)
	}
	if _, ok := l.GetBytes([]byte("c")); ok {
		t.Fatal("GetBytes found an evicted key")
	}
	l.Add("e", "E", 40)
	if len(evicted) != 3 || evicted[2] != "d" {
		t.Fatalf("evicted %v, want [a c d]", evicted)
	}
	if l.Bytes() != 80 || l.Len() != 2 {
		t.Fatalf("size %d len %d", l.Bytes(), l.Len())
	}
	// Oversized entry: admitted then immediately evicted, after the
	// entries older than it, oldest first; the cap holds.
	if n := l.Add("huge", "H", 1000); n != 3 {
		t.Fatalf("oversized add evicted %d entries, want 3", n)
	}
	if got := strings.Join(evicted[3:], " "); got != "b e huge" {
		t.Fatalf("oversized add evicted %q, want \"b e huge\"", got)
	}
	if _, ok := l.Peek("huge"); ok {
		t.Fatal("oversized entry stayed cached")
	}
	if l.Bytes() > 100 {
		t.Fatalf("cache over cap: %d", l.Bytes())
	}
	// Remove does not fire the callback.
	before := len(evicted)
	l.Remove("b")
	if len(evicted) != before {
		t.Fatal("Remove fired the eviction callback")
	}
	// RemoveBytes is Remove for a key held as bytes: it drops the entry
	// and its bytes, reports whether the key was cached, and fires no
	// callback either.
	l.Add("f", "F", 30)
	l.Add("g", "G", 30)
	if !l.RemoveBytes([]byte("f")) || l.RemoveBytes([]byte("f")) || l.RemoveBytes([]byte("x")) {
		t.Fatal("RemoveBytes must report true once for a cached key, then false")
	}
	if _, ok := l.Peek("f"); ok || l.Len() != 1 || l.Bytes() != 30 {
		t.Fatalf("after RemoveBytes(f): len %d size %d", l.Len(), l.Bytes())
	}
	if _, ok := l.Peek("g"); !ok || len(evicted) != before {
		t.Fatalf("RemoveBytes touched g or fired the callback: evicted %v", evicted)
	}
}

func TestGuardAdmissionLadder(t *testing.T) {
	clk := newFakeClock()
	g := NewGuard(Config{
		MaxGenWorkers: 1,
		QueueDeadline: 20 * time.Millisecond,
		AdmitRPS:      1,
		AdmitBurst:    2,
		Clock:         clk.Now,
	})

	// Token 1 admitted.
	rel1, err := g.AdmitGen(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if g.Level() != LevelQueued {
		t.Fatalf("level with full pool = %v, want queued", g.Level())
	}
	// Token 2 passes the bucket but times out queueing for the single
	// worker.
	_, err = g.AdmitGen(context.Background())
	var shed *ShedError
	if !errors.As(err, &shed) || shed.Reason != "queue-timeout" {
		t.Fatalf("second admit = %v, want queue-timeout shed", err)
	}
	// Bucket now empty → admission shed, with refill-based advice.
	_, err = g.AdmitGen(context.Background())
	if !errors.As(err, &shed) || shed.Reason != "admission" {
		t.Fatalf("third admit = %v, want admission shed", err)
	}
	if shed.RetryAfter < time.Second {
		t.Fatalf("admission RetryAfter = %v, want >= 1s", shed.RetryAfter)
	}
	if g.Level() != LevelSaturated {
		t.Fatalf("level with empty bucket = %v, want saturated", g.Level())
	}
	rel1(true)

	// A run of backend failures trips the breaker → critical, fail
	// fast.
	for i := 0; i < breakerFailures; i++ {
		clk.Advance(10 * time.Second) // refill bucket
		rel, err := g.AdmitGen(context.Background())
		if err != nil {
			t.Fatalf("admit %d: %v", i, err)
		}
		rel(false)
	}
	if g.Level() != LevelCritical {
		t.Fatalf("level with open breaker = %v, want critical", g.Level())
	}
	_, err = g.AdmitGen(context.Background())
	if !errors.As(err, &shed) || shed.Reason != "breaker-open" {
		t.Fatalf("admit with open breaker = %v, want breaker-open shed", err)
	}

	s := g.Counters().Snapshot()
	if s.Admitted != 1+breakerFailures || s.QueueTimeouts != 1 || s.AdmitRejects != 1 ||
		s.BreakerRejects != 1 || s.BreakerOpens != 1 {
		t.Fatalf("counters: %+v", s)
	}
	if s.Shed() != 3 {
		t.Fatalf("Shed() = %d, want 3", s.Shed())
	}
}

func TestGuardShedDoesNotFeedBreaker(t *testing.T) {
	clk := newFakeClock()
	g := NewGuard(Config{
		MaxGenWorkers: 1,
		QueueDeadline: 5 * time.Millisecond,
		AdmitRPS:      1000,
		AdmitBurst:    1000,
		Clock:         clk.Now,
	})
	rel, err := g.AdmitGen(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	// A threshold's worth of queue timeouts while the worker is held
	// must not trip the breaker: sheds are not backend failures.
	for i := 0; i < breakerFailures; i++ {
		if _, err := g.AdmitGen(context.Background()); err == nil {
			t.Fatal("expected queue-timeout shed")
		}
	}
	if g.Breaker().State() != BreakerClosed {
		t.Fatal("shed requests tripped the breaker")
	}
	rel(true)
}

// TestGuardAdmissionRejectIsNoOutcome: a request the token bucket
// sheds after the breaker let it through never reached the backend,
// so it is neither a probe success nor a reset of the failure run.
func TestGuardAdmissionRejectIsNoOutcome(t *testing.T) {
	ctx := context.Background()
	admissionShed := func(t *testing.T, g *Guard) {
		t.Helper()
		var shed *ShedError
		if _, err := g.AdmitGen(ctx); !errors.As(err, &shed) || shed.Reason != "admission" {
			t.Fatalf("admit = %v, want an admission shed", err)
		}
	}

	t.Run("half-open", func(t *testing.T) {
		clk := newFakeClock()
		g := NewGuard(Config{AdmitRPS: 0.001, AdmitBurst: breakerFailures, Clock: clk.Now})
		for i := 0; i < breakerFailures; i++ {
			rel, err := g.AdmitGen(ctx)
			if err != nil {
				t.Fatalf("admit %d: %v", i, err)
			}
			rel(false)
		}
		clk.Advance(breakerCooldown) // half-open; the bucket stays empty
		for i := 0; i < breakerSuccesses; i++ {
			admissionShed(t, g)
		}
		if st := g.Breaker().State(); st != BreakerHalfOpen {
			t.Fatalf("breaker %v after %d admission rejects, want half-open", st, breakerSuccesses)
		}
	})

	t.Run("closed", func(t *testing.T) {
		clk := newFakeClock()
		g := NewGuard(Config{AdmitRPS: 10, AdmitBurst: 1, Clock: clk.Now})
		for i := 0; i < 3*breakerFailures && g.Breaker().State() == BreakerClosed; i++ {
			clk.Advance(100 * time.Millisecond) // one token for one backend request
			rel, err := g.AdmitGen(ctx)
			if err != nil {
				t.Fatalf("admit %d: %v", i, err)
			}
			rel(false)
			if g.Breaker().State() == BreakerClosed {
				admissionShed(t, g)
			}
		}
		if st := g.Breaker().State(); st != BreakerOpen {
			t.Fatalf("breaker %v after backend failures between admission rejects, want open", st)
		}
		if s := g.Counters().Snapshot(); s.Admitted != breakerFailures || s.BreakerOpens != 1 {
			t.Fatalf("counters: %+v", s)
		}
	})
}
