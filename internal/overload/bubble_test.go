//go:build goexperiment.synctest

package overload

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"testing/synctest"
	"time"
)

// bubble runs f in a synctest bubble, where time.Now reads a clock
// that a time.Sleep moves on exactly once every goroutine in the
// bubble is blocked: the bucket's refills and the breaker's cooldowns
// are stepped by sleeping, at no wall time. internal/tier's
// TestVirtualTime runs these tests in plain `go test ./...`.
func bubble(t *testing.T, f func(t *testing.T)) {
	t.Helper()
	synctest.Run(func() { f(t) })
}

// TestBubbleTokenBucketAdmission: a full bucket admits its burst, then
// one request per refilled token, and never holds more than its depth.
func TestBubbleTokenBucketAdmission(t *testing.T) {
	bubble(t, func(t *testing.T) {
		b := NewTokenBucket(2, 3)
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
		time.Sleep(500 * time.Millisecond) // one token refills at 2/s
		if !b.Allow() {
			t.Fatal("refilled token denied")
		}
		if b.Allow() {
			t.Fatal("second token admitted after single refill")
		}
		time.Sleep(time.Hour)
		if got := b.Available(); got != 3 {
			t.Fatalf("bucket overfilled: %v tokens, want burst 3", got)
		}
	})
}

// TestBubbleBreakerTransitions drives the one consecutive-failure
// breaker through each parameter set the repo runs it with: the
// Guard's, an endpoint's default, and the tier harness's (tier.Health).
// The cooldowns are slept through to the nanosecond.
func TestBubbleBreakerTransitions(t *testing.T) {
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
			newBreaker := func() (*Breaker, *atomic.Int32) {
				var opens atomic.Int32
				b := NewBreaker(tc.failures, tc.cooldown, tc.successes)
				b.OnChange = func(_, to BreakerState) {
					if to == BreakerOpen {
						opens.Add(1)
					}
				}
				return b, &opens
			}
			pass := func(t *testing.T, b *Breaker, wantProbe bool, ok bool) {
				t.Helper()
				probe, err := b.Allow()
				if err != nil || probe != wantProbe {
					t.Fatalf("Allow = probe %v, %v; want probe %v", probe, err, wantProbe)
				}
				b.Record(ok)
			}
			trip := func(t *testing.T, b *Breaker) {
				t.Helper()
				for i := 1; i < tc.failures; i++ {
					pass(t, b, false, false)
				}
				if b.State() != BreakerClosed {
					t.Fatal("breaker tripped before threshold")
				}
				pass(t, b, false, false)
				if b.State() != BreakerOpen {
					t.Fatal("breaker not open after threshold failures")
				}
			}

			t.Run("transitions", func(t *testing.T) {
				bubble(t, func(t *testing.T) {
					b, opens := newBreaker()
					trip(t, b)
					if _, err := b.Allow(); !errors.Is(err, ErrBreakerOpen) {
						t.Fatalf("open breaker allowed: %v", err)
					}
					if got := b.UntilProbe(); got != tc.cooldown {
						t.Fatalf("UntilProbe = %v", got)
					}
					time.Sleep(tc.cooldown - 1)
					if _, err := b.Allow(); !errors.Is(err, ErrBreakerOpen) {
						t.Fatal("probe admitted before the cooldown passed")
					}

					time.Sleep(1)
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
					time.Sleep(tc.cooldown)
					for i := 0; i < tc.successes; i++ {
						if b.State() == BreakerClosed {
							t.Fatalf("closed after %d of %d probe successes", i, tc.successes)
						}
						pass(t, b, true, true)
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
						pass(t, b, false, false)
					}
					pass(t, b, false, true)
					if b.Failures() != 0 {
						t.Fatalf("Failures = %d after a success", b.Failures())
					}
					pass(t, b, false, false)
					if b.State() != BreakerClosed {
						t.Fatal("success did not reset consecutive-failure count")
					}
				})
			})

			// Only a claimed probe's outcome moves a breaker that is not
			// closed: a late success does not close it, a late failure
			// does not restart its cooldown.
			t.Run("late-outcomes", func(t *testing.T) {
				bubble(t, func(t *testing.T) {
					b, opens := newBreaker()
					trip(t, b)
					time.Sleep(tc.cooldown / 2)
					b.Record(true)
					b.Record(false)
					if b.State() != BreakerOpen || b.UntilProbe() != tc.cooldown-tc.cooldown/2 {
						t.Fatalf("late outcomes moved an open breaker: %v, %v to probe", b.State(), b.UntilProbe())
					}
					time.Sleep(tc.cooldown - tc.cooldown/2)
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
						pass(t, b, true, true)
					}
					if b.State() != BreakerClosed {
						t.Fatal("claimed probes did not close the breaker")
					}
				})
			})

			// N callers racing Allow on a half-open breaker: exactly one
			// claims the probe. Run under -race.
			t.Run("one-probe", func(t *testing.T) {
				bubble(t, func(t *testing.T) {
					b, _ := newBreaker()
					trip(t, b)
					time.Sleep(tc.cooldown)
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
		})
	}
}

// TestBubbleGuardAdmissionLadder walks the Guard's rungs: a queue
// timeout, an admission shed with refill-based Retry-After advice, and
// the breaker open after a run of backend failures, each counted once.
func TestBubbleGuardAdmissionLadder(t *testing.T) {
	bubble(t, func(t *testing.T) {
		g := NewGuard(Config{
			MaxGenWorkers: 1,
			QueueDeadline: 20 * time.Millisecond,
			AdmitRPS:      1,
			AdmitBurst:    2,
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
			time.Sleep(10 * time.Second) // refill bucket
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
	})
}

// TestBubbleGuardAdmissionRejectIsNoOutcome: a request the token bucket
// sheds after the breaker let it through never reached the backend,
// so it is neither a probe success nor a reset of the failure run.
func TestBubbleGuardAdmissionRejectIsNoOutcome(t *testing.T) {
	ctx := context.Background()
	admissionShed := func(t *testing.T, g *Guard) {
		t.Helper()
		var shed *ShedError
		if _, err := g.AdmitGen(ctx); !errors.As(err, &shed) || shed.Reason != "admission" {
			t.Fatalf("admit = %v, want an admission shed", err)
		}
	}

	t.Run("half-open", func(t *testing.T) {
		bubble(t, func(t *testing.T) {
			g := NewGuard(Config{AdmitRPS: 0.001, AdmitBurst: breakerFailures})
			for i := 0; i < breakerFailures; i++ {
				rel, err := g.AdmitGen(ctx)
				if err != nil {
					t.Fatalf("admit %d: %v", i, err)
				}
				rel(false)
			}
			time.Sleep(breakerCooldown) // half-open; the bucket stays empty
			for i := 0; i < breakerSuccesses; i++ {
				admissionShed(t, g)
			}
			if st := g.Breaker().State(); st != BreakerHalfOpen {
				t.Fatalf("breaker %v after %d admission rejects, want half-open", st, breakerSuccesses)
			}
		})
	})

	t.Run("closed", func(t *testing.T) {
		bubble(t, func(t *testing.T) {
			g := NewGuard(Config{AdmitRPS: 10, AdmitBurst: 1})
			for i := 0; i < 3*breakerFailures && g.Breaker().State() == BreakerClosed; i++ {
				time.Sleep(100 * time.Millisecond) // one token for one backend request
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
	})
}
