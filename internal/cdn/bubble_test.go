//go:build goexperiment.synctest

package cdn

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"testing/synctest"
	"time"

	"sww/internal/core"
	"sww/internal/http2"
)

// bubble runs f in a synctest bubble, where time.Now reads a clock
// that moves on only once every goroutine in the bubble is blocked:
// keepalive PINGs and upstreamBudget's deadlines take their virtual
// time and no wall time. Everything f starts must be stopped before it
// returns (defer pullFixture's closeAll; t.Cleanup runs outside the
// bubble). internal/tier's TestVirtualTime runs these tests in plain
// `go test ./...`.
func bubble(t *testing.T, f func(t *testing.T)) {
	t.Helper()
	synctest.Run(func() { f(t) })
}

// TestBubblePullBoundedByUpstreamBudget: a pull runs under no request's
// context, and an origin that takes the request and never answers
// still ACKs keepalive PINGs, so the edge's own budget must end it.
// Every request coalesced on the key gets its 502 — here, with a zero
// Retry's one attempt, at upstreamBudget (2 s plus 1 s of slack) —
// instead of waiting forever.
func TestBubblePullBoundedByUpstreamBudget(t *testing.T) {
	bubble(t, func(t *testing.T) {
		cfg := EdgeConfig{Name: "edge1", TTL: time.Hour, Retry: core.RetryPolicy{MaxAttempts: 1}}
		e, dial, closeAll := pullFixture(t, cfg, func(w *http2.ResponseWriter, r *http2.Request) {
			<-r.Stream().Context().Done() // never answers; unwinds when the edge gives up
		})
		defer closeAll()
		budget := e.upstreamBudget()
		start := time.Now()
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
		deadline := time.After(2 * budget)
		for range 2 {
			select {
			case got := <-replies:
				if !strings.HasPrefix(got, "502 ") {
					t.Errorf("a request on the hung pull got %q, want a 502", got)
				}
				if took := time.Since(start); took > budget {
					t.Errorf("a request on the hung pull got its reply after %v, want it by the %v budget", took, budget)
				}
			case <-deadline:
				t.Fatalf("a request coalesced on a pull the origin never answers got no reply in %v", 2*budget)
			}
		}
	})
}

// TestBubbleHungOriginOpensBreaker: an origin that takes every request
// and never answers still ACKs keepalive PINGs, so only upstreamBudget
// ends its pulls, and each pull so ended books the origin a failure and
// drops its connection. Under a 3-attempt policy three misses each get
// a 502 when their budget runs out (1.3 s at 3 × 100 ms), which opens
// the origin's breaker (the default threshold of 3), and the next miss
// fails static: a 502 at once, with no pull. The misses come one after
// another (3.9 s of virtual time), or at once on three keys (1.3 s):
// three pulls on one connection, cut by one shared deadline, book three
// failures, though the first to fail drops the connection the others
// ran on.
func TestBubbleHungOriginOpensBreaker(t *testing.T) {
	for _, together := range []bool{false, true} {
		t.Run(map[bool]string{false: "in-turn", true: "at-once"}[together], func(t *testing.T) {
			bubble(t, func(t *testing.T) {
				var pulls atomic.Int32
				cfg := EdgeConfig{Name: "edge1", TTL: time.Hour,
					Retry: core.RetryPolicy{MaxAttempts: 3, PeerTimeout: 100 * time.Millisecond}}
				e, dial, closeAll := pullFixture(t, cfg, func(w *http2.ResponseWriter, r *http2.Request) {
					pulls.Add(1)
					<-r.Stream().Context().Done() // never answers; unwinds when the edge gives up
				})
				defer closeAll()
				cc := dial()
				budget := e.upstreamBudget()
				start := time.Now()
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
				want := 3 * budget
				if together {
					want = budget
				}
				if took := time.Since(start); took != want {
					t.Errorf("three misses took %v at a %v budget, want %v", took, budget, want)
				}
				start = time.Now()
				if _, got, err := pullGet(cc, "/p"); err != nil || !strings.HasPrefix(got, "502 ") {
					t.Errorf("the miss after the breaker opened got %q, %v; want a 502", got, err)
				}
				if took, n := time.Since(start), pulls.Load(); took != 0 || n != 3 {
					t.Errorf("the miss after the breaker opened took %v with %d pulls in all, want it at once and 3", took, n)
				}
			})
		})
	}
}
