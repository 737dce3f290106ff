// Package overload implements server-side overload protection for the
// §5.1 generative server. Server-side generation is the dominant
// server resource (one cold page costs seconds of modelled GPU time,
// against microseconds for serving stored bytes), so saturation
// behaviour is a correctness question, not a tuning question: an
// unprotected server that accepts every generation request melts down
// for everyone, while the paper explicitly allows the opposite ("a
// server can choose to serve traditional content even if the client
// supports generative ability, for example to provide higher
// performance", §5.1).
//
// The package composes five small mechanisms behind one Guard:
//
//   - a bounded generation worker pool (FIFO semaphore with a queue
//     deadline), so concurrent generation is limited and queue time is
//     bounded;
//   - a token-bucket admission controller, so sustained offered load
//     beyond the configured rate is rejected before it queues;
//   - a circuit breaker over the generation backend (closed → open →
//     half-open with one probe at a time), so a failing pipeline fails
//     fast instead of burning worker slots — the same Breaker type
//     every core.Endpoint runs on;
//   - singleflight coalescing, so N concurrent misses of one cold page
//     cost one generation, not N;
//   - a byte-capped LRU for generated traditional forms, so one hot
//     tail of pages cannot grow server memory without bound.
//
// The Guard exposes a pressure Level that the serving layer maps to an
// explicit load-shed ladder: (1) serve prompts as usual, (2) serve
// cached traditional content, (3) switch capable clients to
// pre-rendered traditional content (the §5.1 policy flip), (4) reply
// 503 with Retry-After. Counters make every rung observable.
package overload

import (
	"context"
	"fmt"
	"time"
)

// Level is the Guard's coarse pressure reading, ordered by severity.
// The serving layer walks the shed ladder by comparing against it.
type Level int

const (
	// LevelHealthy: free generation workers remain.
	LevelHealthy Level = iota
	// LevelQueued: every worker is busy; new work waits in the queue.
	LevelQueued
	// LevelSaturated: the queue is backed up or the admission bucket
	// is empty — new generation work is being shed.
	LevelSaturated
	// LevelCritical: the generation backend's breaker is open (or
	// probing half-open) — generation is failing, not just slow.
	LevelCritical
)

func (l Level) String() string {
	switch l {
	case LevelHealthy:
		return "healthy"
	case LevelQueued:
		return "queued"
	case LevelSaturated:
		return "saturated"
	case LevelCritical:
		return "critical"
	default:
		return fmt.Sprintf("level(%d)", int(l))
	}
}

// A ShedError reports a generation request rejected by the Guard
// rather than failed by the backend. The serving layer turns it into
// 503 + Retry-After once the cheaper ladder rungs are exhausted.
type ShedError struct {
	// Reason names the mechanism that shed the request:
	// "admission", "queue-timeout", "breaker-open".
	Reason string

	// RetryAfter is the server's advice for when retrying could
	// succeed (token refill, breaker cooldown, ...).
	RetryAfter time.Duration
}

func (e *ShedError) Error() string {
	return fmt.Sprintf("overload: request shed (%s), retry after %v", e.Reason, e.RetryAfter)
}

// Config parameterizes a Guard. The zero value yields permissive
// defaults: a small worker pool and cache bound, no admission rate
// limit. The breaker's thresholds and the 1s Retry-After advice for
// queue timeouts are fixed.
type Config struct {
	// MaxGenWorkers bounds concurrent server-side generation. Zero
	// means 4; negative means 1.
	MaxGenWorkers int

	// QueueDeadline bounds how long an admitted request may wait for
	// a free worker before it is shed. Zero means 500ms.
	QueueDeadline time.Duration

	// AdmitRPS is the sustained generation admission rate in
	// requests/second. Zero or negative disables rate admission
	// (pool and breaker still apply).
	AdmitRPS float64

	// AdmitBurst is the token bucket depth. Zero means
	// 2×MaxGenWorkers.
	AdmitBurst int

	// CacheBytes caps the generated-traditional LRU in bytes (HTML
	// plus generated assets). Zero means 64 MiB; negative means an
	// effectively unbounded cache.
	CacheBytes int64

	// GenWallScale models real inference occupancy: a generation
	// holds its worker slot for SimGenTime × GenWallScale of wall
	// time. The procedural models return in microseconds, which would
	// make the pool impossible to saturate; scaling the modelled time
	// onto the wall clock restores the resource contention the paper's
	// workstation would see. Zero disables the hold.
	GenWallScale float64
}

func (c Config) maxWorkers() int {
	if c.MaxGenWorkers == 0 {
		return 4
	}
	if c.MaxGenWorkers < 0 {
		return 1
	}
	return c.MaxGenWorkers
}

func (c Config) queueDeadline() time.Duration {
	if c.QueueDeadline <= 0 {
		return 500 * time.Millisecond
	}
	return c.QueueDeadline
}

func (c Config) admitBurst() int {
	if c.AdmitBurst <= 0 {
		return 2 * c.maxWorkers()
	}
	return c.AdmitBurst
}

func (c Config) cacheBytes() int64 {
	switch {
	case c.CacheBytes == 0:
		return 64 << 20
	case c.CacheBytes < 0:
		return 1 << 62
	default:
		return c.CacheBytes
	}
}

// retryAfter is the Retry-After advice for sheds that carry no better
// estimate (queue timeouts), and the floor under the estimates.
const retryAfter = time.Second

// The generation backend's breaker opens after 5 consecutive
// failures, cools down for 1s, and closes after 2 probe successes.
const (
	breakerFailures  = 5
	breakerCooldown  = time.Second
	breakerSuccesses = 2
)

// A Guard is the assembled protection: pool + bucket + breaker +
// singleflight + cache + counters. One Guard protects one generation
// backend.
type Guard struct {
	cfg     Config
	pool    *Pool
	bucket  *TokenBucket // nil when AdmitRPS <= 0
	breaker *Breaker
	flight  Group
	cache   *ByteLRU
	ctr     Counters

	releaser func(ok bool) // release, bound once: AdmitGen returns it
}

// NewGuard builds a Guard from cfg. The cache's eviction callback can
// be set afterwards with Cache().SetOnEvict (the serving layer uses it
// to drop generated assets alongside their page).
func NewGuard(cfg Config) *Guard {
	g := &Guard{
		cfg:  cfg,
		pool: NewPool(cfg.maxWorkers()),
	}
	if cfg.AdmitRPS > 0 {
		g.bucket = NewTokenBucket(cfg.AdmitRPS, float64(cfg.admitBurst()))
	}
	g.breaker = NewBreaker(breakerFailures, breakerCooldown, breakerSuccesses)
	g.breaker.OnChange = func(_, to BreakerState) {
		if to == BreakerOpen {
			g.ctr.BreakerOpens.Add(1)
		}
	}
	g.cache = NewByteLRU(cfg.cacheBytes())
	g.releaser = g.release
	return g
}

// Counters exposes the Guard's observability surface.
func (g *Guard) Counters() *Counters { return &g.ctr }

// Cache exposes the generated-content LRU.
func (g *Guard) Cache() *ByteLRU { return g.cache }

// Flight exposes the singleflight group coalescing generation misses.
func (g *Guard) Flight() *Group { return &g.flight }

// Pool exposes the generation worker pool.
func (g *Guard) Pool() *Pool { return g.pool }

// Breaker exposes the generation-backend circuit breaker.
func (g *Guard) Breaker() *Breaker { return g.breaker }

// GenHold converts a modelled generation time into the wall-clock
// worker occupancy configured by GenWallScale.
func (g *Guard) GenHold(simGen time.Duration) time.Duration {
	if g.cfg.GenWallScale <= 0 || simGen <= 0 {
		return 0
	}
	return time.Duration(float64(simGen) * g.cfg.GenWallScale)
}

// Level reports current pressure. The serving layer consults it per
// request, so it must stay cheap: three mutex reads, no allocation.
func (g *Guard) Level() Level {
	if g.breaker.State() != BreakerClosed {
		return LevelCritical
	}
	inflight, waiting := g.pool.Load()
	if waiting > 0 || (g.bucket != nil && g.bucket.Available() < 1) {
		return LevelSaturated
	}
	if inflight >= g.pool.Capacity() {
		return LevelQueued
	}
	return LevelHealthy
}

// AdmitGen runs the admission ladder for one generation request:
// breaker fail-fast, then token-bucket admission, then a worker slot
// bounded by the queue deadline. On success it returns a release
// function that must be called exactly once with the backend outcome
// (ok=false feeds the breaker's failure accounting). On rejection it
// returns a *ShedError carrying Retry-After advice.
//
// A free worker is taken without waiting, and without the queue
// deadline's context and timer, which only a request that queues needs.
func (g *Guard) AdmitGen(ctx context.Context) (release func(ok bool), err error) {
	probe, err := g.breaker.Allow()
	if err != nil {
		g.ctr.BreakerRejects.Add(1)
		return nil, &ShedError{Reason: "breaker-open", RetryAfter: g.retryAfterBreaker()}
	}
	// A request shed below the breaker never reached the backend: it
	// gives back a probe slot it claimed and records no outcome.
	if g.bucket != nil && !g.bucket.Allow() {
		g.breaker.Cancel(probe)
		g.ctr.AdmitRejects.Add(1)
		return nil, &ShedError{Reason: "admission", RetryAfter: g.retryAfterBucket()}
	}
	if !g.pool.TryAcquire() {
		if err := g.queue(ctx); err != nil {
			g.breaker.Cancel(probe)
			return nil, err
		}
	}
	g.ctr.Admitted.Add(1)
	return g.releaser, nil
}

// queue waits for a worker, at most the queue deadline.
func (g *Guard) queue(ctx context.Context) error {
	qctx, cancel := context.WithTimeout(ctx, g.cfg.queueDeadline())
	defer cancel()
	if err := g.pool.Acquire(qctx); err != nil {
		// A caller that vanished mid-queue (stream reset, client gone)
		// is not queue pressure: report its own error, not a shed.
		if ctx.Err() != nil {
			return ctx.Err()
		}
		g.ctr.QueueTimeouts.Add(1)
		return &ShedError{Reason: "queue-timeout", RetryAfter: retryAfter}
	}
	return nil
}

// release returns an admitted request's worker and reports its backend
// outcome to the breaker.
func (g *Guard) release(ok bool) {
	g.pool.Release()
	g.breaker.Record(ok)
}

// retryAfterBucket estimates when the next token lands, floored at
// retryAfter so clients do not hammer a nearly-empty bucket.
func (g *Guard) retryAfterBucket() time.Duration {
	return max(g.bucket.UntilNextToken(), retryAfter)
}

// retryAfterBreaker estimates the remaining cooldown before the
// breaker half-opens, floored at retryAfter.
func (g *Guard) retryAfterBreaker() time.Duration {
	return max(g.breaker.UntilProbe(), retryAfter)
}
