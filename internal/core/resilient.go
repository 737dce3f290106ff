package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"time"

	"sww/internal/device"
	"sww/internal/hpack"
	"sww/internal/http2"
	"sww/internal/telemetry"
)

// A DialFunc opens a fresh transport connection to the site. The
// resilient client calls it once per connection attempt, so fault
// plans (faultnet.Plan) can hand each dial a different failure mode.
type DialFunc func() (net.Conn, error)

// A RetryPolicy shapes the backoff between connection attempts.
type RetryPolicy struct {
	// MaxAttempts bounds connection-level tries per fetch (dial +
	// request together count as one attempt). Zero means 4.
	MaxAttempts int

	// AttemptTimeout bounds each individual attempt. A blackholed or
	// wedged connection then fails that attempt and retries on a
	// fresh one, instead of consuming the caller's whole deadline.
	// Zero means attempts are bounded only by the caller's context.
	AttemptTimeout time.Duration

	// BaseDelay is the first backoff; each further attempt multiplies
	// it by Multiplier up to MaxDelay. Zeros mean 10ms / 2.0 / 500ms.
	BaseDelay  time.Duration
	MaxDelay   time.Duration
	Multiplier float64

	// Jitter spreads each delay uniformly in [1-Jitter, 1+Jitter]
	// (e.g. 0.2 = ±20%). Zero disables jitter. Values outside [0, 1]
	// are clamped into it, and the jittered delay never drops below
	// max(1ms, BaseDelay/4): a Jitter near 1 used to be able to scale
	// a backoff to ~0, turning the retry loop into a hot loop.
	Jitter float64

	// Seed makes the jitter deterministic; 0 seeds from 1 (still
	// deterministic — there is no wall-clock entropy anywhere).
	Seed int64
}

func (p RetryPolicy) maxAttempts() int {
	if p.MaxAttempts <= 0 {
		return 4
	}
	return p.MaxAttempts
}

// minRetryDelay floors every backoff: even a fully jittered delay
// must still pace the retry loop.
const minRetryDelay = time.Millisecond

func (p RetryPolicy) delay(attempt int, rng *rand.Rand) time.Duration {
	base := p.BaseDelay
	if base <= 0 {
		base = 10 * time.Millisecond
	}
	maxd := p.MaxDelay
	if maxd <= 0 {
		maxd = 500 * time.Millisecond
	}
	mult := p.Multiplier
	if mult <= 1 {
		mult = 2
	}
	d := float64(base)
	for i := 1; i < attempt; i++ {
		d *= mult
		if d >= float64(maxd) {
			d = float64(maxd)
			break
		}
	}
	// Clamp Jitter into [0, 1]: above 1 the low edge of the spread
	// goes negative, below 0 is meaningless. Rejecting at use keeps
	// a hand-built policy from ever producing negative sleeps.
	j := p.Jitter
	if j < 0 {
		j = 0
	}
	if j > 1 {
		j = 1
	}
	if j > 0 {
		d *= 1 + j*(2*rng.Float64()-1)
	}
	if d > float64(maxd) {
		d = float64(maxd)
	}
	// Floor the jittered delay so Jitter near 1 cannot scale a
	// backoff to ~0 — a zero delay makes every retry immediate, which
	// is exactly the hammering backoff exists to prevent.
	floor := float64(minRetryDelay)
	if b4 := float64(base) / 4; b4 > floor {
		floor = b4
	}
	if floor > float64(maxd) {
		floor = float64(maxd)
	}
	if d < floor {
		d = floor
	}
	return time.Duration(d)
}

// A ResilientClient wraps dial + Fetch in the paper's failure ladder:
//
//  1. Transport faults (truncation, resets, dead peers, GOAWAY) are
//     retried on a fresh connection with exponential backoff and
//     jitter. GOAWAY replay is safe by construction: the http2 layer
//     only fails streams above the GOAWAY Last-Stream-ID, which the
//     peer guarantees it never processed (RFC 9113 §6.8), and
//     REFUSED_STREAM carries the same guarantee.
//  2. Generation failures (*GenerationError — a model error or a
//     blown SimBudget) degrade to traditional: the page is re-fetched
//     on a connection that advertises SETTINGS_GEN_ABILITY = GenNone,
//     so the server sends ready-made content. The result is marked
//     Degraded with the reason recorded.
//  3. Server overload (*ServerBusyError — a 503 from the server's
//     load-shed ladder) is retried on the SAME connection after
//     max(backoff, Retry-After): the transport is healthy, the server
//     just asked for a pause, and redialling would only add load.
//  4. Context cancellation and protocol violations are fatal.
//
// An attached RetryBudget (SetRetryBudget) gates rungs 1 and 3: every
// retry beyond the first attempt withdraws a token, and an empty
// bucket fails the fetch with ErrRetryBudgetExhausted instead. The
// degrade rung is exempt — it is a mode switch, not a re-send, and
// suppressing it would trade load for a worse answer.
type ResilientClient struct {
	dial   DialFunc
	dev    device.Profile
	proc   *PageProcessor
	policy RetryPolicy

	// endpoints, when set, replaces the single dial with a health-
	// tracked fleet: each reconnect picks a usable endpoint (sticky to
	// the last one used), transport outcomes feed its breaker, and a
	// down endpoint is skipped until its probe cooldown passes. This
	// is how an edge fails over between origins, and a terminal client
	// between edges.
	endpoints *EndpointSet

	// budget, when set, caps retries at a fraction of recent request
	// volume (SetRetryBudget in retrybudget.go). Shared between every
	// client that pulls from the same upstream, it turns a fleet-wide
	// outage into bounded extra load instead of a retry storm.
	budget *RetryBudget

	mu       sync.Mutex
	rng      *rand.Rand
	client   *Client
	degraded bool      // current cached client is a traditional one
	curEp    *Endpoint // endpoint that dialed the cached client
	prefer   string    // sticky endpoint preference across reconnects

	// tel/met: optional ops telemetry (SetTelemetry in telemetry.go).
	// The zero-value met no-ops, so the fetch path records blindly.
	tel *telemetry.Set
	met clientMetrics
}

// NewResilientClient builds a resilient generative client. proc may be
// nil for an always-traditional client (then only the retry ladder
// applies).
func NewResilientClient(dial DialFunc, dev device.Profile, proc *PageProcessor, policy RetryPolicy) *ResilientClient {
	seed := policy.Seed
	if seed == 0 {
		seed = 1
	}
	return &ResilientClient{
		dial:   dial,
		dev:    dev,
		proc:   proc,
		policy: policy,
		rng:    rand.New(rand.NewSource(seed)),
	}
}

// NewResilientClientEndpoints builds a resilient client over a fleet
// of endpoints instead of a single dial: reconnects pick a usable
// endpoint from the set (failing over away from broken ones), and
// every attempt's transport outcome feeds that endpoint's breaker.
func NewResilientClientEndpoints(eps *EndpointSet, dev device.Profile, proc *PageProcessor, policy RetryPolicy) *ResilientClient {
	rc := NewResilientClient(nil, dev, proc, policy)
	rc.endpoints = eps
	return rc
}

// Endpoints returns the endpoint set, nil for a single-dial client.
func (rc *ResilientClient) Endpoints() *EndpointSet { return rc.endpoints }

// CurrentEndpoint returns the name of the endpoint that dialed the
// live cached connection, "" when none.
func (rc *ResilientClient) CurrentEndpoint() string {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	if rc.curEp == nil {
		return ""
	}
	return rc.curEp.Name
}

// Close drops the cached connection, if any.
func (rc *ResilientClient) Close() error {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	return rc.dropLocked()
}

func (rc *ResilientClient) dropLocked() error {
	rc.curEp = nil
	if rc.client == nil {
		return nil
	}
	err := rc.client.Close()
	rc.client = nil
	return err
}

// getClient returns a cached connection matching the wanted mode, or
// dials a fresh one. A degraded fetch needs a GenNone connection
// because SETTINGS_GEN_ABILITY is fixed at the handshake in this
// implementation. ctx bounds the connect phase (dial + handshake):
// without it a blackholed peer would pin the attempt on the http2
// layer's own handshake timeout (10s), blowing far past the policy's
// AttemptTimeout.
func (rc *ResilientClient) getClient(ctx context.Context, degraded bool) (*Client, error) {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	if rc.client != nil && rc.degraded == degraded {
		return rc.client, nil
	}
	rc.dropLocked()
	dial := rc.dial
	var ep *Endpoint
	var probe bool
	if rc.endpoints != nil {
		var err error
		ep, probe, err = rc.endpoints.Pick(rc.prefer)
		if err != nil {
			// Everything down and resting: a retryable condition — a
			// backoff later some endpoint's probe cooldown may be over.
			return nil, &http2.TransportError{Op: "pick", Err: err}
		}
		rc.prefer = ep.Name
		dial = ep.Dial
	}
	cl, err := rc.connect(ctx, dial, degraded)
	if err != nil {
		switch {
		case ep == nil:
		case errors.Is(err, context.Canceled):
			// The caller gave up, not the endpoint: book nothing, and
			// give back the probe slot if this connect held it.
			ep.br.Cancel(probe)
		default:
			ep.ReportFailure()
		}
		// Setup failures are connect-phase faults (nothing was
		// requested yet), so a fresh dial is always safe.
		return nil, err
	}
	rc.client = cl
	rc.degraded = degraded
	rc.curEp = ep
	return cl, nil
}

// connect runs dial + handshake raced against ctx. On loss it closes
// the half-open conn so the abandoned handshake goroutine unblocks
// and cleans up after itself; the stale-serve path depends on this
// bound — an edge must learn its origin is gone within one attempt,
// not one http2 handshake timeout. A deadline is flattened with %v on
// purpose: Retryable classifies wrapped context errors as fatal, and
// a connect that outlived its deadline is a retryable fault of the
// peer. A cancellation is wrapped: the caller gave up, and nothing is
// retried or booked for it.
func (rc *ResilientClient) connect(ctx context.Context, dial DialFunc, degraded bool) (*Client, error) {
	proc := rc.proc
	if degraded {
		proc = nil
	}
	type result struct {
		cl  *Client
		err error
	}
	done := make(chan result, 1)
	dialed := make(chan net.Conn, 1)
	go func() {
		nc, err := dial()
		if err != nil {
			done <- result{nil, &http2.TransportError{Op: "dial", Err: err}}
			return
		}
		dialed <- nc
		cl, err := NewClient(nc, rc.dev, proc)
		if err != nil {
			nc.Close()
			done <- result{nil, &http2.TransportError{Op: "handshake", Err: err}}
			return
		}
		done <- result{cl, nil}
	}()
	select {
	case r := <-done:
		return r.cl, r.err
	case <-ctx.Done():
		select {
		case nc := <-dialed:
			nc.Close()
		default:
			// Still dialing: both channels are buffered, so the goroutine
			// never blocks past the http2 handshake bound.
		}
		// A dial that was still in flight may yet finish its handshake;
		// nobody will ever use (or close) that client but us.
		go func() {
			if r := <-done; r.cl != nil {
				r.cl.Close()
			}
		}()
		err := ctx.Err()
		if errors.Is(err, context.Canceled) {
			return nil, &http2.TransportError{Op: "connect", Err: fmt.Errorf("connect aborted: %w", err)}
		}
		return nil, &http2.TransportError{Op: "connect", Err: fmt.Errorf("connect aborted: %v", err)}
	}
}

// endpointSuccess / endpointFailure feed the live connection's
// endpoint breaker. A "success" is any proof the peer is alive and
// talking — including a 503 busy reply — while a failure is a
// transport-level fault. Both no-op for single-dial clients and when
// no endpoint-dialed connection is live (a dial failure was already
// reported inside getClient).
func (rc *ResilientClient) endpointSuccess() {
	rc.mu.Lock()
	ep := rc.curEp
	rc.mu.Unlock()
	if ep != nil {
		ep.ReportSuccess()
	}
}

func (rc *ResilientClient) endpointFailure() {
	rc.mu.Lock()
	ep := rc.curEp
	rc.mu.Unlock()
	if ep != nil {
		ep.ReportFailure()
	}
}

// Rotate writes off the endpoint behind the cached connection for one
// probe cooldown and drops the connection, so the next attempt picks
// another endpoint. It is for a peer that answers but must get no
// traffic — a fenced origin — which no transport outcome would move.
func (rc *ResilientClient) Rotate() {
	rc.mu.Lock()
	ep := rc.curEp
	rc.dropLocked()
	rc.mu.Unlock()
	if ep != nil {
		ep.br.Trip()
	}
}

// drop discards the cached connection after a failure.
func (rc *ResilientClient) drop() {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	rc.dropLocked()
}

// Fetch is FetchContext without a deadline.
func (rc *ResilientClient) Fetch(path string) (*FetchResult, error) {
	return rc.FetchContext(context.Background(), path)
}

// FetchContext fetches path through the failure ladder described on
// ResilientClient. The returned result's Attempts, Degraded and
// DegradeReason fields record what it took.
func (rc *ResilientClient) FetchContext(ctx context.Context, path string) (*FetchResult, error) {
	var res *FetchResult
	attempts, degradeReason, err := rc.ladder(ctx, "fetch", path, func(actx context.Context, degraded bool) error {
		cl, err := rc.getClient(actx, degraded)
		if err == nil {
			res, err = cl.FetchContext(actx, path)
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	res.Attempts = attempts
	res.Degraded = degradeReason != ""
	res.DegradeReason = degradeReason
	return res, nil
}

// FetchRawContext fetches path in transit form (no page processing,
// no local generation) through the same retry ladder; its degrade
// rung is unreachable, since a raw attempt never generates. This is
// the edge tier's origin-pull path: the reply's prompt page or asset
// bytes are re-served verbatim, so content crosses the backbone
// exactly once and prompt pages stay prompts. extra headers ride on
// the request — the edge forwards the terminal client's ability there.
func (rc *ResilientClient) FetchRawContext(ctx context.Context, path string, extra ...hpack.HeaderField) (*RawReply, error) {
	var raw *RawReply
	_, _, err := rc.ladder(ctx, "raw fetch", path, func(actx context.Context, _ bool) error {
		cl, err := rc.getClient(actx, rc.rawDegraded())
		if err == nil {
			raw, err = cl.FetchRaw(actx, path, extra...)
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	return raw, nil
}

// rawDegraded picks which handshake flavor a raw fetch reuses. Raw
// fetches don't care about the connection's advertised ability (the
// forwarded-ability header does that work), so reuse whatever mode
// the cached connection is already in rather than forcing a redial.
func (rc *ResilientClient) rawDegraded() bool {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	return rc.client != nil && rc.degraded
}

// ladder is the one retry loop behind both fetch flavors. try makes
// one attempt — connect in the wanted mode, issue the request — under
// the attempt's context; what ("fetch", "raw fetch") names the flavor
// in errors. On success it returns how many attempts it took and,
// when the degrade rung fired, why.
func (rc *ResilientClient) ladder(ctx context.Context, what, path string, try func(actx context.Context, degraded bool) error) (attempts int, degradeReason string, err error) {
	var lastErr error
	degraded := false
	maxAttempts := rc.policy.maxAttempts()
	budget := rc.retryBudget()
	budget.Deposit()
	for attempt := 1; attempt <= maxAttempts; attempt++ {
		if err := ctx.Err(); err != nil {
			return 0, "", err
		}
		rc.met.attempts.Inc()
		if attempt > 1 {
			rc.met.retries.Inc()
		}
		err := rc.attempt(ctx, degraded, try)
		if err == nil {
			rc.endpointSuccess()
			return attempt, degradeReason, nil
		}
		lastErr = err

		var genErr *GenerationError
		var busy *ServerBusyError
		switch {
		case errors.As(err, &busy):
			rc.endpointSuccess()
			// The server shed this request (503 + Retry-After): the
			// connection is healthy — the server answered — so keep it
			// and wait out max(backoff, Retry-After) before retrying.
			// Dropping and redialling here would convert an overload
			// signal into a reconnect storm.
			rc.met.busy.Inc()
			if attempt < maxAttempts {
				if !budget.Withdraw() {
					return 0, "", fmt.Errorf("core: %s %s: %w: %v", what, path, ErrRetryBudgetExhausted, lastErr)
				}
				d := rc.nextDelay(attempt)
				if busy.RetryAfter > d {
					d = busy.RetryAfter
				}
				// Cap the wait at the caller's deadline: a Retry-After
				// beyond it cannot lead to a successful retry, so fail
				// fast with the busy error instead of sleeping until
				// the context expires and surfacing a bare deadline.
				if dl, ok := ctx.Deadline(); ok {
					if remain := time.Until(dl); d > remain {
						return 0, "", fmt.Errorf("core: %s %s: retry wait %v exceeds deadline: %w", what, path, d, lastErr)
					}
				}
				rc.met.backoff.Observe(d)
				if err := rc.sleep(ctx, d); err != nil {
					return 0, "", err
				}
			}
		case errors.As(err, &genErr) && !degraded:
			// The transport worked; local generation did not. Step
			// down the ladder instead of burning retry budget —
			// but only once.
			degraded = true
			if errors.Is(genErr.Err, ErrGenDeadline) {
				degradeReason = "generation deadline exceeded"
			} else {
				degradeReason = fmt.Sprintf("generation failed: %v", genErr.Err)
			}
			rc.met.degrades.Inc()
			rc.tel.Eventf("degrade", "%s: %s", path, degradeReason)
			rc.endpointSuccess() // the transport held; generation failed
			rc.drop()            // need a GenNone handshake
		case http2.Retryable(err):
			rc.endpointFailure()
			rc.drop()
			if attempt < maxAttempts {
				if !budget.Withdraw() {
					return 0, "", fmt.Errorf("core: %s %s: %w: %v", what, path, ErrRetryBudgetExhausted, lastErr)
				}
				d := rc.nextDelay(attempt)
				rc.met.backoff.Observe(d)
				if err := rc.sleep(ctx, d); err != nil {
					return 0, "", err
				}
			}
		default:
			return 0, "", err
		}
	}
	return 0, "", fmt.Errorf("core: %s %s: %d attempts exhausted: %w", what, path, maxAttempts, lastErr)
}

// attempt runs try under the policy's per-attempt deadline.
func (rc *ResilientClient) attempt(ctx context.Context, degraded bool, try func(actx context.Context, degraded bool) error) error {
	actx := ctx
	if t := rc.policy.AttemptTimeout; t > 0 {
		var cancel context.CancelFunc
		actx, cancel = context.WithTimeout(ctx, t)
		defer cancel()
	}
	err := try(actx, degraded)
	if err != nil && actx.Err() != nil && ctx.Err() == nil {
		// Only the per-attempt deadline fired: the connection is
		// wedged (blackholed peer, stalled window) but the caller
		// still has budget — classify as a retryable transport fault.
		// %v, not %w: Retryable treats wrapped context errors as
		// fatal, and this one was ours, not the caller's.
		return &http2.TransportError{Op: "attempt",
			Err: fmt.Errorf("deadline %v exceeded: %v", rc.policy.AttemptTimeout, err)}
	}
	return err
}

// nextDelay serializes rng access so concurrent fetches stay
// race-free (each still deterministic in sequence).
func (rc *ResilientClient) nextDelay(attempt int) time.Duration {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	return rc.policy.delay(attempt, rc.rng)
}

func (rc *ResilientClient) sleep(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return nil
	}
	select {
	case <-time.After(d):
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
