package core

import (
	"context"
	"errors"
	"fmt"
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

// A RetryPolicy bounds the connection attempts of a fetch.
type RetryPolicy struct {
	// MaxAttempts bounds connection-level tries per fetch (dial +
	// request together count as one attempt). Zero means 4.
	MaxAttempts int

	// PeerTimeout bounds each connect (dial, preface, the peer's
	// SETTINGS) and is the keepalive interval of the connections the
	// client dials: a dead or blackholed peer fails its attempt as a
	// retryable transport fault, a live one is waited for. Zero leaves
	// both to the caller's context.
	PeerTimeout time.Duration
}

func (p RetryPolicy) maxAttempts() int {
	if p.MaxAttempts <= 0 {
		return 4
	}
	return p.MaxAttempts
}

// RetryBaseDelay is the backoff after a fetch's first failed attempt;
// each further one doubles it, up to RetryMaxDelay.
const (
	RetryBaseDelay = 10 * time.Millisecond
	RetryMaxDelay  = 500 * time.Millisecond
)

// retryDelay is the backoff after the given attempt (1-based).
func retryDelay(attempt int) time.Duration {
	d := RetryBaseDelay
	for i := 1; i < attempt && d < RetryMaxDelay; i++ {
		d *= 2
	}
	return min(d, RetryMaxDelay)
}

// A ResilientClient wraps dial + Fetch in the paper's failure ladder:
//
//  1. Transport faults (truncation, resets, dead peers, GOAWAY) are
//     retried on a fresh connection with exponential backoff. GOAWAY
//     replay is safe by construction: the http2 layer only fails
//     streams above the GOAWAY Last-Stream-ID, which the peer
//     guarantees it never processed (RFC 9113 §6.8), and
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
	return &ResilientClient{dial: dial, dev: dev, proc: proc, policy: policy}
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

// A lease is the connection one attempt ran on: the client and the
// endpoint that dialed it (nil for a single-dial client). The attempt's
// outcome is booked against that endpoint, whatever is cached when it
// returns.
type lease struct {
	cl *Client
	ep *Endpoint
}

// getClient returns a cached connection matching the wanted mode, or
// dials a fresh one. A degraded fetch needs a GenNone connection
// because SETTINGS_GEN_ABILITY is fixed at the handshake in this
// implementation.
func (rc *ResilientClient) getClient(ctx context.Context, degraded bool) (lease, error) {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	if rc.client != nil && rc.degraded == degraded {
		return lease{rc.client, rc.curEp}, nil
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
			return lease{}, &http2.TransportError{Op: "pick", Err: err}
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
		return lease{}, err
	}
	rc.client = cl
	rc.degraded = degraded
	rc.curEp = ep
	return lease{cl, ep}, nil
}

// connect runs dial + handshake raced against ctx and PeerTimeout. On
// loss it closes the half-open conn so the abandoned handshake
// goroutine unblocks and cleans up after itself; the stale-serve path
// depends on this bound — an edge must learn its origin is gone within
// one PeerTimeout, not one http2 handshake timeout. A deadline is
// flattened with %v on purpose: Retryable classifies wrapped context
// errors as fatal, and a connect that outlived its deadline is a
// retryable fault of the peer. A cancellation is wrapped: the caller
// gave up, and nothing is retried or booked for it.
func (rc *ResilientClient) connect(ctx context.Context, dial DialFunc, degraded bool) (*Client, error) {
	proc := rc.proc
	if degraded {
		proc = nil
	}
	if t := rc.policy.PeerTimeout; t > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, t)
		defer cancel()
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
		cl, err := newClient(nc, rc.dev, proc, http2.Config{
			GenAbility: clientAbility(proc), KeepAliveInterval: rc.policy.PeerTimeout})
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

// success and fail feed the breaker of the endpoint an attempt ran on.
// A success is any proof the peer is alive and talking — including a
// 503 busy reply — while a failure is a transport-level fault, and
// drops the attempt's connection. Neither books anything for a
// single-dial client or an attempt that got no connection (a dial
// failure was already reported inside getClient).
func (l lease) success() {
	if l.ep != nil {
		l.ep.ReportSuccess()
	}
}

func (rc *ResilientClient) fail(l lease) {
	rc.release(l.cl)
	if l.ep != nil {
		l.ep.ReportFailure()
	}
}

// release drops the cached connection if it is still cl: a later
// attempt may already have dialed its successor.
func (rc *ResilientClient) release(cl *Client) {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	if cl != nil && rc.client == cl {
		rc.dropLocked()
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

// Fetch is FetchContext without a deadline.
func (rc *ResilientClient) Fetch(path string) (*FetchResult, error) {
	return rc.FetchContext(context.Background(), path)
}

// FetchContext fetches path through the failure ladder described on
// ResilientClient. The returned result's Attempts, Degraded and
// DegradeReason fields record what it took.
func (rc *ResilientClient) FetchContext(ctx context.Context, path string) (*FetchResult, error) {
	var res *FetchResult
	attempts, degradeReason, err := rc.ladder(ctx, "fetch", path, func(degraded bool) (lease, error) {
		l, err := rc.getClient(ctx, degraded)
		if err == nil {
			res, err = l.cl.FetchContext(ctx, path)
		}
		return l, err
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
// The reply comes back by value, so the edge keeps it inside its cache
// entry without a heap object of its own.
func (rc *ResilientClient) FetchRawContext(ctx context.Context, path string, extra ...hpack.HeaderField) (RawReply, error) {
	var raw RawReply
	_, _, err := rc.ladder(ctx, "raw fetch", path, func(bool) (lease, error) {
		l, err := rc.getClient(ctx, rc.rawDegraded())
		if err == nil {
			raw, err = l.cl.fetchRaw(ctx, path, extra...)
		}
		return l, err
	})
	if err != nil {
		return RawReply{}, err
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
// one attempt under ctx — connect in the wanted mode, issue the
// request — and returns the connection it ran on, whose endpoint the
// outcome is booked against; what ("fetch", "raw fetch") names the
// flavor in errors. On
// success it returns how many attempts it took and, when the degrade
// rung fired, why.
func (rc *ResilientClient) ladder(ctx context.Context, what, path string, try func(degraded bool) (lease, error)) (attempts int, degradeReason string, err error) {
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
		l, err := try(degraded)
		if err == nil {
			l.success()
			return attempt, degradeReason, nil
		}
		lastErr = err

		var genErr *GenerationError
		var busy *ServerBusyError
		switch {
		case errors.As(err, &busy):
			l.success()
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
				d := retryDelay(attempt)
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
			l.success()      // the transport held; generation failed
			rc.release(l.cl) // need a GenNone handshake
		case http2.Retryable(err):
			rc.fail(l)
			if attempt < maxAttempts {
				if !budget.Withdraw() {
					return 0, "", fmt.Errorf("core: %s %s: %w: %v", what, path, ErrRetryBudgetExhausted, lastErr)
				}
				d := retryDelay(attempt)
				rc.met.backoff.Observe(d)
				if err := rc.sleep(ctx, d); err != nil {
					return 0, "", err
				}
			}
		default:
			if errors.Is(ctx.Err(), context.DeadlineExceeded) {
				// The deadline ended an attempt on a live peer (a dead
				// one fails keepalive first): its fault, as in connect.
				// A cancellation books nothing.
				rc.fail(l)
			}
			return 0, "", err
		}
	}
	return 0, "", fmt.Errorf("core: %s %s: %d attempts exhausted: %w", what, path, maxAttempts, lastErr)
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
