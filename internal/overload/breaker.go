package overload

import (
	"errors"
	"sync"
	"time"
)

// BreakerState is the circuit breaker's position.
type BreakerState int

const (
	// BreakerClosed: requests flow; consecutive failures are counted.
	BreakerClosed BreakerState = iota
	// BreakerOpen: requests fail fast until the cooldown elapses.
	BreakerOpen
	// BreakerHalfOpen: a bounded budget of probe requests tests the
	// backend; success closes, failure re-opens.
	BreakerHalfOpen
)

func (s BreakerState) String() string {
	switch s {
	case BreakerClosed:
		return "closed"
	case BreakerOpen:
		return "open"
	case BreakerHalfOpen:
		return "half-open"
	default:
		return "unknown"
	}
}

// ErrBreakerOpen reports a request rejected because the breaker is
// open (or the half-open probe budget is spent).
var ErrBreakerOpen = errors.New("overload: circuit breaker open")

// The breaker's thresholds: trip after 5 consecutive failures, cool
// down 1s, probe with 1 request at a time, close after 2 consecutive
// probe successes.
const (
	breakerFailures  = 5
	breakerCooldown  = time.Second
	breakerProbes    = 1
	breakerSuccesses = 2
)

// A Breaker protects one generation backend: closed → open after a
// run of failures, open → half-open after a cooldown, half-open →
// closed after a run of probe successes (or back to open on any probe
// failure).
type Breaker struct {
	// OnOpen, when set, is called (outside the lock) each time the
	// breaker trips from closed or half-open to open.
	OnOpen func()

	now func() time.Time

	mu        sync.Mutex
	state     BreakerState
	failures  int // consecutive failures while closed
	successes int // consecutive successes while half-open
	probes    int // in-flight half-open probes
	openedAt  time.Time
}

// NewBreaker builds a closed breaker. now may be nil for the wall
// clock.
func NewBreaker(now func() time.Time) *Breaker {
	if now == nil {
		now = time.Now
	}
	return &Breaker{now: now}
}

// State reports the current position, applying any due open→half-open
// transition first so readers never see a stale open.
func (b *Breaker) State() BreakerState {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.maybeHalfOpenLocked()
	return b.state
}

func (b *Breaker) maybeHalfOpenLocked() {
	if b.state == BreakerOpen && b.now().Sub(b.openedAt) >= breakerCooldown {
		b.state = BreakerHalfOpen
		b.probes = 0
		b.successes = 0
	}
}

// UntilProbe reports the remaining cooldown before half-open probes
// are allowed (zero when not open).
func (b *Breaker) UntilProbe() time.Duration {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.maybeHalfOpenLocked()
	if b.state != BreakerOpen {
		return 0
	}
	return breakerCooldown - b.now().Sub(b.openedAt)
}

// Allow asks to pass one request. On success it returns a done
// callback that must be invoked exactly once with the backend
// outcome; on rejection it returns ErrBreakerOpen.
func (b *Breaker) Allow() (done func(ok bool), err error) {
	if err := b.allow(); err != nil {
		return nil, err
	}
	return b.record, nil
}

// allow is Allow without the callback: a nil error must be answered
// by exactly one record.
func (b *Breaker) allow() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.maybeHalfOpenLocked()
	switch b.state {
	case BreakerOpen:
		return ErrBreakerOpen
	case BreakerHalfOpen:
		if b.probes >= breakerProbes {
			return ErrBreakerOpen
		}
		b.probes++
	}
	return nil
}

func (b *Breaker) record(ok bool) {
	b.mu.Lock()
	tripped := false
	switch b.state {
	case BreakerClosed:
		if ok {
			b.failures = 0
			break
		}
		b.failures++
		if b.failures >= breakerFailures {
			b.tripLocked()
			tripped = true
		}
	case BreakerHalfOpen:
		if b.probes > 0 {
			b.probes--
		}
		if !ok {
			b.tripLocked()
			tripped = true
			break
		}
		b.successes++
		if b.successes >= breakerSuccesses {
			b.state = BreakerClosed
			b.failures = 0
			b.successes = 0
			b.probes = 0
		}
	case BreakerOpen:
		// A late outcome from before the trip; nothing to update.
	}
	cb := b.OnOpen
	b.mu.Unlock()
	if tripped && cb != nil {
		cb()
	}
}

func (b *Breaker) tripLocked() {
	b.state = BreakerOpen
	b.openedAt = b.now()
	b.failures = 0
	b.successes = 0
	b.probes = 0
}
