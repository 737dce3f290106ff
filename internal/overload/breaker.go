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
	// BreakerHalfOpen: one probe request at a time tests the peer;
	// a run of probe successes closes, a probe failure re-opens.
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
// open (or its half-open probe slot is taken).
var ErrBreakerOpen = errors.New("overload: circuit breaker open")

// A Breaker is a consecutive-failure circuit breaker on an injected
// clock, the one answer to "should I send this peer traffic?": closed
// → open after a run of failures, open → half-open after a cooldown,
// half-open → closed after a run of probe successes (or back to open on
// a probe failure). Half-open lets one probe through at a time. The
// Guard runs one over its generation backend, and every core.Endpoint
// one over its peer.
//
// Only the outcome of a claimed probe moves a breaker that is not
// closed. An outcome recorded while open, or half-open with no probe
// claimed, is from a request let through before the trip and is
// dropped: a late success does not close the breaker, and a late
// failure does not restart its cooldown. While a probe is out, the
// next outcome recorded is taken as its answer.
type Breaker struct {
	// OnChange, when set, is called (outside the lock) each time the
	// state moves to open (a failure run, a failed probe, Trip) or to
	// closed. Set it before concurrent use.
	OnChange func(from, to BreakerState)

	failuresToOpen   int
	cooldown         time.Duration
	successesToClose int
	now              func() time.Time

	mu        sync.Mutex
	state     BreakerState
	failures  int  // consecutive failures; kept while open, reset on close
	successes int  // consecutive probe successes while half-open
	probing   bool // the half-open probe slot is claimed
	openedAt  time.Time
}

// NewBreaker builds a closed breaker that opens after failures
// consecutive failures, rests for cooldown, and closes after successes
// consecutive probe successes. now may be nil for the wall clock.
func NewBreaker(failures int, cooldown time.Duration, successes int, now func() time.Time) *Breaker {
	if now == nil {
		now = time.Now
	}
	return &Breaker{failuresToOpen: failures, cooldown: cooldown, successesToClose: successes, now: now}
}

// State reports the current position, applying any due open→half-open
// transition first so readers never see a stale open.
func (b *Breaker) State() BreakerState {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.maybeHalfOpenLocked()
	return b.state
}

// Failures reports the current run of consecutive failures. It is
// kept while the breaker is open and reset when it closes.
func (b *Breaker) Failures() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.failures
}

func (b *Breaker) maybeHalfOpenLocked() {
	if b.state == BreakerOpen && b.now().Sub(b.openedAt) >= b.cooldown {
		b.state = BreakerHalfOpen
		b.successes = 0
	}
}

// UntilProbe reports the remaining cooldown before a half-open probe
// is allowed (zero when not open).
func (b *Breaker) UntilProbe() time.Duration {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.maybeHalfOpenLocked()
	if b.state != BreakerOpen {
		return 0
	}
	return b.cooldown - b.now().Sub(b.openedAt)
}

// Allow asks to pass one request. Closed, it lets it through; half-open
// with the probe slot free, it claims the slot and reports probe; else
// it returns ErrBreakerOpen. A passed request is answered by exactly
// one Record (its outcome) or Cancel (it never reached the peer).
func (b *Breaker) Allow() (probe bool, err error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.maybeHalfOpenLocked()
	switch {
	case b.state == BreakerClosed:
		return false, nil
	case b.state == BreakerOpen || b.probing:
		return false, ErrBreakerOpen
	}
	b.probing = true
	return true, nil
}

// Cancel answers an Allow whose request never reached the peer (an
// admission reject, a queue timeout), given Allow's probe: a claimed
// probe slot is given back, and no outcome is recorded.
func (b *Breaker) Cancel(probe bool) {
	if !probe {
		return
	}
	b.mu.Lock()
	b.probing = false
	b.mu.Unlock()
}

// Record reports one request's outcome (see the type's rule for
// outcomes that arrive while the breaker is not closed).
func (b *Breaker) Record(ok bool) {
	b.mu.Lock()
	from := b.state
	switch {
	case b.state == BreakerClosed:
		if ok {
			b.failures = 0
		} else if b.failures++; b.failures >= b.failuresToOpen {
			b.tripLocked()
		}
	case !b.probing:
		// A late outcome: no probe is out, so it moves nothing.
	case !ok:
		b.failures++
		b.tripLocked()
	default:
		b.probing = false
		if b.successes++; b.successes >= b.successesToClose {
			b.state = BreakerClosed
			b.failures = 0
		}
	}
	b.unlock(from)
}

// Trip opens the breaker now, whatever its state, for a caller that
// has learned the peer must get no traffic although it answers (a
// fenced origin). An open breaker's cooldown restarts.
func (b *Breaker) Trip() {
	b.mu.Lock()
	from := b.state
	b.tripLocked()
	b.unlock(from)
}

func (b *Breaker) tripLocked() {
	b.state = BreakerOpen
	b.openedAt = b.now()
	b.successes = 0
	b.probing = false
}

// unlock releases the lock and fires OnChange if the state moved away
// from from.
func (b *Breaker) unlock(from BreakerState) {
	to, fn := b.state, b.OnChange
	b.mu.Unlock()
	if fn != nil && to != from {
		fn(from, to)
	}
}
