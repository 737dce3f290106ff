package overload

import (
	"sync"
	"time"
)

// A TokenBucket is the admission controller: tokens refill at a
// sustained rate up to a burst depth, and each admitted generation
// costs one token.
type TokenBucket struct {
	mu     sync.Mutex
	rate   float64 // tokens per second
	burst  float64
	tokens float64
	last   time.Time
}

// NewTokenBucket builds a full bucket refilling at rate tokens/second
// with the given depth.
func NewTokenBucket(rate, burst float64) *TokenBucket {
	if burst < 1 {
		burst = 1
	}
	return &TokenBucket{rate: rate, burst: burst, tokens: burst, last: time.Now()}
}

// refillLocked advances the bucket to the current time.
func (b *TokenBucket) refillLocked() {
	t := time.Now()
	elapsed := t.Sub(b.last)
	if elapsed <= 0 {
		return
	}
	b.last = t
	b.tokens += b.rate * elapsed.Seconds()
	if b.tokens > b.burst {
		b.tokens = b.burst
	}
}

// Allow consumes one token if available.
func (b *TokenBucket) Allow() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.refillLocked()
	if b.tokens >= 1 {
		b.tokens--
		return true
	}
	return false
}

// Available reports the current token count without consuming.
func (b *TokenBucket) Available() float64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.refillLocked()
	return b.tokens
}

// UntilNextToken reports how long until one full token is available
// (zero when one already is, a very large value when rate is zero).
func (b *TokenBucket) UntilNextToken() time.Duration {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.refillLocked()
	if b.tokens >= 1 {
		return 0
	}
	if b.rate <= 0 {
		return 1 << 62
	}
	return time.Duration((1 - b.tokens) / b.rate * float64(time.Second))
}
