package serve

import (
	"math"
	"sync"
	"time"
)

// tokenBucket is the service's admission controller: requests each cost one
// token, tokens refill at a fixed rate up to a burst capacity, and a request
// arriving to an empty bucket is rejected with the time until a token frees
// up (the 429 Retry-After value). A nil bucket admits everything.
type tokenBucket struct {
	mu     sync.Mutex
	rate   float64 // tokens per second
	burst  float64 // capacity
	tokens float64
	last   time.Time
	now    func() time.Time // injectable for tests
}

// newTokenBucket returns a bucket admitting rate requests per second with
// the given burst capacity (<= 0 selects ceil(rate), at least 1). A rate
// <= 0 disables admission control (nil bucket).
func newTokenBucket(rate float64, burst int) *tokenBucket {
	if rate <= 0 {
		return nil
	}
	if burst <= 0 {
		burst = int(math.Ceil(rate))
		if burst < 1 {
			burst = 1
		}
	}
	return &tokenBucket{rate: rate, burst: float64(burst), tokens: float64(burst), now: time.Now}
}

// take admits one request, or reports how long until the next token.
func (b *tokenBucket) take() (ok bool, retryAfter time.Duration) {
	if b == nil {
		return true, 0
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	now := b.now()
	if !b.last.IsZero() {
		b.tokens = math.Min(b.burst, b.tokens+float64(now.Sub(b.last).Seconds()*b.rate))
	}
	b.last = now
	if b.tokens >= 1 {
		b.tokens--
		return true, 0
	}
	return false, time.Duration((1 - b.tokens) / b.rate * float64(time.Second))
}

// refund returns an admitted request's token, capped at the burst capacity.
// Requests rejected before any solving (bad body, oversized body) give their
// token back so a stream of malformed posts cannot starve valid solves.
func (b *tokenBucket) refund() {
	if b == nil {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.tokens = math.Min(b.burst, b.tokens+1)
}
