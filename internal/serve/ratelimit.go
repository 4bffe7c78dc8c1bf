package serve

import (
	"sync"
	"time"

	"skewvar/internal/obs"
)

// tenantLimiter is per-tenant token-bucket admission rate limiting for
// POST /jobs. Each tenant owns an independent bucket of `burst` tokens
// refilled continuously at `rate` tokens/second; a submission spends one
// token, and a drained bucket rejects with the time until one token has
// accumulated (the Retry-After the handler reports). Time comes from an
// injected obs.Clock, so tests drive refill with a FakeClock and the
// admission tables are exact.
type tenantLimiter struct {
	rate  float64 // tokens per second
	burst float64
	clock obs.Clock

	mu      sync.Mutex
	buckets map[string]*bucket
}

// bucket is one tenant's token state: the balance as of the last spend
// attempt. Refill is computed lazily from the clock delta, so an idle
// bucket costs nothing.
type bucket struct {
	tokens float64
	last   int64 // clock reading of the previous refill, ns
}

// newTenantLimiter builds a limiter admitting rate jobs/second with the
// given burst per tenant. A nil clock selects the process-monotonic wall
// clock (obs.WallClock): rate limiting is admission policy, not job
// computation, so when tokens refill never reaches a job's artifacts.
// Callers gate on rate > 0; burst has been defaulted by the config.
func newTenantLimiter(rate float64, burst int, clock obs.Clock) *tenantLimiter {
	if clock == nil {
		clock = obs.WallClock{}
	}
	return &tenantLimiter{rate: rate, burst: float64(burst), clock: clock, buckets: map[string]*bucket{}}
}

// allow spends one token from the tenant's bucket. When the bucket is
// empty it reports false and how long until a full token will have
// accumulated — the client's earliest useful retry.
func (l *tenantLimiter) allow(tenant string) (bool, time.Duration) {
	now := l.clock.Now()
	l.mu.Lock()
	defer l.mu.Unlock()
	b := l.buckets[tenant]
	if b == nil {
		// A new tenant starts with a full burst allowance.
		b = &bucket{tokens: l.burst, last: now}
		l.buckets[tenant] = b
	}
	// The clock is read before the lock, so a caller can arrive holding an
	// older reading than the bucket's; only a newer reading refills, or the
	// next caller would be credited the same interval twice.
	if dt := now - b.last; dt > 0 {
		b.tokens += float64(dt) * l.rate / 1e9
		if b.tokens > l.burst {
			b.tokens = l.burst
		}
		b.last = now
	}
	if b.tokens >= 1 {
		b.tokens--
		return true, 0
	}
	// Deficit to the next whole token, converted back to wall time.
	wait := time.Duration((1 - b.tokens) / l.rate * 1e9)
	return false, wait
}

// retryAfterSeconds renders a wait as the integral seconds of an HTTP
// Retry-After header, rounded up so the client never retries early.
func retryAfterSeconds(wait time.Duration) int {
	s := int(wait / time.Second)
	if wait%time.Second != 0 || s == 0 {
		s++
	}
	return s
}
