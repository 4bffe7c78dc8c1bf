package serve

import (
	"bytes"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// manualClock is a hand-stepped obs.Clock: time moves only when the test
// says so, making every refill computation exact.
type manualClock struct{ ns atomic.Int64 }

func (c *manualClock) Now() int64              { return c.ns.Load() }
func (c *manualClock) advance(d time.Duration) { c.ns.Add(int64(d)) }

// TestTenantLimiterDeterministic drives one tenant's bucket through a
// burst/steady-state admission table under a manual clock: the full
// burst admits instantly, a drained bucket rejects with the exact refill
// deficit, and tokens accumulate at precisely the configured rate.
func TestTenantLimiterDeterministic(t *testing.T) {
	clk := &manualClock{}
	l := newTenantLimiter(2, 3, clk) // 2 tokens/s, burst 3

	// Burst: a fresh tenant holds exactly `burst` tokens.
	for i := 0; i < 3; i++ {
		if ok, _ := l.allow("acme"); !ok {
			t.Fatalf("burst request %d rejected", i)
		}
	}
	// Drained: the next token is 1/rate = 500ms away.
	ok, wait := l.allow("acme")
	if ok {
		t.Fatal("4th request admitted from a drained bucket")
	}
	if wait != 500*time.Millisecond {
		t.Fatalf("wait = %v, want 500ms", wait)
	}

	// Steady state: each 500ms buys exactly one admission.
	for i := 0; i < 4; i++ {
		clk.advance(500 * time.Millisecond)
		if ok, _ := l.allow("acme"); !ok {
			t.Fatalf("steady-state request %d rejected after full refill interval", i)
		}
		if ok, wait := l.allow("acme"); ok || wait != 500*time.Millisecond {
			t.Fatalf("second request in interval %d: ok=%v wait=%v, want reject/500ms", i, ok, wait)
		}
	}

	// Partial refill: 200ms accrues 0.4 tokens; the deficit to a whole
	// token is 0.6 tokens = 300ms.
	clk.advance(200 * time.Millisecond)
	if ok, wait := l.allow("acme"); ok || wait != 300*time.Millisecond {
		t.Fatalf("partial refill: ok=%v wait=%v, want reject/300ms", ok, wait)
	}

	// A long idle stretch caps at burst, never beyond.
	clk.advance(time.Hour)
	admitted := 0
	for i := 0; i < 10; i++ {
		if ok, _ := l.allow("acme"); ok {
			admitted++
		}
	}
	if admitted != 3 {
		t.Fatalf("after long idle, %d admissions, want burst cap 3", admitted)
	}
}

// TestTenantLimiterStaleReading replays the race the limiter's clock read
// outside its lock allows: a caller arriving with a reading older than the
// bucket's last refill must neither refill nor move the bucket's clock
// back, or the next caller is credited the same interval twice.
func TestTenantLimiterStaleReading(t *testing.T) {
	clk := &manualClock{}
	l := newTenantLimiter(1, 1, clk) // 1 token/s, burst 1
	if ok, _ := l.allow("acme"); !ok {
		t.Fatal("burst request rejected")
	}
	clk.advance(time.Second)
	if ok, _ := l.allow("acme"); !ok {
		t.Fatal("request after a full refill interval rejected")
	}
	// A reading taken at t=0 lands after the t=1s refill.
	clk.advance(-time.Second)
	if ok, wait := l.allow("acme"); ok || wait != time.Second {
		t.Fatalf("stale reading: ok=%v wait=%v, want reject/1s", ok, wait)
	}
	clk.advance(time.Second)
	if ok, _ := l.allow("acme"); ok {
		t.Fatal("second-in-interval request admitted: a stale reading rewound the bucket clock")
	}
}

// TestTenantLimiterIsolation checks buckets are per-tenant: one tenant
// draining its bucket cannot starve another.
func TestTenantLimiterIsolation(t *testing.T) {
	clk := &manualClock{}
	l := newTenantLimiter(1, 2, clk)
	for i := 0; i < 5; i++ {
		l.allow("noisy")
	}
	if ok, _ := l.allow("quiet"); !ok {
		t.Fatal("tenant 'quiet' starved by 'noisy'")
	}
}

// TestRetryAfterSeconds pins the header rounding: always at least 1,
// always rounded up so a compliant client never retries early.
func TestRetryAfterSeconds(t *testing.T) {
	cases := []struct {
		wait time.Duration
		want int
	}{
		{time.Nanosecond, 1},
		{500 * time.Millisecond, 1},
		{time.Second, 1},
		{1100 * time.Millisecond, 2},
		{2 * time.Second, 2},
		{2*time.Second + time.Millisecond, 3},
	}
	for _, c := range cases {
		if got := retryAfterSeconds(c.wait); got != c.want {
			t.Errorf("retryAfterSeconds(%v) = %d, want %d", c.wait, got, c.want)
		}
	}
}

// postTenant submits a job under an X-Tenant header.
func postTenant(t *testing.T, url, tenant string, body []byte) *http.Response {
	t.Helper()
	req, err := http.NewRequest("POST", url+"/jobs", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if tenant != "" {
		req.Header.Set("X-Tenant", tenant)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// TestRateLimitHTTP drives the full HTTP path: a tenant over its budget
// gets 429 with a correct integral Retry-After, other tenants (and the
// anonymous bucket) are untouched, and the rejection counter advances.
func TestRateLimitHTTP(t *testing.T) {
	clk := &manualClock{}
	spool := t.TempDir()
	s, url := testServer(t, spool, func(c *Config) {
		c.RatePerTenant = 0.5 // one token per 2s: Retry-After must be 2
		c.RateBurst = 2
		c.RateClock = clk
		c.QueueDepth = 16
	})
	body := jobBody(t, nil)

	for i := 0; i < 2; i++ {
		resp := postTenant(t, url, "acme", body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("burst submit %d: status %d, want 202", i, resp.StatusCode)
		}
	}
	resp := postTenant(t, url, "acme", body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-budget submit: status %d, want 429", resp.StatusCode)
	}
	ra, err := strconv.Atoi(resp.Header.Get("Retry-After"))
	if err != nil || ra != 2 {
		t.Errorf("Retry-After = %q, want \"2\" (1 token / 0.5 per s)", resp.Header.Get("Retry-After"))
	}

	// Another tenant and the anonymous bucket are independent.
	resp = postTenant(t, url, "globex", body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Errorf("tenant globex throttled by acme's bucket: status %d", resp.StatusCode)
	}
	resp = postTenant(t, url, "", body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Errorf("anonymous bucket throttled by acme's: status %d", resp.StatusCode)
	}

	// Refill readmits acme after the advertised wait.
	clk.advance(2 * time.Second)
	resp = postTenant(t, url, "acme", body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Errorf("submit after advertised Retry-After: status %d, want 202", resp.StatusCode)
	}

	if got := s.Metrics().Counters["serve.jobs.rejected.ratelimited"]; got != 1 {
		t.Errorf("rejected.ratelimited = %d, want 1", got)
	}
}

// TestParallelRateLimiterHammer is the race-detector entry (`make race`
// reruns Parallel tests with -race): many goroutines spending from a few
// shared buckets, with the invariant that admissions never exceed the
// burst capital plus everything refilled.
func TestParallelRateLimiterHammer(t *testing.T) {
	clk := &manualClock{}
	l := newTenantLimiter(1000, 50, clk)
	tenants := []string{"a", "b", "c"}
	var admitted atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				if ok, _ := l.allow(tenants[(g+i)%len(tenants)]); ok {
					admitted.Add(1)
				}
				if i%100 == 0 {
					clk.advance(time.Millisecond) // 1 token per tenant-bucket
				}
			}
		}(g)
	}
	wg.Wait()
	// Capital: 3 tenants x 50 burst; refill: 40 advances x 1ms x 1000/s
	// per bucket. Anything above that bound is a lost-update race.
	maxAdmit := int64(3*50 + 3*40)
	if got := admitted.Load(); got > maxAdmit {
		t.Errorf("admitted %d > provable budget %d: token bucket raced", got, maxAdmit)
	}
	if got := admitted.Load(); got < 150 {
		t.Errorf("admitted %d < burst capital 150: refill lost tokens", got)
	}
}
