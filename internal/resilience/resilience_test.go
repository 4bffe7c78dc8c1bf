package resilience

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"
)

func TestCanceled(t *testing.T) {
	if err := Canceled(context.Background()); err != nil {
		t.Fatalf("live context reported canceled: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := Canceled(ctx)
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	dctx, dcancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer dcancel()
	if !errors.Is(Canceled(dctx), ErrCanceled) {
		t.Fatal("expired deadline not reported as ErrCanceled")
	}
}

func TestSafelyRecoversPanics(t *testing.T) {
	err := Safely("boom", func() error { panic("kaboom") })
	if !errors.Is(err, ErrPanic) {
		t.Fatalf("err = %v, want ErrPanic", err)
	}
	if got := err.Error(); len(got) == 0 {
		t.Fatal("empty panic error")
	}
	// Errors pass through untouched.
	sentinel := errors.New("plain")
	if err := Safely("ok", func() error { return sentinel }); !errors.Is(err, sentinel) {
		t.Fatalf("err = %v", err)
	}
	if err := Safely("ok", func() error { return nil }); err != nil {
		t.Fatalf("err = %v", err)
	}
}

func TestRetrySucceedsAfterFailures(t *testing.T) {
	calls := 0
	err := Retry(context.Background(), RetryConfig{Attempts: 4, BaseDelay: time.Microsecond}, func() error {
		calls++
		if calls < 3 {
			return fmt.Errorf("transient %d", calls)
		}
		return nil
	})
	if err != nil || calls != 3 {
		t.Fatalf("err = %v after %d calls", err, calls)
	}
}

func TestRetryExhaustsAttempts(t *testing.T) {
	calls := 0
	base := errors.New("io down")
	err := Retry(context.Background(), RetryConfig{Attempts: 3, BaseDelay: time.Microsecond}, func() error {
		calls++
		return base
	})
	if calls != 3 {
		t.Fatalf("calls = %d", calls)
	}
	if !errors.Is(err, base) {
		t.Fatalf("err = %v, want wrapped io error", err)
	}
}

func TestRetryHonorsCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	calls := 0
	err := Retry(ctx, RetryConfig{}, func() error { calls++; return errors.New("x") })
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	if calls != 0 {
		t.Fatalf("op ran %d times under canceled context", calls)
	}
}

func TestRecorder(t *testing.T) {
	r := NewRecorder()
	var wg sync.WaitGroup
	for i := 0; i < 20; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if i%2 == 0 {
				r.Record("lp-solve")
			} else {
				r.Record("move-apply")
			}
		}(i)
	}
	wg.Wait()
	if r.Total() != 20 {
		t.Fatalf("total = %d", r.Total())
	}
	c := r.Counts()
	if c["lp-solve"] != 10 || c["move-apply"] != 10 {
		t.Fatalf("counts = %v", c)
	}
	// Mutating the copy must not leak back.
	c["lp-solve"] = 999
	if r.Counts()["lp-solve"] == 999 {
		t.Fatal("Counts returned live map")
	}
}

func TestRecorderNilSafe(t *testing.T) {
	var r *Recorder
	r.Record("x") // must not panic
	if r.Total() != 0 || r.Counts() != nil {
		t.Fatal("nil recorder not empty")
	}
}

func TestFormatCounts(t *testing.T) {
	if got := FormatCounts(nil); got != "none" {
		t.Fatalf("empty = %q", got)
	}
	got := FormatCounts(map[string]int{"b": 2, "a": 1})
	if got != "a:1 b:2" {
		t.Fatalf("formatted = %q", got)
	}
}

// TestRetryJitterSeededDeterministic pins the jittered-backoff contract: a
// nil Rand keeps the exact exponential schedule, a seeded Rand draws waits
// from [d/2, d], and the same seed replays the same wait sequence.
func TestRetryJitterSeededDeterministic(t *testing.T) {
	schedule := []time.Duration{
		5 * time.Millisecond, 10 * time.Millisecond, 20 * time.Millisecond,
		40 * time.Millisecond, 80 * time.Millisecond,
	}

	plain := RetryConfig{}
	for _, d := range schedule {
		if got := plain.sleepFor(d); got != d {
			t.Errorf("nil Rand: sleepFor(%v) = %v, want exact", d, got)
		}
	}

	draw := func(seed int64) []time.Duration {
		cfg := RetryConfig{Rand: rand.New(rand.NewSource(seed))}
		out := make([]time.Duration, 0, len(schedule))
		for _, d := range schedule {
			s := cfg.sleepFor(d)
			if s < d/2 || s > d {
				t.Fatalf("seed %d: sleepFor(%v) = %v outside [%v, %v]", seed, d, s, d/2, d)
			}
			out = append(out, s)
		}
		return out
	}
	a, b := draw(42), draw(42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed drew different wait sequences: %v vs %v", a, b)
		}
	}
	c := draw(7)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
		}
	}
	if same {
		t.Error("different seeds drew identical wait sequences across 5 draws")
	}
}

// TestRetryWithJitterStillRetries: the jittered path changes only the
// sleeps — attempt counting, success, and exhaustion behave as before.
func TestRetryWithJitterStillRetries(t *testing.T) {
	cfg := RetryConfig{
		Attempts:  3,
		BaseDelay: time.Millisecond,
		Rand:      rand.New(rand.NewSource(1)),
	}
	calls := 0
	err := Retry(context.Background(), cfg, func() error {
		calls++
		if calls < 3 {
			return fmt.Errorf("transient %d", calls)
		}
		return nil
	})
	if err != nil || calls != 3 {
		t.Fatalf("jittered retry: err=%v calls=%d", err, calls)
	}

	calls = 0
	err = Retry(context.Background(), cfg, func() error {
		calls++
		return errors.New("permanent")
	})
	if err == nil || calls != 3 {
		t.Fatalf("jittered exhaustion: err=%v calls=%d", err, calls)
	}
}
