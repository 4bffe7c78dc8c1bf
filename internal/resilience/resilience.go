// Package resilience is the fault-handling layer of the optimization flows:
// a typed error taxonomy shared across packages, panic-to-error recovery
// wrappers around solver and timer calls, retry with exponential backoff for
// I/O, and a concurrency-safe fault recorder that the degradation paths use
// to report how a flow survived.
//
// The taxonomy is deliberately small. Callers classify failures with
// errors.Is against the sentinels below; wrapped context (which solve, which
// file, which move) travels in the error message.
package resilience

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime/debug"
	"sort"
	"strings"
	"sync"
	"time"
)

// Sentinel errors of the flow-failure taxonomy. Wrap them with fmt.Errorf
// ("...: %w") and detect them with errors.Is.
var (
	// ErrCanceled reports a flow stopped by context cancellation or
	// deadline. The accompanying result still holds the best-so-far tree.
	ErrCanceled = errors.New("canceled")

	// ErrSolver reports an LP solver failure: an invalid problem build,
	// iteration-limit exhaustion, or a numerically wedged basis.
	ErrSolver = errors.New("solver failure")

	// ErrInvalidDesign reports malformed input to a flow: design data (NaN
	// geometry, unknown cells, orphan parents, broken tree invariants) as
	// well as unusable model bundles and inconsistent flow configuration.
	ErrInvalidDesign = errors.New("invalid design")

	// ErrCheckpoint reports a checkpoint serialization or I/O failure.
	ErrCheckpoint = errors.New("checkpoint failure")

	// ErrPanic reports a panic recovered at a flow boundary.
	ErrPanic = errors.New("recovered panic")

	// ErrTimer reports corrupted timing output — a NaN objective from an
	// analysis (injected or real) detected before it could poison an
	// acceptance decision.
	ErrTimer = errors.New("timer corruption")

	// ErrStorage reports durable-storage exhaustion or failure: a journal
	// append that exhausted retries on ENOSPC/EIO, a poisoned journal, or
	// a snapshot swap the disk refused. The service degrades (507 at
	// admission, readyz failing) rather than fabricating acknowledgements;
	// fleet dispatch routes new work away from the replica.
	ErrStorage = errors.New("storage failure")
)

// Canceled converts a context's error into the taxonomy (nil if the context
// is still live or nil).
func Canceled(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("%w: %v", ErrCanceled, err)
	}
	return nil
}

// Safely runs fn and converts a panic into an ErrPanic-wrapped error carrying
// the panic value and a truncated stack. Errors returned by fn pass through
// unchanged.
func Safely(name string, fn func() error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			stack := debug.Stack()
			if len(stack) > 2048 {
				stack = stack[:2048]
			}
			err = fmt.Errorf("%w in %s: %v\n%s", ErrPanic, name, r, stack)
		}
	}()
	return fn()
}

// maxRetryDelay caps Retry's exponential backoff.
const maxRetryDelay = 500 * time.Millisecond

// RetryConfig tunes Retry. Zero values select defaults.
type RetryConfig struct {
	Attempts  int           // total attempts (default 3)
	BaseDelay time.Duration // delay before the 2nd attempt (default 5ms)

	// Rand, when non-nil, jitters each backoff sleep: the wait before
	// attempt n is drawn uniformly from [d/2, d] where d is the
	// exponential schedule's delay for that attempt (equal jitter). The
	// generator is caller-seeded, so a given (seed, failure sequence)
	// replays the same wait sequence — jitter without losing determinism.
	// Nil keeps the exact exponential schedule unchanged.
	//
	// *rand.Rand is not safe for concurrent use; callers sharing a
	// RetryConfig across goroutines must serialize the retries (the skewd
	// job journal holds its append lock across the retry loop) or give
	// each goroutine its own generator.
	Rand *rand.Rand
}

// sleepFor returns the wait before the next attempt: delay exactly when no
// jitter generator is configured, otherwise a seeded draw from [delay/2,
// delay].
func (c *RetryConfig) sleepFor(delay time.Duration) time.Duration {
	if c.Rand == nil || delay <= 1 {
		return delay
	}
	half := delay / 2
	return half + time.Duration(c.Rand.Int63n(int64(delay-half)+1))
}

func (c *RetryConfig) setDefaults() {
	if c.Attempts == 0 {
		c.Attempts = 3
	}
	if c.BaseDelay == 0 {
		c.BaseDelay = 5 * time.Millisecond
	}
}

// Retry runs op up to cfg.Attempts times with exponential backoff, stopping
// early on success or context cancellation. It returns nil on success, the
// context's wrapped ErrCanceled if interrupted, or the last op error.
func Retry(ctx context.Context, cfg RetryConfig, op func() error) error {
	cfg.setDefaults()
	if ctx == nil {
		ctx = context.Background()
	}
	delay := cfg.BaseDelay
	var last error
	for attempt := 0; attempt < cfg.Attempts; attempt++ {
		if err := Canceled(ctx); err != nil {
			if last != nil {
				return fmt.Errorf("%v (after %d attempts: %v)", err, attempt, last)
			}
			return err
		}
		if last = op(); last == nil {
			return nil
		}
		if attempt == cfg.Attempts-1 {
			break
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("%w: %v (retrying after: %v)", ErrCanceled, ctx.Err(), last)
		case <-time.After(cfg.sleepFor(delay)):
		}
		delay *= 2
		if delay > maxRetryDelay {
			delay = maxRetryDelay
		}
	}
	return fmt.Errorf("after %d attempts: %w", cfg.Attempts, last)
}

// Recorder counts faults by class, safely across goroutines. The zero value
// is not usable; construct with NewRecorder. A nil *Recorder drops records,
// so optional recording paths need no guards.
type Recorder struct {
	mu     sync.Mutex
	counts map[string]int
}

// NewRecorder returns an empty fault recorder.
func NewRecorder() *Recorder { return &Recorder{counts: map[string]int{}} }

// Record counts one fault of the given class. Nil-safe.
func (r *Recorder) Record(class string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.counts[class]++
	r.mu.Unlock()
}

// Total returns the total fault count across classes. Nil-safe.
func (r *Recorder) Total() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	t := 0
	for _, c := range r.counts {
		t += c
	}
	return t
}

// Counts returns a copy of the per-class counts (nil when empty). Nil-safe.
func (r *Recorder) Counts() map[string]int {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.counts) == 0 {
		return nil
	}
	out := make(map[string]int, len(r.counts))
	for k, v := range r.counts {
		out[k] = v
	}
	return out
}

// FormatCounts renders a count map as "class:count class:count" in sorted
// class order ("none" when empty), for DEGRADED warning lines.
func FormatCounts(counts map[string]int) string {
	if len(counts) == 0 {
		return "none"
	}
	keys := make([]string, 0, len(counts))
	for k := range counts {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%s:%d", k, counts[k])
	}
	return b.String()
}
