// Clock injection for the recorder. This file is the only place in the
// package allowed to touch the time package (enforced by the skewlint
// obsclock analyzer): every span start, span end, and event timestamp goes
// through the Clock interface, so a test or replay run can substitute a
// deterministic FakeClock and get byte-identical traces.
package obs

import (
	"sync/atomic"
	"time"
)

// Clock supplies monotonic nanosecond timestamps to a Recorder.
type Clock interface {
	// Now returns nanoseconds on a monotonically non-decreasing scale.
	// The zero point is arbitrary; only differences are meaningful.
	Now() int64
}

// wallEpoch anchors the wall clock so that Now readings use Go's monotonic
// clock (time.Since of a process-local epoch never goes backwards, unlike
// raw UnixNano under NTP steps).
var wallEpoch = time.Now()

// WallClock is the process-monotonic wall clock: nanoseconds since a
// process-local epoch. It is the production Clock of New, and of every
// other package that times something through an injectable Clock.
type WallClock struct{}

// Now returns the nanoseconds elapsed since the process epoch.
func (WallClock) Now() int64 { return int64(time.Since(wallEpoch)) }

// FakeClock is a deterministic Clock for tests and golden traces: each Now
// call advances an atomic counter by a fixed step, so concurrent readers
// still observe strictly increasing, schedule-independent-in-multiset
// timestamps.
type FakeClock struct {
	now  atomic.Int64
	step int64
}

// NewFakeClock returns a FakeClock advancing by stepNS per Now call
// (step 1 when stepNS <= 0).
func NewFakeClock(stepNS int64) *FakeClock {
	if stepNS <= 0 {
		stepNS = 1
	}
	return &FakeClock{step: stepNS}
}

// Now advances the fake clock and returns the new reading.
func (c *FakeClock) Now() int64 { return c.now.Add(c.step) }
