package sta_test

import (
	"sort"
	"testing"
	"time"

	"skewvar/internal/sta"
	"skewvar/internal/testgen"
)

// coldSpeedBound caps the median time of one cold serial Analyze at this
// fraction of the reference timer's on the same design. The reference
// rebuilds every net once per corner; the kernel builds each net once for
// all corners and replays it per corner, which must keep at least a third
// of the work off the cold path.
const coldSpeedBound = 0.667

// TestColdAnalyzeSpeedVsReference holds the kernel's cold serial analysis
// to coldSpeedBound × the reference timer's. The two alternate round by
// round, so host noise lands on both sides of the ratio.
func TestColdAnalyzeSpeedVsReference(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation distorts the timing ratio")
	}
	d, tm := buildCase(t, testgen.CLS1v1(280))
	ft := timerLike(tm)
	ft.Analyze(d.Tree).Release() // warm the scratch and analysis pools
	const rounds = 60
	kernel := make([]time.Duration, rounds)
	ref := make([]time.Duration, rounds)
	for i := 0; i < rounds; i++ {
		start := time.Now()
		ft.FlushNetCache()
		ft.Analyze(d.Tree).Release()
		kernel[i] = time.Since(start)
		start = time.Now()
		sta.ReferenceAnalyze(ft, d.Tree)
		ref[i] = time.Since(start)
	}
	k, r := medianDuration(kernel), medianDuration(ref)
	ratio := float64(k) / float64(r)
	t.Logf("cold Analyze %v, reference %v (medians of %d): %.3f× (bound %.3f×)",
		k, r, rounds, ratio, coldSpeedBound)
	if ratio > coldSpeedBound {
		t.Fatalf("cold Analyze takes %.3f× the reference timer's time; want ≤ %.3f×", ratio, coldSpeedBound)
	}
}

// medianDuration returns the median of ds, reordering ds.
func medianDuration(ds []time.Duration) time.Duration {
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	return ds[len(ds)/2]
}
