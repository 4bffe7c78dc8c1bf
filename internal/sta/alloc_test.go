// Allocation gates for the flat kernel — the point of the SoA refactor.
// Warm analyses (cache hit, pooled scratch, released results) must not
// allocate; cold analyses must stay within a fixed budget. These run
// under `make test`, so an accidental per-net or per-corner allocation
// fails CI, not just a benchmark graph.
package sta_test

import (
	"testing"

	"skewvar/internal/exp"
	"skewvar/internal/sta"
	"skewvar/internal/testgen"
)

// TestAnalyzeWarmZeroAlloc pins the steady state: with the net cache
// warm and analyses released back to the pool, Analyze performs no
// allocations at all on the serial path.
func TestAnalyzeWarmZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates on alloc-free paths")
	}
	d, tm := buildCase(t, testgen.CLS1v1(140))
	ft := timerLike(tm)
	// Warm the net cache, the scratch pools, and the analysis pool.
	for i := 0; i < 3; i++ {
		ft.Analyze(d.Tree).Release()
	}
	allocs := testing.AllocsPerRun(20, func() {
		ft.Analyze(d.Tree).Release()
	})
	if allocs > 0 {
		t.Fatalf("warm Analyze allocates %.1f/op, want 0", allocs)
	}
}

// TestAnalyzeWarmZeroAllocFourCorners repeats the gate on a four-corner
// view so corner-count-dependent buffers (batch rows, moment slices) are
// covered beyond the three-corner benchmark shape.
func TestAnalyzeWarmZeroAllocFourCorners(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates on alloc-free paths")
	}
	d, tm := buildCase(t, testgen.CLS2v1(100))
	full, _ := exp.Technology() // all four corners, unlike the variant's view
	ft := sta.New(full)
	ft.Cong = tm.Cong
	for i := 0; i < 3; i++ {
		ft.Analyze(d.Tree).Release()
	}
	allocs := testing.AllocsPerRun(20, func() {
		ft.Analyze(d.Tree).Release()
	})
	if allocs > 0 {
		t.Fatalf("warm 4-corner Analyze allocates %.1f/op, want 0", allocs)
	}
}

// coldAllocBudget bounds the allocations of one cold-cache Analyze of
// CLS1v1(140): a quarter of the 20,507 that rebuilding every net per
// corner with rctree.Builder cost on this design, the kernel's headline
// allocation target.
const coldAllocBudget = 5126

// TestAnalyzeColdAllocBudget enforces coldAllocBudget: building every net
// view for all corners at once must stay within it.
func TestAnalyzeColdAllocBudget(t *testing.T) {
	d, tm := buildCase(t, testgen.CLS1v1(140))
	ft := timerLike(tm)
	ft.Analyze(d.Tree).Release() // warm pools; cache is flushed per run below
	cold := testing.AllocsPerRun(10, func() {
		ft.FlushNetCache()
		ft.Analyze(d.Tree).Release()
	})
	if cold > coldAllocBudget {
		t.Fatalf("cold Analyze allocates %.0f/op; want ≤ %d", cold, coldAllocBudget)
	}
	t.Logf("cold allocations: %.0f/op (budget %d)", cold, coldAllocBudget)
}
