package lut

import (
	"math"
	"testing"

	"skewvar/internal/rctree"
	"skewvar/internal/tech"
)

var sharedChar *Char

func char(t *testing.T) *Char {
	t.Helper()
	if sharedChar == nil {
		sharedChar = Characterize(tech.Default28nm())
	}
	return sharedChar
}

func TestCharacterizeShape(t *testing.T) {
	c := char(t)
	if c.NumCells() != 5 {
		t.Fatalf("cells = %d", c.NumCells())
	}
	wantSpacings := int((SpacingMax-SpacingMin)/SpacingStep) + 1
	if len(c.Spacings) != wantSpacings {
		t.Fatalf("spacings = %d, want %d", len(c.Spacings), wantSpacings)
	}
	for p := 0; p < c.NumCells(); p++ {
		for qi := range c.Spacings {
			for k := 0; k < c.T.NumCorners(); k++ {
				if d := c.Uniform(p, qi, k); d <= 0 || math.IsNaN(d) {
					t.Fatalf("uniform(%d,%d,%d) = %v", p, qi, k, d)
				}
				if s := c.SteadySlew(p, qi, k); s <= 0 || s > 5000 {
					t.Fatalf("steady slew(%d,%d,%d) = %v", p, qi, k, s)
				}
				// The head table holds exactly what the stage calls return.
				q, in := c.Spacings[qi], c.T.Cells[p].InCap
				wire, _ := c.WireDelay(k, q, in)
				first, slewOut := c.DetailStage(p, q, k, c.SteadySlew(p, qi, k), in)
				if h := c.Head(p, qi, k); h != (Head{Wire: wire, First: first, SlewOut: slewOut}) {
					t.Fatalf("head(%d,%d,%d) = %+v, want {%v %v %v}", p, qi, k, h, wire, first, slewOut)
				}
			}
		}
	}
}

func TestUniformMonotoneInSpacing(t *testing.T) {
	c := char(t)
	for p := 0; p < c.NumCells(); p++ {
		for k := 0; k < c.T.NumCorners(); k++ {
			for qi := 1; qi < len(c.Spacings); qi++ {
				if c.Uniform(p, qi, k) <= c.Uniform(p, qi-1, k) {
					t.Fatalf("stage delay not increasing in spacing: cell %d corner %d", p, k)
				}
			}
		}
	}
}

func TestUniformCornerOrdering(t *testing.T) {
	c := char(t)
	// c1 > c0 > c2 > c3 for gate-dominated stages (short spacing).
	d := make([]float64, 4)
	for k := 0; k < 4; k++ {
		d[k] = c.Uniform(2, 0, k)
	}
	if !(d[1] > d[0] && d[0] > d[2] && d[2] > d[3]) {
		t.Errorf("corner ordering violated: %v", d)
	}
}

func TestUniformAtInterpolates(t *testing.T) {
	c := char(t)
	lo := c.Uniform(1, 0, 0)
	hi := c.Uniform(1, 1, 0)
	mid := c.UniformAt(1, SpacingMin+SpacingStep/2, 0)
	if !(mid > lo && mid < hi) {
		t.Errorf("interpolation out of range: %v not in (%v,%v)", mid, lo, hi)
	}
	if got := c.UniformAt(1, SpacingMin, 0); math.Abs(got-lo) > 1e-12 {
		t.Errorf("exact grid point = %v, want %v", got, lo)
	}
	// Clamping beyond the grid.
	if got := c.UniformAt(1, 5000, 0); got != c.Uniform(1, len(c.Spacings)-1, 0) {
		t.Errorf("over-range not clamped: %v", got)
	}
	if got := c.UniformAt(1, 1, 0); got != lo {
		t.Errorf("under-range not clamped: %v", got)
	}
}

func TestDetailStageBehaviour(t *testing.T) {
	c := char(t)
	d1, s1 := c.DetailStage(2, 50, 0, 40, 2)
	d2, _ := c.DetailStage(2, 50, 0, 40, 30) // heavier end load
	d3, _ := c.DetailStage(2, 120, 0, 40, 2) // longer wire
	if d2 <= d1 || d3 <= d1 {
		t.Errorf("detail stage not monotone: %v %v %v", d1, d2, d3)
	}
	if s1 <= 0 {
		t.Errorf("slew out = %v", s1)
	}
}

func TestWireDelay(t *testing.T) {
	c := char(t)
	d0, s0 := c.WireDelay(0, 0, 5)
	if d0 != 0 || s0 != 0 {
		t.Error("zero-length wire has delay")
	}
	d1, _ := c.WireDelay(0, 100, 5)
	d2, _ := c.WireDelay(0, 200, 5)
	if !(d2 > d1 && d1 > 0) {
		t.Errorf("wire delay not increasing: %v %v", d1, d2)
	}
	// Cmax corner (c0) slower wire than Cmin (c2).
	dMax, _ := c.WireDelay(0, 150, 5)
	dMin, _ := c.WireDelay(2, 150, 5)
	if dMax <= dMin {
		t.Errorf("BEOL corners inverted: %v vs %v", dMax, dMin)
	}
}

func TestMinMaxDelayPerUM(t *testing.T) {
	c := char(t)
	for k := 0; k < c.T.NumCorners(); k++ {
		if lo := c.MinDelayPerUM(k); !(lo > 0) {
			t.Fatalf("corner %d: min %v", k, lo)
		}
	}
	// The slow corner's floor must exceed the fast corner's floor.
	if c.MinDelayPerUM(1) <= c.MinDelayPerUM(3) {
		t.Error("corner delay floors inverted")
	}
}

func TestRatioScatterFig2(t *testing.T) {
	c := char(t)
	sc := c.RatioScatter(1, 0) // (c1, c0)
	if len(sc) < 100 {
		t.Fatalf("scatter too small: %d", len(sc))
	}
	for _, s := range sc {
		if s.Ratio <= 1 {
			t.Fatalf("c1/c0 ratio %v ≤ 1 (c1 must be slower)", s.Ratio)
		}
		if s.DelayPerUM <= 0 {
			t.Fatalf("bad x value %v", s.DelayPerUM)
		}
	}
	sc2 := c.RatioScatter(2, 0) // (c2, c0): fast corner, ratios < 1
	for _, s := range sc2 {
		if s.Ratio >= 1 {
			t.Fatalf("c2/c0 ratio %v ≥ 1", s.Ratio)
		}
	}
	// Ratios must vary with the gate/wire mix — the whole point of Fig. 2.
	minR, maxR := math.Inf(1), math.Inf(-1)
	for _, s := range sc {
		minR = math.Min(minR, s.Ratio)
		maxR = math.Max(maxR, s.Ratio)
	}
	if maxR-minR < 0.05 {
		t.Errorf("ratio spread too small: [%v, %v]", minR, maxR)
	}
}

func TestFitEnvelopeBoundsScatter(t *testing.T) {
	c := char(t)
	env, err := c.FitEnvelope(1, 0)
	if err != nil {
		t.Fatal(err)
	}
	sc := c.RatioScatter(1, 0)
	for _, s := range sc {
		lo, hi := env.Bounds(s.DelayPerUM)
		if s.Ratio < lo-1e-9 || s.Ratio > hi+1e-9 {
			t.Fatalf("sample ratio %v outside envelope [%v, %v] at x=%v",
				s.Ratio, lo, hi, s.DelayPerUM)
		}
	}
	// Envelope evaluation clamps x outside the characterized range.
	lo1, hi1 := env.Bounds(env.XMax * 10)
	lo2, hi2 := env.Bounds(env.XMax)
	if lo1 != lo2 || hi1 != hi2 {
		t.Error("x clamping not applied")
	}
	if lo3, _ := env.Bounds(-1); lo3 < 1e-3 {
		t.Error("wmin floor not applied")
	}
}

func TestEnvelopeNonNominalPair(t *testing.T) {
	c := char(t)
	env, err := c.FitEnvelope(1, 2)
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := env.Bounds((env.XMin + env.XMax) / 2)
	if !(lo > 1 && hi > lo) {
		t.Errorf("c1/c2 envelope = [%v, %v], want > 1", lo, hi)
	}
}

// TestStageWireMatchesFreshFlat holds the pooled stage-wire reduction
// bitwise equal to a fresh, unpooled rctree.Flat built at corner k's wire
// R/C over a grid of lengths, corners and end loads, so a pooled tree
// carries nothing over from the stage it held before. Flat's moments are
// held to rctree's oracle (FuzzBuildFlatTree).
func TestStageWireMatchesFreshFlat(t *testing.T) {
	th := tech.Default28nm()
	for _, q := range []float64{0, 1, 10, 37.5, 200, 800} {
		for k := 0; k < th.NumCorners(); k++ {
			for _, load := range []float64{0, 1.3, 12} {
				f := &rctree.Flat{}
				f.Reset(0)
				end := f.AddWire(0, q, th.WireR(k), th.WireC(k))
				f.AddLoad(end, load)
				m1, m2 := f.Moments()
				want := stageWire{totalCap: f.TotalCap(), m1: m1[end], m2: m2[end]}
				if got := buildStageWire(th, q, k, load); got != want {
					t.Fatalf("q=%v k=%d load=%v: pooled %+v, fresh %+v", q, k, load, got, want)
				}
			}
		}
	}
}

// TestStageLookupsAllocationFree pins the ECO estimate path's LUT lookups
// at zero allocations once the layout pool is warm.
func TestStageLookupsAllocationFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates on alloc-free paths")
	}
	c := char(t)
	if n := testing.AllocsPerRun(100, func() { c.DetailStage(2, 50, 1, 40, 3) }); n != 0 {
		t.Errorf("warm DetailStage allocates %v per call, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { c.WireDelay(1, 80, 3) }); n != 0 {
		t.Errorf("warm WireDelay allocates %v per call, want 0", n)
	}
}
