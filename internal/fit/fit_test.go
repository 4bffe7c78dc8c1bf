package fit

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSolveLinearKnown(t *testing.T) {
	a := [][]float64{{2, 1}, {1, 3}}
	b := []float64{5, 10}
	x, err := SolveLinear(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(x[0]-1) > 1e-9 || math.Abs(x[1]-3) > 1e-9 {
		t.Errorf("x = %v, want [1 3]", x)
	}
}

func TestSolveLinearSingular(t *testing.T) {
	a := [][]float64{{1, 2}, {2, 4}}
	if _, err := SolveLinear(a, []float64{1, 2}); err == nil {
		t.Error("singular system did not error")
	}
}

func TestSolveLinearBadDims(t *testing.T) {
	if _, err := SolveLinear([][]float64{{1}}, []float64{1, 2}); err == nil {
		t.Error("dimension mismatch did not error")
	}
	if _, err := SolveLinear(nil, nil); err == nil {
		t.Error("empty system did not error")
	}
	if _, err := SolveLinear([][]float64{{1, 2}, {3}}, []float64{1, 2}); err == nil {
		t.Error("ragged matrix did not error")
	}
}

func TestSolveLinearRandomProperty(t *testing.T) {
	// Generate well-conditioned random systems; A·x must reproduce b.
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(8)
		a := make([][]float64, n)
		for i := range a {
			a[i] = make([]float64, n)
			for j := range a[i] {
				a[i][j] = rng.NormFloat64()
			}
			a[i][i] += float64(n) + 1 // diagonal dominance
		}
		b := make([]float64, n)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		x, err := SolveLinear(a, b)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		for i := 0; i < n; i++ {
			var s float64
			for j := 0; j < n; j++ {
				s += a[i][j] * x[j]
			}
			if math.Abs(s-b[i]) > 1e-8 {
				t.Fatalf("trial %d: residual %g at row %d", trial, s-b[i], i)
			}
		}
	}
}

func TestPolyEval(t *testing.T) {
	p := Poly{1, 2, 3} // 1 + 2x + 3x²
	if v := p.Eval(2); v != 17 {
		t.Errorf("Eval(2) = %v, want 17", v)
	}
}

func TestPolyFitRecoversExact(t *testing.T) {
	truth := Poly{0.5, -1.5, 2.0}
	var xs, ys []float64
	for x := -3.0; x <= 3.0; x += 0.25 {
		xs = append(xs, x)
		ys = append(ys, truth.Eval(x))
	}
	p, err := PolyFit(xs, ys, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := range truth {
		if math.Abs(p[i]-truth[i]) > 1e-8 {
			t.Errorf("coef %d = %v, want %v", i, p[i], truth[i])
		}
	}
}

func TestPolyFitErrors(t *testing.T) {
	if _, err := PolyFit([]float64{1}, []float64{1, 2}, 1, 0); err == nil {
		t.Error("length mismatch did not error")
	}
	if _, err := PolyFit([]float64{1, 2}, []float64{1, 2}, -1, 0); err == nil {
		t.Error("negative degree did not error")
	}
	if _, err := PolyFit([]float64{1}, []float64{1}, 3, 0); err == nil {
		t.Error("underdetermined fit did not error")
	}
}

func TestEnvelopeFitBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var xs, ys []float64
	for i := 0; i < 200; i++ {
		x := rng.Float64() * 10
		xs = append(xs, x)
		ys = append(ys, 2+0.3*x+rng.NormFloat64()*0.2)
	}
	up, lo, err := EnvelopeFit(xs, ys, 1, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	for i := range xs {
		if ys[i] > up.Eval(xs[i])+1e-9 {
			t.Fatalf("sample %d above upper envelope", i)
		}
		if ys[i] < lo.Eval(xs[i])-1e-9 {
			t.Fatalf("sample %d below lower envelope", i)
		}
	}
}

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{1, 2, 3, 4, 5})
	if s.N != 5 || s.Mean != 3 || s.Min != 1 || s.Max != 5 || s.P50 != 3 {
		t.Errorf("Summary = %+v", s)
	}
	if math.Abs(s.Std-math.Sqrt(2.5)) > 1e-12 {
		t.Errorf("Std = %v", s.Std)
	}
	if z := Summarize(nil); z.N != 0 {
		t.Errorf("empty summary N = %d", z.N)
	}
	neg := Summarize([]float64{-2, 2})
	if neg.AbsMean != 2 || neg.AbsMax != 2 || neg.AbsMin != 2 {
		t.Errorf("abs stats = %+v", neg)
	}
}

func TestPercentile(t *testing.T) {
	sorted := []float64{10, 20, 30, 40}
	cases := []struct {
		p, want float64
	}{
		{0, 10}, {100, 40}, {50, 25}, {25, 17.5},
	}
	for _, c := range cases {
		if got := Percentile(sorted, c.p); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("P%v = %v, want %v", c.p, got, c.want)
		}
	}
	if !math.IsNaN(Percentile(nil, 50)) {
		t.Error("empty percentile not NaN")
	}
	if Percentile([]float64{7}, 50) != 7 {
		t.Error("single-sample percentile")
	}
}

func TestHistogram(t *testing.T) {
	h := NewHistogram(0, 10, 5)
	h.AddAll([]float64{-1, 0, 1.9, 2, 9.999, 10, 11})
	if h.Under != 1 || h.Over != 2 {
		t.Errorf("under/over = %d/%d", h.Under, h.Over)
	}
	if h.Counts[0] != 2 || h.Counts[1] != 1 || h.Counts[4] != 1 {
		t.Errorf("counts = %v", h.Counts)
	}
	if h.Total() != 4 {
		t.Errorf("total = %d", h.Total())
	}
	if c := h.BinCenter(0); c != 1 {
		t.Errorf("BinCenter(0) = %v", c)
	}
	if out := h.Render(20); out == "" {
		t.Error("Render empty")
	}
}

func TestHistogramPanics(t *testing.T) {
	for _, f := range []func(){
		func() { NewHistogram(0, 10, 0) },
		func() { NewHistogram(5, 5, 3) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestHistogramNeverLosesSamplesProperty(t *testing.T) {
	f := func(raw []float64) bool {
		h := NewHistogram(-100, 100, 17)
		n := 0
		for _, x := range raw {
			if math.IsNaN(x) {
				continue
			}
			h.Add(x)
			n++
		}
		return h.Total()+h.Under+h.Over == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestPearson(t *testing.T) {
	x := []float64{1, 2, 3, 4}
	y := []float64{2, 4, 6, 8}
	if r := Pearson(x, y); math.Abs(r-1) > 1e-12 {
		t.Errorf("perfect correlation = %v", r)
	}
	yneg := []float64{8, 6, 4, 2}
	if r := Pearson(x, yneg); math.Abs(r+1) > 1e-12 {
		t.Errorf("perfect anticorrelation = %v", r)
	}
	if !math.IsNaN(Pearson(x, []float64{5, 5, 5, 5})) {
		t.Error("zero-variance correlation not NaN")
	}
	if !math.IsNaN(Pearson(x, x[:2])) {
		t.Error("length mismatch not NaN")
	}
}

func TestRMSEAndMAPE(t *testing.T) {
	pred := []float64{1, 2, 3}
	truth := []float64{1, 2, 5}
	if r := RMSE(pred, truth); math.Abs(r-math.Sqrt(4.0/3.0)) > 1e-12 {
		t.Errorf("RMSE = %v", r)
	}
	if !math.IsNaN(RMSE(pred, truth[:2])) {
		t.Error("RMSE mismatch not NaN")
	}
}
