package ml

import (
	"math"
	"math/rand"
	"testing"

	"skewvar/internal/fit"
)

// synth generates a smooth nonlinear regression problem with mild noise.
func synth(rng *rand.Rand, n, d int, noise float64) (X [][]float64, y []float64) {
	for i := 0; i < n; i++ {
		x := make([]float64, d)
		for j := range x {
			x[j] = rng.Float64()*4 - 2
		}
		t := math.Sin(x[0]) + 0.5*x[1%d]*x[1%d] + 0.3*x[0]*x[1%d] + noise*rng.NormFloat64()
		X = append(X, x)
		y = append(y, t)
	}
	return X, y
}

func predictAll(m Model, X [][]float64) []float64 {
	out := make([]float64, len(X))
	for i, x := range X {
		out[i] = m.Predict(x)
	}
	return out
}

func TestScalerRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	X, _ := synth(rng, 100, 3, 0)
	s := FitScaler(X)
	xs := s.TransformAll(X)
	// Scaled data: mean ≈ 0, std ≈ 1 per column.
	d := len(X[0])
	for j := 0; j < d; j++ {
		var m, ss float64
		for _, row := range xs {
			m += row[j]
		}
		m /= float64(len(xs))
		for _, row := range xs {
			ss += (row[j] - m) * (row[j] - m)
		}
		std := math.Sqrt(ss / float64(len(xs)))
		if math.Abs(m) > 1e-9 || math.Abs(std-1) > 1e-9 {
			t.Errorf("col %d: mean %v std %v", j, m, std)
		}
	}
}

func TestScalerZeroVariance(t *testing.T) {
	X := [][]float64{{1, 5}, {2, 5}, {3, 5}}
	s := FitScaler(X)
	out := s.Transform([]float64{2, 5})
	if out[1] != 0 {
		t.Errorf("constant feature transform = %v", out[1])
	}
}

func TestScalerPanics(t *testing.T) {
	for _, f := range []func(){
		func() { FitScaler(nil) },
		func() { FitScaler([][]float64{{1, 2}, {1}}) },
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

func TestRidgeRecoversQuadratic(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	X, y := synth(rng, 300, 2, 0.01)
	r, err := TrainRidge(X, y, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	// sin(x0) is not a polynomial but degree-2 ridge should fit decently on
	// [-2,2]; check test RMSE ≪ target std.
	Xt, yt := synth(rng, 200, 2, 0.01)
	rmse := fit.RMSE(predictAll(r, Xt), yt)
	std := fit.Summarize(yt).Std
	if rmse > 0.4*std {
		t.Errorf("ridge RMSE %v vs std %v", rmse, std)
	}
	if _, err := TrainRidge(nil, nil, 1); err == nil {
		t.Error("empty train accepted")
	}
}

// TestRidgePredictMatchesExpansion holds the in-place Predict to the
// materialized form, coef · expand2(scaled x), bit for bit: at the
// delta-latency view's width, and wider than Predict's stack buffer.
func TestRidgePredictMatchesExpansion(t *testing.T) {
	for _, d := range []int{1, 8, ridgeStackDim + 3} {
		rng := rand.New(rand.NewSource(int64(d)))
		X, y := synth(rng, 150, d, 0.05)
		r, err := TrainRidge(X, y, 1e-3)
		if err != nil {
			t.Fatal(err)
		}
		Xt, _ := synth(rng, 50, d, 0)
		Xt = append(Xt, make([]float64, d)) // the all-zero input
		for i, x := range Xt {
			f := expand2(r.scaler.Transform(x))
			var want float64
			for j, c := range r.coef {
				want += c * f[j]
			}
			want = r.ys.back(want)
			if got := r.Predict(x); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("d=%d, input %d: Predict %v, expansion %v", d, i, got, want)
			}
		}
	}
}

func TestRidgePredictZeroAlloc(t *testing.T) {
	X, y := synth(rand.New(rand.NewSource(4)), 100, 8, 0.05)
	r, err := TrainRidge(X, y, 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	x := X[7]
	if allocs := testing.AllocsPerRun(100, func() { r.Predict(x) }); allocs != 0 {
		t.Errorf("warm Ridge.Predict makes %.1f allocations, want 0", allocs)
	}
}

func TestANNGradientCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	X, y := synth(rng, 40, 3, 0)
	a, err := TrainANN(X, y, 3)
	if err != nil {
		t.Fatal(err)
	}
	worst := 0.0
	for i := 0; i < 5; i++ {
		x := a.scaler.Transform(X[i])
		if w := a.gradCheck(x, a.ys.fwd(y[i])); w > worst {
			worst = w
		}
	}
	if worst > 1e-4 {
		t.Errorf("max relative gradient error %v", worst)
	}
}

func TestANNLearnsNonlinearFunction(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	X, y := synth(rng, 600, 2, 0.02)
	a, err := TrainANN(X, y, 4)
	if err != nil {
		t.Fatal(err)
	}
	Xt, yt := synth(rng, 300, 2, 0.02)
	rmse := fit.RMSE(predictAll(a, Xt), yt)
	std := fit.Summarize(yt).Std
	if rmse > 0.30*std {
		t.Errorf("ANN test RMSE %v vs std %v", rmse, std)
	}
}

func TestANNDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	X, y := synth(rng, 100, 2, 0.05)
	a1, _ := TrainANN(X, y, 9)
	a2, _ := TrainANN(X, y, 9)
	for i := 0; i < 10; i++ {
		if a1.Predict(X[i]) != a2.Predict(X[i]) {
			t.Fatal("same seed, different model")
		}
	}
}

func TestANNErrors(t *testing.T) {
	if _, err := TrainANN(nil, nil, 0); err == nil {
		t.Error("empty train accepted")
	}
	if _, err := TrainANN([][]float64{{1}}, []float64{1, 2}, 0); err == nil {
		t.Error("mismatched train accepted")
	}
}

func TestSVRLearnsNonlinearFunction(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	X, y := synth(rng, 500, 2, 0.02)
	s, err := TrainSVR(X, y, 6)
	if err != nil {
		t.Fatal(err)
	}
	Xt, yt := synth(rng, 300, 2, 0.02)
	rmse := fit.RMSE(predictAll(s, Xt), yt)
	std := fit.Summarize(yt).Std
	if rmse > 0.25*std {
		t.Errorf("SVR test RMSE %v vs std %v", rmse, std)
	}
	if len(s.sv) > svrMaxPts {
		t.Errorf("support set %d exceeds cap", len(s.sv))
	}
}

func TestSVRSubsampling(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	X, y := synth(rng, 900, 2, 0.05)
	s, err := TrainSVR(X, y, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.sv) != svrMaxPts {
		t.Errorf("support = %d, want %d", len(s.sv), svrMaxPts)
	}
	if _, err := TrainSVR(nil, nil, 0); err == nil {
		t.Error("empty train accepted")
	}
}

func TestKFoldRMSE(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	X, y := synth(rng, 200, 2, 0.05)
	rmse, err := KFoldRMSE(func(X [][]float64, y []float64) (Model, error) {
		return TrainRidge(X, y, 1e-4)
	}, X, y, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	if rmse <= 0 || rmse > fit.Summarize(y).Std {
		t.Errorf("CV RMSE = %v", rmse)
	}
	if _, err := KFoldRMSE(nil, X[:1], y[:1], 4, 1); err == nil {
		t.Error("tiny fold accepted")
	}
}

func TestHSMBlendsAndBeatsWorstComponent(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	X, y := synth(rng, 400, 2, 0.03)
	h, err := TrainHSM(X, y, HSMConfig{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if len(h.Models) != 3 || len(h.Weights) != 3 {
		t.Fatalf("components = %d", len(h.Models))
	}
	var sum float64
	for _, w := range h.Weights {
		if w < 0 {
			t.Errorf("negative weight %v", w)
		}
		sum += w
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("weights sum to %v", sum)
	}
	Xt, yt := synth(rng, 300, 2, 0.03)
	hsmRMSE := fit.RMSE(predictAll(h, Xt), yt)
	worst := 0.0
	for _, m := range h.Models {
		if r := fit.RMSE(predictAll(m, Xt), yt); r > worst {
			worst = r
		}
	}
	if hsmRMSE > worst+1e-9 {
		t.Errorf("HSM RMSE %v worse than worst component %v", hsmRMSE, worst)
	}
	if _, err := TrainHSM(nil, nil, HSMConfig{}); err == nil {
		t.Error("empty train accepted")
	}
}
