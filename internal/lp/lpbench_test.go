package lp

import (
	"math/rand"
	"testing"
	"time"
)

func TestLargeishLPPerf(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	rng := rand.New(rand.NewSource(99))
	// Mimic the global-opt LP shape: ~500 vars, ~1200 rows, sparse rows.
	n, m := 400, 600
	p := NewProblem()
	x0 := make([]float64, n)
	for j := 0; j < n; j++ {
		x0[j] = rng.Float64()
		p.AddVar(0, 3, rng.Float64())
	}
	for r := 0; r < m; r++ {
		var idx []int
		var coef []float64
		var lhs float64
		for k := 0; k < 8; k++ {
			j := rng.Intn(n)
			c := rng.NormFloat64()
			idx = append(idx, j)
			coef = append(coef, c)
			lhs += c * x0[j]
		}
		p.AddConstraint(LE, lhs+0.05+rng.Float64()*0.2, idx, coef)
	}
	t0 := time.Now()
	sol, err := p.Solve()
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("status=%v iters=%d obj=%.3f elapsed=%v", sol.Status, sol.Iterations, sol.Obj, time.Since(t0))
	ref, refErr := refSolve(p, p.maxIters)
	if d := solveDiff(sol, err, ref, refErr); d != "" {
		t.Fatalf("Solve differs from the reference solver: %s", d)
	}
	if sol.Status != Optimal {
		t.Fatalf("status %v", sol.Status)
	}
}
