package lp

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"skewvar/internal/resilience"
)

func solveOK(t *testing.T, p *Problem) *Solution {
	t.Helper()
	sol, err := solve(t, p)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Optimal {
		t.Fatalf("status = %v", sol.Status)
	}
	return sol
}

// feasCheck verifies the solution satisfies all constraints and bounds.
func feasCheck(t *testing.T, p *Problem, x []float64, tol float64) {
	t.Helper()
	for j := range x {
		if x[j] < p.lo[j]-tol || x[j] > p.hi[j]+tol {
			t.Fatalf("var %d = %v out of [%v,%v]", j, x[j], p.lo[j], p.hi[j])
		}
	}
	for r := range p.rowSense {
		var lhs float64
		for i, v := range p.rowIdx[r] {
			lhs += p.rowCoef[r][i] * x[v]
		}
		switch p.rowSense[r] {
		case LE:
			if lhs > p.rowRHS[r]+tol {
				t.Fatalf("row %d: %v > %v", r, lhs, p.rowRHS[r])
			}
		case GE:
			if lhs < p.rowRHS[r]-tol {
				t.Fatalf("row %d: %v < %v", r, lhs, p.rowRHS[r])
			}
		default:
			if math.Abs(lhs-p.rowRHS[r]) > tol {
				t.Fatalf("row %d: %v != %v", r, lhs, p.rowRHS[r])
			}
		}
	}
}

func TestSimple2D(t *testing.T) {
	// max x+y s.t. x+2y ≤ 4, 3x+y ≤ 6, x,y ≥ 0 → minimize -(x+y).
	// Optimum at intersection: x=8/5, y=6/5, obj = 14/5.
	p := NewProblem()
	x := p.AddVar(0, Inf, -1, "x")
	y := p.AddVar(0, Inf, -1, "y")
	p.AddConstraint(LE, 4, []int{x, y}, []float64{1, 2})
	p.AddConstraint(LE, 6, []int{x, y}, []float64{3, 1})
	sol := solveOK(t, p)
	feasCheck(t, p, sol.X, 1e-7)
	if math.Abs(sol.Obj+14.0/5) > 1e-7 {
		t.Errorf("obj = %v, want -2.8", sol.Obj)
	}
	if math.Abs(sol.X[x]-1.6) > 1e-7 || math.Abs(sol.X[y]-1.2) > 1e-7 {
		t.Errorf("x = %v", sol.X)
	}
}

func TestEqualityAndGE(t *testing.T) {
	// min 2x+3y s.t. x+y = 10, x ≥ 3, y ≥ 2  → x=8,y=2, obj=22.
	p := NewProblem()
	x := p.AddVar(3, Inf, 2, "x")
	y := p.AddVar(2, Inf, 3, "y")
	p.AddConstraint(EQ, 10, []int{x, y}, []float64{1, 1})
	sol := solveOK(t, p)
	feasCheck(t, p, sol.X, 1e-7)
	if math.Abs(sol.Obj-22) > 1e-7 {
		t.Errorf("obj = %v", sol.Obj)
	}
}

func TestGEConstraintPhase1(t *testing.T) {
	// min x+y s.t. x+y ≥ 5, x ≤ 3, x,y ≥ 0 → obj 5.
	p := NewProblem()
	x := p.AddVar(0, 3, 1, "x")
	y := p.AddVar(0, Inf, 1, "y")
	p.AddConstraint(GE, 5, []int{x, y}, []float64{1, 1})
	sol := solveOK(t, p)
	feasCheck(t, p, sol.X, 1e-7)
	if math.Abs(sol.Obj-5) > 1e-7 {
		t.Errorf("obj = %v", sol.Obj)
	}
}

func TestInfeasible(t *testing.T) {
	p := NewProblem()
	x := p.AddVar(0, 1, 1, "x")
	p.AddConstraint(GE, 5, []int{x}, []float64{1})
	sol, err := solve(t, p)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Infeasible {
		t.Errorf("status = %v, want infeasible", sol.Status)
	}
}

func TestInfeasibleContradiction(t *testing.T) {
	p := NewProblem()
	x := p.AddVar(-Inf, Inf, 0, "x")
	y := p.AddVar(-Inf, Inf, 0, "y")
	p.AddConstraint(EQ, 1, []int{x, y}, []float64{1, 1})
	p.AddConstraint(EQ, 3, []int{x, y}, []float64{1, 1})
	sol, _ := solve(t, p)
	if sol.Status != Infeasible {
		t.Errorf("status = %v", sol.Status)
	}
}

func TestUnbounded(t *testing.T) {
	p := NewProblem()
	x := p.AddVar(0, Inf, -1, "x")
	y := p.AddVar(0, Inf, 0, "y")
	p.AddConstraint(LE, 5, []int{y}, []float64{1})
	sol, _ := solve(t, p)
	_ = x
	if sol.Status != Unbounded {
		t.Errorf("status = %v, want unbounded", sol.Status)
	}
}

func TestFreeVariable(t *testing.T) {
	// min |style| with free var: min x s.t. x ≥ -7 handled via constraint.
	p := NewProblem()
	x := p.AddVar(-Inf, Inf, 1, "x")
	p.AddConstraint(GE, -7, []int{x}, []float64{1})
	sol := solveOK(t, p)
	if math.Abs(sol.Obj+7) > 1e-7 {
		t.Errorf("obj = %v, want -7", sol.Obj)
	}
}

func TestUpperBoundedVars(t *testing.T) {
	// max 3x+2y, x≤2, y≤3, x+y≤4 → x=2,y=2, obj=10.
	p := NewProblem()
	x := p.AddVar(0, 2, -3, "x")
	y := p.AddVar(0, 3, -2, "y")
	p.AddConstraint(LE, 4, []int{x, y}, []float64{1, 1})
	sol := solveOK(t, p)
	feasCheck(t, p, sol.X, 1e-7)
	if math.Abs(sol.Obj+10) > 1e-7 {
		t.Errorf("obj = %v, want -10", sol.Obj)
	}
}

func TestNegativeBounds(t *testing.T) {
	// min x, -10 ≤ x ≤ -2 → -10.
	p := NewProblem()
	p.AddVar(-10, -2, 1, "x")
	sol := solveOK(t, p)
	if math.Abs(sol.Obj+10) > 1e-9 {
		t.Errorf("obj = %v", sol.Obj)
	}
}

func TestFixedVariable(t *testing.T) {
	p := NewProblem()
	x := p.AddVar(5, 5, 1, "x")
	y := p.AddVar(0, Inf, 1, "y")
	p.AddConstraint(GE, 8, []int{x, y}, []float64{1, 1})
	sol := solveOK(t, p)
	feasCheck(t, p, sol.X, 1e-7)
	if math.Abs(sol.X[x]-5) > 1e-9 || math.Abs(sol.X[y]-3) > 1e-7 {
		t.Errorf("x = %v", sol.X)
	}
}

func TestDuplicateIndicesMerged(t *testing.T) {
	p := NewProblem()
	x := p.AddVar(0, Inf, 1, "x")
	p.AddConstraint(GE, 6, []int{x, x, x}, []float64{1, 1, 1}) // 3x ≥ 6
	sol := solveOK(t, p)
	if math.Abs(sol.X[x]-2) > 1e-7 {
		t.Errorf("x = %v", sol.X[x])
	}
}

func TestAbsValueSplitPattern(t *testing.T) {
	// The core optimization writes |Δ| as Δ⁺+Δ⁻. Verify the pattern:
	// min Δ⁺+Δ⁻ s.t. (base + Δ⁺ − Δ⁻) = target.
	p := NewProblem()
	dp := p.AddVar(0, Inf, 1, "d+")
	dn := p.AddVar(0, Inf, 1, "d-")
	// base 10, target 7: Δ = −3 → Δ⁻=3.
	p.AddConstraint(EQ, 7-10, []int{dp, dn}, []float64{1, -1})
	sol := solveOK(t, p)
	if math.Abs(sol.Obj-3) > 1e-7 {
		t.Errorf("obj = %v, want 3", sol.Obj)
	}
	if sol.X[dp] > 1e-7 || math.Abs(sol.X[dn]-3) > 1e-7 {
		t.Errorf("split = %v", sol.X)
	}
}

func TestDegenerate(t *testing.T) {
	// Multiple constraints active at the optimum; classic degeneracy.
	p := NewProblem()
	x := p.AddVar(0, Inf, -1, "x")
	y := p.AddVar(0, Inf, -1, "y")
	p.AddConstraint(LE, 1, []int{x, y}, []float64{1, 1})
	p.AddConstraint(LE, 1, []int{x, y}, []float64{1, 1})
	p.AddConstraint(LE, 1, []int{x}, []float64{1})
	p.AddConstraint(LE, 1, []int{y}, []float64{1})
	sol := solveOK(t, p)
	if math.Abs(sol.Obj+1) > 1e-7 {
		t.Errorf("obj = %v, want -1", sol.Obj)
	}
}

func TestAssignmentLPIsIntegralAndOptimal(t *testing.T) {
	// LP relaxation of the assignment problem is integral; compare the LP
	// optimum against brute-force enumeration of permutations.
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 15; trial++ {
		n := 3 + rng.Intn(3) // 3..5
		cost := make([][]float64, n)
		for i := range cost {
			cost[i] = make([]float64, n)
			for j := range cost[i] {
				cost[i][j] = math.Floor(rng.Float64()*100) / 10
			}
		}
		p := NewProblem()
		vars := make([][]int, n)
		for i := 0; i < n; i++ {
			vars[i] = make([]int, n)
			for j := 0; j < n; j++ {
				vars[i][j] = p.AddVar(0, 1, cost[i][j], "")
			}
		}
		for i := 0; i < n; i++ {
			idx := make([]int, n)
			ones := make([]float64, n)
			for j := 0; j < n; j++ {
				idx[j] = vars[i][j]
				ones[j] = 1
			}
			p.AddConstraint(EQ, 1, idx, ones)
		}
		for j := 0; j < n; j++ {
			idx := make([]int, n)
			ones := make([]float64, n)
			for i := 0; i < n; i++ {
				idx[i] = vars[i][j]
				ones[i] = 1
			}
			p.AddConstraint(EQ, 1, idx, ones)
		}
		sol := solveOK(t, p)
		feasCheck(t, p, sol.X, 1e-6)
		// Brute force.
		perm := make([]int, n)
		for i := range perm {
			perm[i] = i
		}
		best := math.Inf(1)
		var rec func(k int)
		rec = func(k int) {
			if k == n {
				var c float64
				for i, j := range perm {
					c += cost[i][j]
				}
				if c < best {
					best = c
				}
				return
			}
			for i := k; i < n; i++ {
				perm[k], perm[i] = perm[i], perm[k]
				rec(k + 1)
				perm[k], perm[i] = perm[i], perm[k]
			}
		}
		rec(0)
		if math.Abs(sol.Obj-best) > 1e-6 {
			t.Fatalf("trial %d: LP obj %v != brute force %v", trial, sol.Obj, best)
		}
	}
}

// randomBoundedLP draws an LP with box bounds and random ≤ rows through a
// known interior point x0, which it returns; the LP is therefore feasible.
func randomBoundedLP(rng *rand.Rand) (*Problem, []float64) {
	n := 2 + rng.Intn(8)
	m := 1 + rng.Intn(10)
	p := NewProblem()
	x0 := make([]float64, n)
	for j := 0; j < n; j++ {
		lo := rng.Float64()*4 - 2
		hi := lo + 0.5 + rng.Float64()*4
		x0[j] = lo + (hi-lo)*rng.Float64()
		p.AddVar(lo, hi, rng.NormFloat64(), "")
	}
	for r := 0; r < m; r++ {
		var idx []int
		var coef []float64
		var lhs float64
		for j := 0; j < n; j++ {
			if rng.Float64() < 0.6 {
				c := rng.NormFloat64()
				idx = append(idx, j)
				coef = append(coef, c)
				lhs += c * x0[j]
			}
		}
		if len(idx) == 0 {
			continue
		}
		p.AddConstraint(LE, lhs+rng.Float64(), idx, coef)
	}
	return p, x0
}

func TestRandomFeasibleBoundedLPs(t *testing.T) {
	// The solver must return Optimal with a feasible X whose objective
	// beats the interior point.
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 40; trial++ {
		p, x0 := randomBoundedLP(rng)
		n := len(x0)
		sol, err := solve(t, p)
		if err != nil {
			t.Fatal(err)
		}
		if sol.Status != Optimal {
			t.Fatalf("trial %d: status %v", trial, sol.Status)
		}
		feasCheck(t, p, sol.X, 1e-6)
		var objAtX0 float64
		for j := 0; j < n; j++ {
			objAtX0 += p.cost[j] * x0[j]
		}
		if sol.Obj > objAtX0+1e-6 {
			t.Fatalf("trial %d: obj %v worse than interior point %v", trial, sol.Obj, objAtX0)
		}
	}
}

func TestMediumScalePerformance(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	// A 300-row, 400-var random feasible LP should solve quickly.
	rng := rand.New(rand.NewSource(31))
	n, m := 400, 300
	p := NewProblem()
	x0 := make([]float64, n)
	for j := 0; j < n; j++ {
		x0[j] = rng.Float64()
		p.AddVar(0, 2, rng.Float64(), "")
	}
	for r := 0; r < m; r++ {
		var idx []int
		var coef []float64
		var lhs float64
		for k := 0; k < 6; k++ {
			j := rng.Intn(n)
			c := 0.2 + rng.Float64()
			idx = append(idx, j)
			coef = append(coef, c)
			lhs += c * x0[j]
		}
		p.AddConstraint(LE, lhs+0.1, idx, coef)
	}
	sol, err := solve(t, p)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Optimal {
		t.Fatalf("status %v after %d iters", sol.Status, sol.Iterations)
	}
	feasCheck(t, p, sol.X, 1e-6)
}

func TestStatusString(t *testing.T) {
	for s, w := range map[Status]string{
		Optimal: "optimal", Infeasible: "infeasible",
		Unbounded: "unbounded", IterLimit: "iteration-limit",
	} {
		if s.String() != w {
			t.Errorf("%d = %q", s, s.String())
		}
	}
	if Status(9).String() == "" {
		t.Error("unknown status empty")
	}
}

func TestBuildErrorsAreSticky(t *testing.T) {
	cases := []struct {
		name  string
		build func(p *Problem, x int)
	}{
		{"lo>hi", func(p *Problem, x int) { p.AddVar(2, 1, 0, "bad") }},
		{"nan-bound", func(p *Problem, x int) { p.AddVar(0, math.NaN(), 0, "bad") }},
		{"nan-cost", func(p *Problem, x int) { p.AddVar(0, 1, math.NaN(), "bad") }},
		{"len-mismatch", func(p *Problem, x int) { p.AddConstraint(LE, 0, []int{x}, []float64{1, 2}) }},
		{"unknown-var", func(p *Problem, x int) { p.AddConstraint(LE, 0, []int{99}, []float64{1}) }},
		{"nan-coef", func(p *Problem, x int) { p.AddConstraint(LE, 0, []int{x}, []float64{math.NaN()}) }},
		{"nan-rhs", func(p *Problem, x int) { p.AddConstraint(LE, math.NaN(), []int{x}, []float64{1}) }},
		{"set-bounds-unknown-var", func(p *Problem, x int) { p.SetBounds(x+1, 0, 1) }},
		{"set-bounds-nan", func(p *Problem, x int) { p.SetBounds(x, math.NaN(), 1) }},
		{"set-bounds-lo>hi", func(p *Problem, x int) { p.SetBounds(x, 2, 1) }},
		{"set-rhs-unknown-row", func(p *Problem, x int) { p.SetRHS(0, 1) }},
		{"set-rhs-nan", func(p *Problem, x int) {
			p.SetRHS(p.AddConstraint(LE, 1, []int{x}, []float64{1}), math.NaN())
		}},
	}
	for _, tc := range cases {
		p := NewProblem()
		x := p.AddVar(0, 1, 0, "x")
		if p.Err() != nil {
			t.Fatalf("%s: valid var recorded error", tc.name)
		}
		tc.build(p, x)
		if p.Err() == nil {
			t.Errorf("%s: no build error recorded", tc.name)
			continue
		}
		sol, err := solve(t, p)
		if sol != nil || err == nil {
			t.Errorf("%s: Solve = (%v, %v), want build error", tc.name, sol, err)
		}
		if !errors.Is(err, resilience.ErrSolver) {
			t.Errorf("%s: Solve error %v is not ErrSolver", tc.name, err)
		}
	}
	// Variable indices stay consistent after an invalid AddVar.
	p := NewProblem()
	p.AddVar(0, 1, 0, "x")
	bad := p.AddVar(1, 0, 0, "bad")
	y := p.AddVar(0, 1, 0, "y")
	if bad != 1 || y != 2 || p.NumVars() != 3 {
		t.Errorf("indices after invalid var: bad=%d y=%d n=%d", bad, y, p.NumVars())
	}
}

func TestIterLimitIsTypedSolverError(t *testing.T) {
	// A tiny LP that needs more than one pivot, capped at one iteration.
	p := NewProblem()
	x := p.AddVar(0, Inf, -1, "x")
	y := p.AddVar(0, Inf, -1, "y")
	p.AddConstraint(LE, 4, []int{x, y}, []float64{1, 2})
	p.AddConstraint(LE, 4, []int{x, y}, []float64{2, 1})
	p.maxIters = 1
	sol, err := solve(t, p)
	if err == nil {
		t.Fatal("iteration-limit exhaustion returned nil error")
	}
	if !errors.Is(err, resilience.ErrSolver) {
		t.Fatalf("err = %v, want resilience.ErrSolver", err)
	}
	if sol == nil || sol.Status != IterLimit {
		t.Fatalf("sol = %+v, want IterLimit status alongside the error", sol)
	}

	// A re-solve that needs a pivot past the cap falls back to a cold
	// solve, which hits the cap too.
	p.maxIters = 0
	solveOK(t, p)
	p.AddConstraint(LE, 0.5, []int{x}, []float64{1})
	p.maxIters = 1
	if sol := resolve(t, p); sol.Status != IterLimit || sol.Warm {
		t.Fatalf("re-solve = %+v, want a cold IterLimit", sol)
	}
}

func TestAccessors(t *testing.T) {
	p := NewProblem()
	p.AddVar(0, 1, 0, "x")
	p.AddConstraint(LE, 1, []int{0}, []float64{1})
	if p.NumVars() != 1 || p.NumRows() != 1 {
		t.Errorf("NumVars/NumRows = %d/%d", p.NumVars(), p.NumRows())
	}
}

func TestAddConstraintMergesInInputOrderAndDropsZeros(t *testing.T) {
	p := NewProblem()
	for j := 0; j < 3; j++ {
		p.AddVar(0, 1, 0, "")
	}
	// Column 1's coefficients sum to 0.1 + 0.2 − 0.3 in input order, which
	// is not zero in floating point (nor equal to 0.1 + (0.2 − 0.3));
	// column 0's cancel and column 2's is an explicit zero.
	a, b, c := 0.1, 0.2, -0.3
	idx := []int{1, 0, 1, 2, 1, 0}
	coef := []float64{a, 2, b, 0, c, -2}
	p.AddConstraint(LE, 1, idx, coef)
	ref := NewProblem()
	refAddConstraint(ref, LE, 1, idx, coef)

	want := a + b + c
	if want == 0 || want == a+(b+c) {
		t.Fatalf("0.1 + 0.2 − 0.3 = %v does not test the summation order", want)
	}
	if len(p.rowIdx[0]) != 1 || p.rowIdx[0][0] != 1 {
		t.Fatalf("row keeps columns %v, want [1]", p.rowIdx[0])
	}
	if got := p.rowCoef[0][0]; math.Float64bits(got) != math.Float64bits(want) {
		t.Errorf("merged coefficient %v, want %v", got, want)
	}
	// A long row with many duplicates: every column AddConstraint keeps
	// carries the map merge's bits, and every column it drops sums to
	// exactly zero there.
	rng := rand.New(rand.NewSource(5))
	for k := 0; k < 200; k++ {
		v := rng.Intn(3)
		cv := rng.NormFloat64() * math.Pow(10, float64(rng.Intn(7)-3))
		idx = append(idx, v, v)
		coef = append(coef, cv, -cv*float64(rng.Intn(2)))
	}
	p.AddConstraint(LE, 1, idx, coef)
	refAddConstraint(ref, LE, 1, idx, coef)
	for r := range ref.rowIdx {
		kept := map[int]float64{}
		for i, v := range p.rowIdx[r] {
			kept[v] = p.rowCoef[r][i]
		}
		for i, v := range ref.rowIdx[r] {
			rc := ref.rowCoef[r][i]
			got, ok := kept[v]
			switch {
			case ok && math.Float64bits(got) != math.Float64bits(rc):
				t.Errorf("row %d column %d: AddConstraint %v, map merge %v", r, v, got, rc)
			case !ok && rc != 0:
				t.Errorf("row %d: dropped column %d sums to %v in the map merge", r, v, rc)
			}
		}
	}
}

// dualOf builds the explicit dual of p = min cᵀx s.t. Ax (≤, ≥, =) b,
// l ≤ x ≤ u: maximize bᵀy + lᵀp − uᵀq s.t. Aᵀy + p − q = c, with y ≤ 0 on
// LE rows, y ≥ 0 on GE rows, y free on EQ rows, and one p ≥ 0 (q ≥ 0) per
// finite lower (upper) bound. As a Problem it minimizes the negated
// objective.
func dualOf(p *Problem) *Problem {
	d := NewProblem()
	colIdx := make([][]int, p.NumVars())
	colCoef := make([][]float64, p.NumVars())
	for r, sense := range p.rowSense {
		lo, hi := math.Inf(-1), Inf
		switch sense {
		case LE:
			hi = 0
		case GE:
			lo = 0
		}
		y := d.AddVar(lo, hi, -p.rowRHS[r], "")
		for i, j := range p.rowIdx[r] {
			colIdx[j] = append(colIdx[j], y)
			colCoef[j] = append(colCoef[j], p.rowCoef[r][i])
		}
	}
	for j := range colIdx {
		if !math.IsInf(p.lo[j], -1) {
			colIdx[j] = append(colIdx[j], d.AddVar(0, Inf, -p.lo[j], ""))
			colCoef[j] = append(colCoef[j], 1)
		}
		if !math.IsInf(p.hi[j], 1) {
			colIdx[j] = append(colIdx[j], d.AddVar(0, Inf, p.hi[j], ""))
			colCoef[j] = append(colCoef[j], -1)
		}
		d.AddConstraint(EQ, p.cost[j], colIdx[j], colCoef[j])
	}
	return d
}

// TestStrongDuality checks optimality, not just feasibility: for each
// optimal LP of the random bounded family and of the mixed family, Solve
// also solves the explicit dual, and the two objectives meet.
func TestStrongDuality(t *testing.T) {
	var lps []*Problem
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 40; trial++ {
		p, _ := randomBoundedLP(rng)
		lps = append(lps, p)
	}
	rng = rand.New(rand.NewSource(43))
	for trial := 0; trial < 40; trial++ {
		lps = append(lps, mixedLP(rng, 4+rng.Intn(40), 2+rng.Intn(30)).build(false))
	}
	checked := 0
	for i, p := range lps {
		sol, err := solve(t, p)
		if err != nil {
			t.Fatal(err)
		}
		if sol.Status != Optimal {
			continue
		}
		dsol, err := solve(t, dualOf(p))
		if err != nil {
			t.Fatal(err)
		}
		if dsol.Status != Optimal {
			t.Fatalf("LP %d: primal optimal at %v, dual %v", i, sol.Obj, dsol.Status)
		}
		if gap := math.Abs(sol.Obj + dsol.Obj); gap > 1e-6*(1+math.Abs(sol.Obj)) {
			t.Errorf("LP %d: primal %v, dual %v: gap %v", i, sol.Obj, -dsol.Obj, gap)
		}
		checked++
	}
	if checked < 60 {
		t.Errorf("only %d of %d LPs were optimal", checked, len(lps))
	}
}

// TestCertificateRejectsWrongAnswers shows the certificate can fail: it
// accepts a solve's optimal answer and its phase-1 ray, and rejects the
// answer moved off its rows, off its bounds, off its objective or off the
// optimum, and rays that prove nothing.
func TestCertificateRejectsWrongAnswers(t *testing.T) {
	p := NewProblem()
	x := p.AddVar(0, Inf, -1, "x")
	y := p.AddVar(0, Inf, -1, "y")
	p.AddConstraint(LE, 4, []int{x, y}, []float64{1, 2})
	p.AddConstraint(LE, 4, []int{x, y}, []float64{2, 1})
	sol := solveOK(t, p)
	if err := p.s.certifyOptimal(p, sol); err != nil {
		t.Fatalf("the solve's own answer: %v", err)
	}
	for _, tc := range []struct {
		name string
		edit func(s *Solution)
	}{
		{"row violated", func(s *Solution) { s.X[x]++ }},
		{"bound violated", func(s *Solution) { s.X[y] = -1 }},
		{"objective off", func(s *Solution) { s.Obj-- }},
		{"not optimal", func(s *Solution) { s.X[x], s.X[y], s.Obj = 0, 0, 0 }},
	} {
		bad := *sol
		bad.X = append([]float64(nil), sol.X...)
		tc.edit(&bad)
		if err := p.s.certifyOptimal(p, &bad); err == nil {
			t.Errorf("%s: certificate holds", tc.name)
		}
	}

	// z ∈ [0, 1] with z ≥ 2: y = 1 on the row proves it infeasible.
	q := NewProblem()
	z := q.AddVar(0, 1, 0, "z")
	q.AddConstraint(GE, 2, []int{z}, []float64{1})
	if sol, _ := solve(t, q); sol.Status != Infeasible {
		t.Fatalf("status %v, want infeasible", sol.Status)
	}
	for _, tc := range []struct {
		ray  float64
		want bool
	}{{1, true}, {0, false}, {-1, false}} {
		if err := q.s.certifyInfeasible([]float64{tc.ray}); (err == nil) != tc.want {
			t.Errorf("ray %v: certificate error %v", tc.ray, err)
		}
	}
}

// TestResolveFallsBackCold frees a variable whose reduced cost then calls
// for a bound it no longer has: no flip makes the kept basis dual
// feasible, so the re-solve solves cold, and so does a clone.
func TestResolveFallsBackCold(t *testing.T) {
	p := NewProblem()
	x := p.AddVar(0, Inf, 1, "x")
	p.AddConstraint(GE, -3, []int{x}, []float64{1})
	if sol := solveOK(t, p); sol.X[x] != 0 {
		t.Fatalf("x = %v, want 0", sol.X[x])
	}
	p.SetBounds(x, math.Inf(-1), Inf)
	sol := resolve(t, p)
	if sol.Warm || sol.Status != Optimal || sol.X[x] != -3 {
		t.Errorf("re-solve: warm %v, status %v, x = %v; want a cold optimum at −3", sol.Warm, sol.Status, sol.X[x])
	}
	if c, _ := solve(t, p.Clone()); c.Obj != sol.Obj {
		t.Errorf("clone objective %v, problem %v", c.Obj, sol.Obj)
	}
}
