package lp

import (
	"fmt"
	"math"

	"skewvar/internal/resilience"
)

// Every answer Solve returns is checked first, against the Problem's own
// rows and bounds and against duals recomputed from B⁻¹, not the
// incrementally updated reduced costs:
//
//   - Optimal: every row and bound holds; every nonbasic variable's
//     reduced cost d_j = c_j − y·A_j, with a fresh y = c_B·B⁻¹, has the sign
//     its bound allows; and cᵀx meets the dual objective
//     yᵀb + Σ_j min over [lo_j, hi_j] of d_j·x_j, slacks included.
//   - Infeasible: a ray y proves it (Farkas): yᵀb + Σ_j min over
//     [lo_j, hi_j] of −(y·A_j)·x_j > 0, so no x within the bounds has
//     yᵀA·x = yᵀb. A cold solve's ray is its phase-1 duals, a re-solve's
//     the row of B⁻¹ whose infeasible basic variable nothing can move.
//
// The tolerances are relative to the magnitudes each check sums, and far
// above what the solver's own tolerances leave: a failed check means the
// answer is wrong, not that it is imprecise.
const (
	primTol   = 1e-6  // row and bound violation
	dualTol   = 1e-6  // reduced cost of the wrong sign
	gapTol    = 1e-6  // primal−dual objective gap
	farkasTol = 1e-11 // the ray's margin must clear the rounding of its sum
)

// certErr wraps a failed certificate as a solver error.
func certErr(st Status, err error) error {
	return fmt.Errorf("lp: %v answer failed its certificate: %v: %w", st, err, resilience.ErrSolver)
}

// certifyOptimal checks the optimal answer sol of p at the solver's basis.
func (s *solver) certifyOptimal(p *Problem, sol *Solution) error {
	x := sol.X
	for r, sense := range p.rowSense {
		b := p.rowRHS[r]
		ax, scale := 0.0, math.Abs(b)
		for i, j := range p.rowIdx[r] {
			t := p.rowCoef[r][i] * x[j]
			ax += t
			scale += math.Abs(t)
		}
		var viol float64
		switch sense {
		case LE:
			viol = ax - b
		case GE:
			viol = b - ax
		default:
			viol = math.Abs(ax - b)
		}
		if viol > primTol*(1+scale) {
			return fmt.Errorf("row %d violated by %g", r, viol)
		}
	}
	for j, v := range x {
		if v < p.lo[j]-primTol*(1+math.Abs(p.lo[j])) || v > p.hi[j]+primTol*(1+math.Abs(p.hi[j])) {
			return fmt.Errorf("variable %d = %g outside [%g, %g]", j, v, p.lo[j], p.hi[j])
		}
	}
	y := s.y
	s.duals(s.cost2, y)
	dual, scale := s.dotRHS(y)
	for j := 0; j < s.nStruct+s.m; j++ {
		d, dscale := s.cost2[j], math.Abs(s.cost2[j])
		c := &s.cols[j]
		for t, r := range c.idx {
			v := y[r] * c.val[t]
			d -= v
			dscale += math.Abs(v)
		}
		tol := dualTol * (1 + dscale)
		if s.rowOf[j] < 0 && s.lo[j] != s.hi[j] {
			atLower := !s.atUpper[j] && !math.IsInf(s.lo[j], -1)
			if (d < -tol && !s.atUpper[j]) || (d > tol && !atLower) {
				return fmt.Errorf("column %d: reduced cost %g has the wrong sign for its bound", j, d)
			}
		}
		term, ok := boundTerm(d, tol, s.lo[j], s.hi[j])
		if !ok {
			return fmt.Errorf("column %d: reduced cost %g needs an infinite bound", j, d)
		}
		dual += term
		scale += math.Abs(term)
	}
	if gap := math.Abs(sol.Obj - dual); gap > gapTol*(1+scale) {
		return fmt.Errorf("duality gap %g: primal %g, dual %g", gap, sol.Obj, dual)
	}
	return nil
}

// certifyInfeasible checks that y is a Farkas ray of the solver's rows and
// bounds.
func (s *solver) certifyInfeasible(y []float64) error {
	val, scale := s.dotRHS(y)
	for j := 0; j < s.nStruct+s.m; j++ {
		var a, ascale float64
		c := &s.cols[j]
		for t, r := range c.idx {
			v := y[r] * c.val[t]
			a += v
			ascale += math.Abs(v)
		}
		term, ok := boundTerm(-a, optTol+1e-9*ascale, s.lo[j], s.hi[j])
		if !ok {
			return fmt.Errorf("column %d: ray coefficient %g needs an infinite bound", j, -a)
		}
		val += term
		scale += math.Abs(term)
	}
	if val <= farkasTol*scale {
		return fmt.Errorf("ray margin %g is not positive (terms up to %g)", val, scale)
	}
	return nil
}

// dotRHS returns yᵀb and the sum of its terms' magnitudes.
func (s *solver) dotRHS(y []float64) (dot, scale float64) {
	for r, b := range s.rhsCache {
		t := y[r] * b
		dot += t
		scale += math.Abs(t)
	}
	return dot, scale
}

// boundTerm returns the minimum of d·x over lo ≤ x ≤ hi. A |d| ≤ tol
// against the infinite bound it would need counts as zero; otherwise ok is
// false, for the minimum is −∞.
func boundTerm(d, tol, lo, hi float64) (term float64, ok bool) {
	switch {
	case d > 0 && !math.IsInf(lo, -1):
		return d * lo, true
	case d < 0 && !math.IsInf(hi, 1):
		return d * hi, true
	case math.Abs(d) <= tol:
		return 0, true
	}
	return 0, false
}
