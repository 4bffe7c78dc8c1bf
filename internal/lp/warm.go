package lp

import (
	"math"
	"slices"
)

// A re-solve starts from the basis the previous solve kept. SetRHS and
// SetBounds leave its reduced costs as they were, and a row added by
// AddConstraint joins it with its slack basic and a zero dual, so an
// optimal basis stays dual feasible once each boxed nonbasic rests at the
// bound its reduced cost calls for. Only primal feasibility is lost, and a
// bounded dual simplex restores it (Koberstein, "The dual simplex method,
// techniques for a fast and stable implementation", PhD thesis, Paderborn
// 2005). The dual simplex reuses the primal one's parts: the ρ walk forms
// the pivot row α_r = (B⁻¹)_r·A, ftran the entering column, and pivot,
// updateBinv and refactor the basis change. Primal phase 2 then runs from
// the same basis and clears any reduced cost the dual left just outside
// its tolerance.

// resolve re-optimizes p from the kept basis and returns the answer once it
// passes its certificate. It returns nil when it cannot: the basis cannot
// be made dual feasible, a refactorization finds it singular, the pivots
// hit the iteration cap or disagree with their columns, or the answer
// fails its certificate. Solve then solves cold.
func (s *solver) resolve(p *Problem) *Solution {
	s.iters, s.refactors = 0, 0
	if !s.sync(p) {
		return nil
	}
	s.recomputeReducedCosts()
	if !s.placeNonbasics() {
		return nil
	}
	s.computeXB()
	st, ok := s.dual()
	if !ok {
		return nil
	}
	if st == Infeasible {
		// Row r of B⁻¹, signed toward the violated bound, is a Farkas ray.
		for i, v := range s.pivRow {
			s.y[i] = s.raySign * v
		}
		if s.certifyInfeasible(s.y) != nil {
			return nil
		}
		return &Solution{Status: Infeasible, Iterations: s.iters, Refactors: s.refactors, Warm: true}
	}
	if s.iterate() != Optimal {
		return nil
	}
	sol := &Solution{Iterations: s.iters, Refactors: s.refactors, Warm: true}
	s.optimal(p, sol)
	if s.certifyOptimal(p, sol) != nil {
		return nil
	}
	return sol
}

// sync brings the kept solver up to date with p. It retires phase 1's
// artificials, appends the rows added since the last solve with their
// slacks basic, and takes p's bounds, right-hand sides and costs. It
// reports false if the grown basis cannot be refactored.
func (s *solver) sync(p *Problem) bool {
	nS, m0, m := s.nStruct, s.m, len(p.rowSense)
	if s.n > nS+m0 {
		// A basic artificial hands its basis position to its row's slack:
		// both are that row's unit column, so B⁻¹ stays as it is, and
		// computeXB gives the slack its value.
		for r, a := range s.artOf {
			if a >= 0 && s.rowOf[a] >= 0 {
				sl := nS + r
				s.basis[s.rowOf[a]], s.rowOf[sl] = sl, s.rowOf[a]
			}
			s.artOf[r] = -1
		}
		n := nS + m0
		s.n = n
		s.cols, s.lo, s.hi, s.cost2 = s.cols[:n], s.lo[:n], s.hi[:n], s.cost2[:n]
		s.rowOf, s.atUpper, s.xN = s.rowOf[:n], s.atUpper[:n], s.xN[:n]
	}
	s.rowIdx, s.rowCoef = p.rowIdx, p.rowCoef
	copy(s.lo, p.lo)
	copy(s.hi, p.hi)
	copy(s.cost2, p.cost)
	s.rhsCache = append(s.rhsCache[:0], p.rowRHS...)
	if m > m0 {
		for r := m0; r < m; r++ {
			for i, v := range p.rowIdx[r] {
				c := &s.cols[v]
				c.idx = append(c.idx, r)
				c.val = append(c.val, p.rowCoef[r][i])
			}
		}
		for r := m0; r < m; r++ {
			lo, hi := slackBounds(p.rowSense[r])
			sl := len(s.cols)
			s.cols = append(s.cols, col{idx: []int{r}, val: []float64{1}})
			s.lo, s.hi, s.cost2 = append(s.lo, lo), append(s.hi, hi), append(s.cost2, 0)
			s.rowOf, s.atUpper, s.xN = append(s.rowOf, r), append(s.atUpper, false), append(s.xN, 0)
			s.basis, s.xB, s.artOf = append(s.basis, sl), append(s.xB, 0), append(s.artOf, -1)
		}
		s.m, s.n = m, len(s.cols)
		s.binv = make([]float64, m*m)
		s.unit = make([]int32, m)
		s.sizeScratch()
		if !s.refactor() {
			return false
		}
	}
	s.cost = append(s.cost[:0], s.cost2...)
	return true
}

// placeNonbasics rests every nonbasic variable at the bound its reduced
// cost calls for: a boxed one flips to its upper bound when d < 0 and to
// its lower bound when d > 0. It reports false if a reduced cost calls for
// a bound the variable does not have, so no flip makes the basis dual
// feasible.
func (s *solver) placeNonbasics() bool {
	for j := 0; j < s.n; j++ {
		if s.rowOf[j] >= 0 {
			continue
		}
		lo, hi, d := s.lo[j], s.hi[j], s.d[j]
		loFin, hiFin := !math.IsInf(lo, -1), !math.IsInf(hi, 1)
		up := false
		switch {
		case lo == hi:
		case loFin && hiFin:
			up = d < -optTol || (s.atUpper[j] && d <= optTol)
		case loFin:
			if d < -optTol {
				return false
			}
		case hiFin:
			if d > optTol {
				return false
			}
			up = true
		case math.Abs(d) > optTol:
			return false
		}
		s.atUpper[j] = up
		switch {
		case up:
			s.xN[j] = hi
		case loFin:
			s.xN[j] = lo
		default:
			s.xN[j] = 0
		}
	}
	return true
}

// computeXB sets the basic values to x_B = B⁻¹(b − N·x_N), one column of
// B⁻¹ per nonzero entry of b − N·x_N. A unit column e_k adds only to x_k,
// as in ftran.
func (s *solver) computeXB() {
	m := s.m
	clear(s.xB)
	for i, v := range s.nonbasicRHS() {
		if v == 0 {
			continue
		}
		if k := s.unit[i]; k >= 0 {
			s.xB[k] += v
			continue
		}
		for r, b := range s.binv[i*m : i*m+m] {
			s.xB[r] += b * v
		}
	}
}

// dual runs the bounded dual simplex from a dual feasible basis. Each
// iteration picks the basic variable farthest outside its bounds to leave,
// forms its row of B⁻¹A with the ρ walk, and picks the entering variable
// and the boxed variables to flip by dualRatio. It returns Optimal once
// the basis is primal feasible, and Infeasible when a leaving row's
// infeasibility outlasts every breakpoint: s.pivRow then holds that row of
// B⁻¹ and s.raySign the sign that makes it a Farkas ray. ok is false on
// the iteration cap, a singular refactorization, a pivot that disagrees
// with its column after a fresh refactorization, or an infeasibility too
// small to tell from phase 1's tolerance.
func (s *solver) dual() (st Status, ok bool) {
	m := s.m
	for {
		leave, excess, worst := -1, 0.0, feasTol
		for r, v := range s.basis {
			x := s.xB[r]
			if e := s.lo[v] - x; e > worst {
				leave, excess, worst = r, -e, e
			} else if e := x - s.hi[v]; e > worst {
				leave, excess, worst = r, e, e
			}
		}
		if leave < 0 {
			return Optimal, true
		}
		if s.iters >= s.maxIters {
			return IterLimit, false
		}
		s.iters++
		// sigma is +1 when the leaving variable falls to its upper bound,
		// −1 when it rises to its lower bound.
		sigma := 1.0
		if excess < 0 {
			sigma = -1
		}
		s.gatherPivotRow(leave)
		s.accumulateRho()
		enter, slope := s.dualRatio(sigma, excess)
		if enter < 0 {
			s.clearRho()
			// Phase 1 calls a problem infeasible above 1e-6; a smaller
			// margin is left to the cold solve to judge.
			if slope <= 1e-6 {
				return 0, false
			}
			s.raySign = sigma
			return Infeasible, true
		}
		alpha := s.rho[enter]
		s.ftran(enter)
		w := s.w
		if math.Abs(w[leave]-alpha) > 1e-7*(1+math.Abs(alpha)) {
			// The row and the column disagree: B⁻¹ has drifted. Refactor
			// and choose again; a fresh B⁻¹ that still disagrees gives up.
			s.clearRho()
			if s.sinceRefactor == 0 || !s.refactor() {
				return 0, false
			}
			s.recomputeReducedCosts()
			continue
		}
		lv := s.basis[leave]
		bound := s.lo[lv]
		if sigma > 0 {
			bound = s.hi[lv]
		}
		if len(s.flips) > 0 {
			s.flipBounds()
			excess = s.xB[leave] - bound
		}
		thetaP := excess / w[leave]
		for r := 0; r < m; r++ {
			s.xB[r] -= thetaP * w[r]
		}
		entVal := s.xN[enter] + thetaP
		s.xN[lv] = bound
		s.atUpper[lv] = sigma > 0 && s.lo[lv] != s.hi[lv]
		// The leaving variable's reduced cost becomes −γ, whose sign must
		// match its bound. A γ of the wrong sign comes from a reduced cost
		// within tolerance of zero; treating it as zero shifts that cost
		// by at most the tolerance, and primal phase 2 prices it exactly.
		gamma := s.d[enter] / w[leave]
		if gamma*sigma < 0 {
			gamma = 0
		}
		if !s.pivot(leave, enter, entVal, gamma) {
			return 0, false
		}
	}
}

// breakpoint is a nonbasic variable that bounds the dual step, with its
// signed pivot-row entry a and its ratio t = d_j/a.
type breakpoint struct {
	j    int
	a, t float64
}

// before orders breakpoints by ratio, then by variable.
func (x breakpoint) before(y breakpoint) bool {
	return x.t < y.t || x.t == y.t && x.j < y.j
}

// dualRatio is the bound-flipping dual ratio test for a leaving row with
// pivot-row entries α_j = s.rho[j], direction sigma and bound violation
// excess. A nonbasic j is a breakpoint of the dual step when its reduced
// cost moves toward the wrong sign: α̂_j = sigma·α_j > 0 at a lower bound,
// α̂_j < 0 at an upper bound, either for a free variable; the step reaches
// it at t_j = d_j/α̂_j. Passing a boxed breakpoint flips the variable to
// its other bound, which lowers the leaving row's violation — the dual
// objective's slope — by |α̂_j|·(hi_j − lo_j). The test passes breakpoints
// in (t, j) order while the slope stays positive; those are listed in
// s.flips. It draws them from a min-heap, so only the passed ones and the
// one that stops the walk are ordered. Among the rest it applies Harris's
// two passes: the smallest ratio with each reduced cost relaxed by optTol
// bounds the step, and the largest |α̂_j| within it enters, the least
// (t, j) among equals, which keeps the pivot element large. It returns the
// entering variable, or −1 with the remaining slope when the violation
// outlasts every breakpoint.
func (s *solver) dualRatio(sigma, excess float64) (enter int, slope float64) {
	const pivTol = 1e-9
	bps := s.bps[:0]
	for _, j := range s.rhoVars {
		a := sigma * s.rho[j]
		if s.bindsDual(j, a, pivTol) {
			bps = append(bps, breakpoint{j, a, math.Max(0, s.d[j]/a)})
		}
	}
	s.bps = bps
	for i := len(bps)/2 - 1; i >= 0; i-- {
		siftDown(bps, i)
	}
	slope = math.Abs(excess)
	s.flips = s.flips[:0]
	for len(bps) > 0 {
		j := bps[0].j
		if math.IsInf(s.lo[j], -1) || math.IsInf(s.hi[j], 1) {
			break
		}
		if slope -= math.Abs(bps[0].a) * (s.hi[j] - s.lo[j]); slope <= 0 {
			break
		}
		s.flips = append(s.flips, j)
		last := len(bps) - 1
		bps[0] = bps[last]
		bps = bps[:last]
		siftDown(bps, 0)
	}
	if len(bps) == 0 {
		s.flips = s.flips[:0]
		return -1, slope
	}
	bound := math.Inf(1)
	for _, bp := range bps {
		relax := optTol
		if bp.a < 0 {
			relax = -optTol
		}
		bound = math.Min(bound, (s.d[bp.j]+relax)/bp.a)
	}
	enter, best := -1, breakpoint{}
	for _, bp := range bps {
		if a := math.Abs(bp.a); bp.t <= bound && (enter < 0 || a > math.Abs(best.a) || a == math.Abs(best.a) && bp.before(best)) {
			enter, best = bp.j, bp
		}
	}
	return enter, slope
}

// siftDown restores the min-heap order of h (by breakpoint.before) below
// position i.
func siftDown(h []breakpoint, i int) {
	for {
		c := 2*i + 1
		if c >= len(h) {
			return
		}
		if c+1 < len(h) && h[c+1].before(h[c]) {
			c++
		}
		if !h[c].before(h[i]) {
			return
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
}

// flipBounds moves every variable in s.flips to its other bound and the
// basic values with them: x_B −= B⁻¹·Σ_j A_j·Δx_j. x_B is not a fresh sum,
// and x − (±0) differs from x only when x is −0 (−0 − −0 = +0), so a unit
// column e_k subtracts from x_k alone only while no basic value is −0. A
// subtraction never makes a −0 of a value that was not one, so one scan
// before the sweep settles it.
func (s *solver) flipBounds() {
	m := s.m
	units := !slices.ContainsFunc(s.xB, isNegZero)
	delta := s.rhs
	clear(delta)
	for _, j := range s.flips {
		dx := s.hi[j] - s.lo[j]
		if s.atUpper[j] {
			dx = -dx
			s.xN[j] = s.lo[j]
		} else {
			s.xN[j] = s.hi[j]
		}
		s.atUpper[j] = !s.atUpper[j]
		c := &s.cols[j]
		for t, r := range c.idx {
			delta[r] += c.val[t] * dx
		}
	}
	for i, v := range delta {
		if v == 0 {
			continue
		}
		if k := s.unit[i]; k >= 0 && units {
			s.xB[k] -= v
			continue
		}
		for r, b := range s.binv[i*m : i*m+m] {
			s.xB[r] -= b * v
		}
	}
}

func isNegZero(x float64) bool { return x == 0 && math.Signbit(x) }

// bindsDual reports whether nonbasic j, with signed pivot-row entry a,
// is a breakpoint of the dual step (see dualRatio).
func (s *solver) bindsDual(j int, a, pivTol float64) bool {
	if s.rowOf[j] >= 0 || s.lo[j] == s.hi[j] {
		return false
	}
	switch {
	case a > pivTol:
		return !s.atUpper[j]
	case a < -pivTol:
		return s.atUpper[j] || math.IsInf(s.lo[j], -1) && math.IsInf(s.hi[j], 1)
	}
	return false
}
