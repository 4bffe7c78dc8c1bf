// Package lp is a self-contained linear-programming solver: a two-phase
// bounded-variable revised simplex with a dense, explicitly maintained basis
// inverse, sparse constraint columns, Dantzig pricing with a Bland
// anti-cycling fallback, and periodic refactorization.
//
// The paper solves its global skew-variation LP (Eqs. (4)–(11)) with a
// commercial solver; this package fills that role. Problem sizes in this
// reproduction stay in the low thousands of rows, where a dense basis
// inverse (O(m²) per iteration) is comfortably fast in pure Go.
package lp

import (
	"fmt"
	"math"
	"sort"

	"skewvar/internal/resilience"
)

// Inf is the canonical unbounded-bound value.
var Inf = math.Inf(1)

// Sense is a constraint relation.
type Sense int8

// Constraint senses.
const (
	LE Sense = iota // Σ a·x ≤ b
	GE              // Σ a·x ≥ b
	EQ              // Σ a·x = b
)

// Status reports the solve outcome.
type Status int8

// Solve statuses.
const (
	Optimal Status = iota
	Infeasible
	Unbounded
	IterLimit
)

// String implements fmt.Stringer.
func (s Status) String() string {
	switch s {
	case Optimal:
		return "optimal"
	case Infeasible:
		return "infeasible"
	case Unbounded:
		return "unbounded"
	case IterLimit:
		return "iteration-limit"
	}
	return fmt.Sprintf("Status(%d)", int(s))
}

// Problem is a linear program under construction: minimize cᵀx subject to
// row constraints and variable bounds.
type Problem struct {
	lo, hi, cost []float64
	names        []string

	rowSense []Sense
	rowRHS   []float64
	rowIdx   [][]int
	rowCoef  [][]float64

	err error // first build error; sticky, reported by Err and Solve
}

// NewProblem returns an empty minimization problem.
func NewProblem() *Problem { return &Problem{} }

// fail records the first build error. Invalid inputs used to panic; they are
// now sticky errors so a flow feeding the solver corrupted data (NaN delays,
// bad indices) degrades instead of aborting the process.
func (p *Problem) fail(format string, args ...interface{}) {
	if p.err == nil {
		p.err = fmt.Errorf(format, args...)
	}
}

// Err returns the first invalid AddVar/AddConstraint input recorded so far,
// or nil. Solve also reports it, so most callers need not check between
// builder calls.
func (p *Problem) Err() error { return p.err }

// AddVar adds a variable with bounds [lo, hi] and objective coefficient
// cost, returning its index. Use -Inf/Inf for free bounds. Invalid inputs
// (NaN, lo > hi) record a sticky error reported by Err/Solve; the variable is
// still appended (with zeroed bounds) so indices stay consistent.
func (p *Problem) AddVar(lo, hi, cost float64, name string) int {
	switch {
	case math.IsNaN(lo) || math.IsNaN(hi) || math.IsNaN(cost):
		p.fail("lp: variable %q has NaN bound or cost (lo %v, hi %v, cost %v)", name, lo, hi, cost)
		lo, hi, cost = 0, 0, 0
	case lo > hi:
		p.fail("lp: variable %q has lo %v > hi %v", name, lo, hi)
		lo, hi = 0, 0
	}
	p.lo = append(p.lo, lo)
	p.hi = append(p.hi, hi)
	p.cost = append(p.cost, cost)
	p.names = append(p.names, name)
	return len(p.lo) - 1
}

// NumVars returns the number of structural variables.
func (p *Problem) NumVars() int { return len(p.lo) }

// NumRows returns the number of constraints.
func (p *Problem) NumRows() int { return len(p.rowSense) }

// AddConstraint adds Σ coef[i]·x[idx[i]] (sense) rhs and returns the row
// index. Duplicate variable indices within one row are summed. Invalid rows
// (length mismatch, unknown variable, NaN coefficient or RHS) record a sticky
// error reported by Err/Solve and are dropped; the returned index is -1.
func (p *Problem) AddConstraint(sense Sense, rhs float64, idx []int, coef []float64) int {
	if len(idx) != len(coef) {
		p.fail("lp: row %d: index/coefficient length mismatch (%d vs %d)", len(p.rowSense), len(idx), len(coef))
		return -1
	}
	if math.IsNaN(rhs) {
		p.fail("lp: row %d has NaN right-hand side", len(p.rowSense))
		return -1
	}
	merged := map[int]float64{}
	for i, v := range idx {
		if v < 0 || v >= len(p.lo) {
			p.fail("lp: row %d references unknown variable %d", len(p.rowSense), v)
			return -1
		}
		if math.IsNaN(coef[i]) {
			p.fail("lp: row %d has NaN coefficient for variable %d", len(p.rowSense), v)
			return -1
		}
		merged[v] += coef[i]
	}
	var mi []int
	var mc []float64
	for v := range merged {
		mi = append(mi, v)
	}
	// Deterministic column order regardless of map iteration.
	sort.Ints(mi)
	for _, v := range mi {
		mc = append(mc, merged[v])
	}
	p.rowSense = append(p.rowSense, sense)
	p.rowRHS = append(p.rowRHS, rhs)
	p.rowIdx = append(p.rowIdx, mi)
	p.rowCoef = append(p.rowCoef, mc)
	return len(p.rowSense) - 1
}

// Solution is the result of a solve.
type Solution struct {
	Status     Status
	Obj        float64
	X          []float64 // structural variable values
	Iterations int
	Refactors  int // basis refactorizations performed (numerical-health signal)
}

// Options tunes the solver. Zero values select defaults.
type Options struct {
	MaxIters int // default 40·(m+n)+2000
}

const (
	refactorEvery = 400
	// feasTol is the primal feasibility tolerance of the initial slack
	// basis; optTol is the reduced-cost tolerance of pricing.
	feasTol float64 = 1e-7
	optTol  float64 = 1e-7
)

// sparse column of the expanded constraint matrix.
type col struct {
	idx []int
	val []float64
}

type solver struct {
	m, n    int // rows; total variables (structural + slack + artificial)
	nStruct int
	cols    []col
	cost    []float64 // active objective (phase 1 or 2)
	cost2   []float64 // phase-2 objective
	lo, hi  []float64

	basis   []int  // row → variable
	rowOf   []int  // variable → row, or -1
	atUpper []bool // nonbasic rest position
	xN      []float64
	xB      []float64
	binv    [][]float64

	rhsCache []float64 // original constraint RHS b
	d        []float64 // reduced costs of all variables (0 for basic)

	iters, maxIters int
	sinceRefactor   int
	refactors       int
}

// iterLimitErr builds the typed solver error for iteration-limit exhaustion
// (also used for a numerically wedged basis, which surfaces as IterLimit).
// Degradation paths detect it with errors.Is(err, resilience.ErrSolver).
func iterLimitErr(iters int) error {
	return fmt.Errorf("lp: iteration limit exhausted after %d iterations: %w", iters, resilience.ErrSolver)
}

// Solve runs the two-phase simplex. A problem with invalid build inputs
// (see Err) fails immediately with a resilience.ErrSolver-wrapped error.
// Iteration-limit exhaustion returns both the IterLimit-status solution and
// a typed resilience.ErrSolver error; Infeasible and Unbounded are
// legitimate outcomes reported via Status with a nil error.
func (p *Problem) Solve(opt Options) (*Solution, error) {
	if p.err != nil {
		return nil, fmt.Errorf("lp: invalid problem: %v: %w", p.err, resilience.ErrSolver)
	}
	m := len(p.rowSense)
	nS := len(p.lo)
	if opt.MaxIters == 0 {
		opt.MaxIters = 40*(m+nS) + 2000
	}
	s := &solver{
		m:        m,
		nStruct:  nS,
		maxIters: opt.MaxIters,
	}
	// Build columns: structural vars from rows.
	s.cols = make([]col, nS, nS+2*m)
	s.lo = append([]float64(nil), p.lo...)
	s.hi = append([]float64(nil), p.hi...)
	s.cost2 = append([]float64(nil), p.cost...)
	for r := 0; r < m; r++ {
		for i, v := range p.rowIdx[r] {
			s.cols[v].idx = append(s.cols[v].idx, r)
			s.cols[v].val = append(s.cols[v].val, p.rowCoef[r][i])
		}
	}
	// Slack per row: A·x + s = b.
	for r := 0; r < m; r++ {
		s.cols = append(s.cols, col{idx: []int{r}, val: []float64{1}})
		switch p.rowSense[r] {
		case LE:
			s.lo = append(s.lo, 0)
			s.hi = append(s.hi, Inf)
		case GE:
			s.lo = append(s.lo, math.Inf(-1))
			s.hi = append(s.hi, 0)
		default: // EQ
			s.lo = append(s.lo, 0)
			s.hi = append(s.hi, 0)
		}
		s.cost2 = append(s.cost2, 0)
	}
	s.n = len(s.cols)

	// Nonbasic rest values: finite bound nearest zero, else 0.
	s.xN = make([]float64, s.n)
	s.atUpper = make([]bool, s.n)
	s.rowOf = make([]int, s.n, s.n+m)
	for j := 0; j < s.n; j++ {
		s.rowOf[j] = -1
		s.xN[j] = restValue(s.lo[j], s.hi[j])
		s.atUpper[j] = !math.IsInf(s.hi[j], 1) && s.xN[j] == s.hi[j] && s.xN[j] != s.lo[j]
	}

	s.rhsCache = append([]float64(nil), p.rowRHS...)

	// Initial basis: slacks. Basic values r = b − A·x_N (structural part).
	resid := append([]float64(nil), p.rowRHS...)
	for j := 0; j < nS; j++ {
		if s.xN[j] == 0 {
			continue
		}
		for i, r := range s.cols[j].idx {
			resid[r] -= s.cols[j].val[i] * s.xN[j]
		}
	}
	s.basis = make([]int, m)
	s.xB = make([]float64, m)
	needPhase1 := false
	for r := 0; r < m; r++ {
		sj := nS + r // slack index
		if resid[r] >= s.lo[sj]-feasTol && resid[r] <= s.hi[sj]+feasTol {
			s.basis[r] = sj
			s.xB[r] = resid[r]
			continue
		}
		// Violated: introduce an artificial with +1 coefficient holding the
		// residual; the slack goes nonbasic at its nearest bound.
		needPhase1 = true
		slackRest := restValue(s.lo[sj], s.hi[sj])
		s.xN[sj] = slackRest
		s.atUpper[sj] = !math.IsInf(s.hi[sj], 1) && slackRest == s.hi[sj] && slackRest != s.lo[sj]
		av := resid[r] - slackRest
		ai := len(s.cols)
		s.cols = append(s.cols, col{idx: []int{r}, val: []float64{1}})
		if av >= 0 {
			s.lo = append(s.lo, 0)
			s.hi = append(s.hi, Inf)
		} else {
			s.lo = append(s.lo, math.Inf(-1))
			s.hi = append(s.hi, 0)
		}
		s.cost2 = append(s.cost2, 0)
		s.rowOf = append(s.rowOf, -1)
		s.xN = append(s.xN, 0)
		s.atUpper = append(s.atUpper, false)
		s.basis[r] = ai
		s.xB[r] = av
	}
	s.n = len(s.cols)
	for r, v := range s.basis {
		s.rowOf[v] = r
	}
	s.binv = identity(m)

	sol := &Solution{}
	if needPhase1 {
		// Phase-1 objective: minimize Σ|artificial| = Σ(+a⁺) + Σ(−a⁻).
		s.cost = make([]float64, s.n)
		for j := nS + m; j < s.n; j++ {
			if math.IsInf(s.hi[j], 1) {
				s.cost[j] = 1 // a ≥ 0
			} else {
				s.cost[j] = -1 // a ≤ 0
			}
		}
		st := s.iterate()
		if st == IterLimit {
			sol.Status = IterLimit
			sol.Iterations = s.iters
			sol.Refactors = s.refactors
			return sol, iterLimitErr(s.iters)
		}
		if s.objective() > 1e-6 {
			sol.Status = Infeasible
			sol.Iterations = s.iters
			sol.Refactors = s.refactors
			return sol, nil
		}
		// Pin artificials to zero so phase 2 cannot reuse them.
		for j := nS + m; j < s.n; j++ {
			s.lo[j], s.hi[j] = 0, 0
			if s.rowOf[j] == -1 {
				s.xN[j] = 0
				s.atUpper[j] = false
			}
		}
	}
	// Phase 2.
	s.cost = make([]float64, s.n)
	copy(s.cost, s.cost2)
	st := s.iterate()
	sol.Iterations = s.iters
	sol.Refactors = s.refactors
	switch st {
	case Unbounded:
		sol.Status = Unbounded
		return sol, nil
	case IterLimit:
		sol.Status = IterLimit
		return sol, iterLimitErr(s.iters)
	}
	sol.Status = Optimal
	sol.X = make([]float64, nS)
	for j := 0; j < nS; j++ {
		if r := s.rowOf[j]; r >= 0 {
			sol.X[j] = s.xB[r]
		} else {
			sol.X[j] = s.xN[j]
		}
	}
	var obj float64
	for j := 0; j < nS; j++ {
		obj += p.cost[j] * sol.X[j]
	}
	sol.Obj = obj
	return sol, nil
}

func restValue(lo, hi float64) float64 {
	switch {
	case lo <= 0 && hi >= 0 && !math.IsInf(lo, -1) && lo == hi:
		return lo
	case !math.IsInf(lo, -1) && lo >= 0:
		return lo
	case !math.IsInf(hi, 1) && hi <= 0:
		return hi
	case !math.IsInf(lo, -1):
		return lo
	case !math.IsInf(hi, 1):
		return hi
	default:
		return 0
	}
}

func identity(m int) [][]float64 {
	b := make([][]float64, m)
	for i := range b {
		b[i] = make([]float64, m)
		b[i][i] = 1
	}
	return b
}

// objective returns the current active-cost objective value.
func (s *solver) objective() float64 {
	var o float64
	for r, v := range s.basis {
		o += s.cost[v] * s.xB[r]
	}
	for j := 0; j < s.n; j++ {
		if s.rowOf[j] == -1 && s.xN[j] != 0 {
			o += s.cost[j] * s.xN[j]
		}
	}
	return o
}

// recomputeReducedCosts rebuilds s.d from scratch: d_j = c_j − y·A_j with
// y = c_B·B⁻¹. Called at phase start, at refactorization, and when pricing
// switches to Bland's rule (to clear accumulated drift).
func (s *solver) recomputeReducedCosts() {
	if len(s.d) < s.n {
		s.d = make([]float64, s.n)
	}
	y := make([]float64, s.m)
	for r, v := range s.basis {
		cv := s.cost[v]
		if cv == 0 {
			continue
		}
		row := s.binv[r]
		for i := 0; i < s.m; i++ {
			y[i] += cv * row[i]
		}
	}
	for j := 0; j < s.n; j++ {
		if s.rowOf[j] >= 0 {
			s.d[j] = 0
			continue
		}
		dv := s.cost[j]
		c := &s.cols[j]
		for t, r := range c.idx {
			dv -= y[r] * c.val[t]
		}
		s.d[j] = dv
	}
}

// iterate runs simplex pivots until optimality/unboundedness/limit.
// Reduced costs are maintained incrementally across pivots (one sparse
// matrix-row product per pivot) rather than recomputed from duals, which
// keeps the per-iteration cost at O(m²) for the basis-inverse update.
func (s *solver) iterate() Status {
	stall := 0
	lastObj := math.Inf(1)
	w := make([]float64, s.m)
	oldRow := make([]float64, s.m)
	s.recomputeReducedCosts()
	blandActive := false
	for {
		if s.iters >= s.maxIters {
			return IterLimit
		}
		s.iters++
		// Pricing.
		bland := stall > 60
		if bland && !blandActive {
			s.recomputeReducedCosts() // clear drift before careful mode
		}
		blandActive = bland
		enter, dir := s.price(bland)
		if enter < 0 {
			return Optimal
		}
		// w = B⁻¹ · A_enter.
		for i := 0; i < s.m; i++ {
			w[i] = 0
		}
		c := &s.cols[enter]
		for t, r := range c.idx {
			av := c.val[t]
			for i := 0; i < s.m; i++ {
				w[i] += s.binv[i][r] * av
			}
		}
		// Ratio test: entering moves by Δ·dir from its rest value; basic r
		// moves by −dir·Δ·w[r].
		limit := math.Inf(1)
		if dir > 0 {
			if !math.IsInf(s.hi[enter], 1) {
				limit = s.hi[enter] - s.xN[enter]
			}
		} else {
			if !math.IsInf(s.lo[enter], -1) {
				limit = s.xN[enter] - s.lo[enter]
			}
		}
		leave := -1
		leaveAtUpper := false
		const pivTol = 1e-9
		for r := 0; r < s.m; r++ {
			rate := -float64(dir) * w[r]
			if rate > pivTol { // basic increases toward hi
				v := s.basis[r]
				if !math.IsInf(s.hi[v], 1) {
					room := (s.hi[v] - s.xB[r]) / rate
					if room < limit-1e-12 {
						limit, leave, leaveAtUpper = room, r, true
					}
				}
			} else if rate < -pivTol { // basic decreases toward lo
				v := s.basis[r]
				if !math.IsInf(s.lo[v], -1) {
					room := (s.lo[v] - s.xB[r]) / rate
					if room < limit-1e-12 {
						limit, leave, leaveAtUpper = room, r, false
					}
				}
			}
		}
		if math.IsInf(limit, 1) {
			return Unbounded
		}
		if limit < 0 {
			limit = 0
		}
		delta := float64(dir) * limit
		// Apply movement to basics.
		for r := 0; r < s.m; r++ {
			s.xB[r] -= delta * w[r]
		}
		if leave == -1 {
			// Bound flip of the entering variable (reduced costs unchanged).
			s.xN[enter] += delta
			s.atUpper[enter] = dir > 0
		} else {
			// Pivot: entering becomes basic at xN+delta; leaver goes to its
			// bound.
			lv := s.basis[leave]
			entVal := s.xN[enter] + delta
			if leaveAtUpper {
				s.xN[lv] = s.hi[lv]
				s.atUpper[lv] = true
			} else {
				s.xN[lv] = s.lo[lv]
				s.atUpper[lv] = false
			}
			s.rowOf[lv] = -1
			s.basis[leave] = enter
			s.rowOf[enter] = leave
			s.xB[leave] = entVal
			// Incremental reduced-cost update: d'_j = d_j − γ·ρ_j with
			// γ = d_q/w_r and ρ_j = (old B⁻¹ row r)·A_j. The departing
			// variable lands at d = −γ automatically (ρ_lv = 1).
			gamma := s.d[enter] / w[leave]
			copy(oldRow, s.binv[leave])
			if gamma != 0 {
				for j := 0; j < s.n; j++ {
					if s.rowOf[j] >= 0 {
						continue
					}
					c := &s.cols[j]
					var rho float64
					for t, r := range c.idx {
						rho += oldRow[r] * c.val[t]
					}
					if rho != 0 {
						s.d[j] -= gamma * rho
					}
				}
			} else {
				s.d[lv] = 0
			}
			s.d[enter] = 0
			s.updateBinv(leave, w)
			s.sinceRefactor++
			if s.sinceRefactor >= refactorEvery {
				if !s.refactor() {
					return IterLimit // numerically wedged basis
				}
				s.recomputeReducedCosts()
			}
		}
		// Stall detection for Bland switching.
		obj := s.objective()
		if obj < lastObj-1e-10 {
			stall = 0
			lastObj = obj
		} else {
			stall++
		}
	}
}

// price selects the entering variable. dir=+1 to increase (at lower, d<0),
// -1 to decrease (at upper, d>0). Returns (-1, 0) at optimality.
func (s *solver) price(bland bool) (enter, dir int) {
	bestScore := optTol
	enter, dir = -1, 0
	for j := 0; j < s.n; j++ {
		if s.rowOf[j] >= 0 {
			continue
		}
		if s.lo[j] == s.hi[j] { // fixed variable never enters
			continue
		}
		d := s.d[j]
		canUp := !s.atUpper[j] || math.IsInf(s.hi[j], 1)
		canDown := s.atUpper[j] || math.IsInf(s.lo[j], -1)
		// At a finite lower bound the variable may only increase; at a
		// finite upper bound only decrease; free nonbasics may do either.
		if s.rowOf[j] == -1 && !s.atUpper[j] && math.IsInf(s.lo[j], -1) && s.xN[j] == 0 {
			canUp, canDown = true, true
		}
		var score float64
		var d2 int
		if d < -optTol && canUp {
			score, d2 = -d, +1
		} else if d > optTol && canDown {
			score, d2 = d, -1
		} else {
			continue
		}
		if bland {
			return j, d2
		}
		if score > bestScore {
			bestScore, enter, dir = score, j, d2
		}
	}
	return enter, dir
}

// updateBinv applies the elementary pivot transform for the basis change in
// row `leave`, where w = B⁻¹·A_enter.
func (s *solver) updateBinv(leave int, w []float64) {
	piv := w[leave]
	inv := 1 / piv
	rowL := s.binv[leave]
	for i := 0; i < s.m; i++ {
		rowL[i] *= inv
	}
	for r := 0; r < s.m; r++ {
		if r == leave {
			continue
		}
		f := w[r]
		if f == 0 {
			continue
		}
		row := s.binv[r]
		for i := 0; i < s.m; i++ {
			row[i] -= f * rowL[i]
		}
	}
}

// refactor recomputes B⁻¹ from scratch by Gauss-Jordan and recomputes basic
// values; returns false if the basis is numerically singular.
func (s *solver) refactor() bool {
	s.refactors++
	m := s.m
	// Assemble B.
	a := make([][]float64, m)
	for i := range a {
		a[i] = make([]float64, 2*m)
		a[i][m+i] = 1
	}
	for r, v := range s.basis {
		c := &s.cols[v]
		for t, ri := range c.idx {
			a[ri][r] = c.val[t]
		}
	}
	// Gauss-Jordan with partial pivoting.
	for colI := 0; colI < m; colI++ {
		piv := colI
		for r := colI + 1; r < m; r++ {
			if math.Abs(a[r][colI]) > math.Abs(a[piv][colI]) {
				piv = r
			}
		}
		if math.Abs(a[piv][colI]) < 1e-12 {
			return false
		}
		a[colI], a[piv] = a[piv], a[colI]
		inv := 1 / a[colI][colI]
		for cc := colI; cc < 2*m; cc++ {
			a[colI][cc] *= inv
		}
		for r := 0; r < m; r++ {
			if r == colI {
				continue
			}
			f := a[r][colI]
			if f == 0 {
				continue
			}
			for cc := colI; cc < 2*m; cc++ {
				a[r][cc] -= f * a[colI][cc]
			}
		}
	}
	for i := 0; i < m; i++ {
		copy(s.binv[i], a[i][m:])
	}
	// Recompute the basic values as x_B = B⁻¹(b − N·x_N) from the cached
	// right-hand side b.
	rhs := make([]float64, m)
	copy(rhs, s.rhsCache)
	for j := 0; j < s.n; j++ {
		if s.rowOf[j] >= 0 || s.xN[j] == 0 {
			continue
		}
		c := &s.cols[j]
		for t, r := range c.idx {
			rhs[r] -= c.val[t] * s.xN[j]
		}
	}
	for r := 0; r < m; r++ {
		var v float64
		row := s.binv[r]
		for i := 0; i < m; i++ {
			v += row[i] * rhs[i]
		}
		s.xB[r] = v
	}
	s.sinceRefactor = 0
	return true
}
