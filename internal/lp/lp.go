// Package lp is a self-contained linear-programming solver: a two-phase
// bounded-variable revised simplex with an explicitly maintained basis
// inverse, sparse constraint columns, Dantzig pricing with a Bland
// anti-cycling fallback, and periodic refactorization. A Problem keeps its
// solver after a solve, and a solve after SetRHS, SetBounds or
// AddConstraint re-optimizes from the kept basis with a bounded dual
// simplex (warm.go). Every answer is checked against a certificate before
// it is returned (certify.go).
//
// The paper solves its global skew-variation LP (Eqs. (4)–(11)) with a
// commercial solver; this package fills that role. B⁻¹ is stored dense and
// column-major in one flat slice, but a pivot touches only nonzeros: the
// inverse update walks the nonzero entries of the pivot row and of the
// entering column, the reduced-cost update walks the constraint rows where
// the pivot row is nonzero, and the Gauss–Jordan refactorization
// eliminates over the pivot row's nonzero columns. The pivot row of B⁻¹ is
// about 10% nonzero on the global stage's LPs (docs/SOLVER.md), so a pivot
// costs far less than the O(m²) of a dense sweep; refactorization and the
// storage stay O(m²). A flag per column of B⁻¹ marks the exact unit
// columns, most of them those of rows whose slack is basic, and FTRAN, the
// pivot-row gather, the duals and the basic values read such a column as
// its one entry. Each value that is computed comes from the same
// floating-point operations, in the same order, as in a dense sweep, so a
// cold Solve's results are bit for bit those of the dense solver (see
// iterate).
package lp

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sync"

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

// Problem is a linear program: minimize cᵀx subject to row constraints and
// variable bounds. After a solve it keeps the solver (basis, B⁻¹ and
// scratch), and the next Solve re-optimizes from that basis.
type Problem struct {
	lo, hi, cost []float64

	rowSense []Sense
	rowRHS   []float64
	rowIdx   [][]int
	rowCoef  [][]float64

	err error // first build error; sticky, reported by Err and Solve

	// AddConstraint's sort and merge buffers.
	pos []int
	mi  []int
	mc  []float64

	s        *solver // the last successful solve's solver; nil = solve cold
	maxIters int     // iteration cap of one solve; 0 selects 40·(m+n)+2000
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

// Err returns the first invalid AddVar/AddConstraint/SetRHS/SetBounds input
// recorded so far, or nil. Solve also reports it, so most callers need not
// check between builder calls.
func (p *Problem) Err() error { return p.err }

// AddVar adds a variable with bounds [lo, hi] and objective coefficient
// cost, returning its index. Use -Inf/Inf for free bounds. Invalid inputs
// (NaN, lo > hi) record a sticky error reported by Err/Solve; the variable is
// still appended (with zeroed bounds) so indices stay consistent. A variable
// added after a solve makes the next Solve a cold one.
func (p *Problem) AddVar(lo, hi, cost float64) int {
	j := len(p.lo)
	switch {
	case math.IsNaN(lo) || math.IsNaN(hi) || math.IsNaN(cost):
		p.fail("lp: variable %d has NaN bound or cost (lo %v, hi %v, cost %v)", j, lo, hi, cost)
		lo, hi, cost = 0, 0, 0
	case lo > hi:
		p.fail("lp: variable %d has lo %v > hi %v", j, lo, hi)
		lo, hi = 0, 0
	}
	p.lo = append(p.lo, lo)
	p.hi = append(p.hi, hi)
	p.cost = append(p.cost, cost)
	p.s = nil
	return j
}

// SetBounds changes variable j's bounds to [lo, hi]. Invalid inputs (an
// unknown variable, NaN, lo > hi) record a sticky error reported by
// Err/Solve and change nothing.
func (p *Problem) SetBounds(j int, lo, hi float64) {
	switch {
	case j < 0 || j >= len(p.lo):
		p.fail("lp: SetBounds on unknown variable %d", j)
	case math.IsNaN(lo) || math.IsNaN(hi):
		p.fail("lp: variable %d gets a NaN bound (lo %v, hi %v)", j, lo, hi)
	case lo > hi:
		p.fail("lp: variable %d gets lo %v > hi %v", j, lo, hi)
	default:
		p.lo[j], p.hi[j] = lo, hi
	}
}

// SetRHS changes row's right-hand side. Invalid inputs (an unknown row, NaN)
// record a sticky error reported by Err/Solve and change nothing.
func (p *Problem) SetRHS(row int, rhs float64) {
	switch {
	case row < 0 || row >= len(p.rowRHS):
		p.fail("lp: SetRHS on unknown row %d", row)
	case math.IsNaN(rhs):
		p.fail("lp: row %d gets a NaN right-hand side", row)
	default:
		p.rowRHS[row] = rhs
	}
}

// Clone returns a copy of p's variables and rows without its kept solver,
// so the copy's first Solve is a cold one.
func (p *Problem) Clone() *Problem {
	// Rows are never changed in place, so the copy shares them.
	return &Problem{
		lo: slices.Clone(p.lo), hi: slices.Clone(p.hi), cost: slices.Clone(p.cost),
		rowSense: slices.Clone(p.rowSense), rowRHS: slices.Clone(p.rowRHS),
		rowIdx: slices.Clone(p.rowIdx), rowCoef: slices.Clone(p.rowCoef),
		err: p.err, maxIters: p.maxIters,
	}
}

// NumVars returns the number of structural variables.
func (p *Problem) NumVars() int { return len(p.lo) }

// NumRows returns the number of constraints.
func (p *Problem) NumRows() int { return len(p.rowSense) }

// AddConstraint adds Σ coef[i]·x[idx[i]] (sense) rhs and returns the row
// index. Duplicate variable indices within one row are summed, in input
// order, and a variable whose coefficients sum to exactly zero is left out
// of the row. Invalid rows (length mismatch, unknown variable, NaN
// coefficient or RHS) record a sticky error reported by Err/Solve and are
// dropped; the returned index is -1. A row added after a solve joins the
// kept basis with its slack basic.
func (p *Problem) AddConstraint(sense Sense, rhs float64, idx []int, coef []float64) int {
	if len(idx) != len(coef) {
		p.fail("lp: row %d: index/coefficient length mismatch (%d vs %d)", len(p.rowSense), len(idx), len(coef))
		return -1
	}
	if math.IsNaN(rhs) {
		p.fail("lp: row %d has NaN right-hand side", len(p.rowSense))
		return -1
	}
	for i, v := range idx {
		if v < 0 || v >= len(p.lo) {
			p.fail("lp: row %d references unknown variable %d", len(p.rowSense), v)
			return -1
		}
		if math.IsNaN(coef[i]) {
			p.fail("lp: row %d has NaN coefficient for variable %d", len(p.rowSense), v)
			return -1
		}
	}
	// Order the positions by variable, stably, so each variable's
	// coefficients are summed in input order. An exact-zero sum is dropped:
	// the solver would only ever add products with it.
	pos := p.pos[:0]
	for i := range idx {
		pos = append(pos, i)
	}
	slices.SortStableFunc(pos, func(a, b int) int { return cmp.Compare(idx[a], idx[b]) })
	mi, mc := p.mi[:0], p.mc[:0]
	for k := 0; k < len(pos); {
		v := idx[pos[k]]
		var sum float64
		for ; k < len(pos) && idx[pos[k]] == v; k++ {
			sum += coef[pos[k]]
		}
		if sum != 0 {
			mi = append(mi, v)
			mc = append(mc, sum)
		}
	}
	p.pos, p.mi, p.mc = pos, mi, mc
	p.rowSense = append(p.rowSense, sense)
	p.rowRHS = append(p.rowRHS, rhs)
	p.rowIdx = append(p.rowIdx, slices.Clone(mi))
	p.rowCoef = append(p.rowCoef, slices.Clone(mc))
	return len(p.rowSense) - 1
}

// Solution is the result of a solve.
type Solution struct {
	Status     Status
	Obj        float64
	X          []float64 // structural variable values
	Iterations int
	Refactors  int  // basis refactorizations performed (numerical-health signal)
	Warm       bool // re-optimized from the kept basis; false for a cold solve
}

const (
	refactorEvery = 400
	// feasTol is the primal feasibility tolerance of the initial slack
	// basis and of the dual simplex; optTol is the reduced-cost tolerance
	// of pricing.
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

	// The structural entries of each row (the Problem's, read-only) and
	// the row's artificial variable, or -1. Each row also has the unit
	// slack nStruct+r.
	rowIdx  [][]int
	rowCoef [][]float64
	artOf   []int

	basis   []int  // row → variable
	rowOf   []int  // variable → row, or -1
	atUpper []bool // nonbasic rest position
	xN      []float64
	xB      []float64
	binv    []float64 // B⁻¹, column-major: binv[i*m+r] = (B⁻¹)ᵣᵢ
	// unit[i] is k when column i of B⁻¹ is exactly e_k (1 at row k, ±0
	// elsewhere) and −1 otherwise. A flag may be missing, which only costs
	// time, but a flag that is set must hold, or bits change (see ftran).
	unit []int32

	rhsCache []float64 // original constraint RHS b
	d        []float64 // reduced costs of all variables (0 for basic)

	// Per-pivot scratch: the entering column w = B⁻¹·A_q and the old pivot
	// row of B⁻¹, with their nonzero positions; ρ accumulators per variable.
	w, pivRow  []float64
	nzW, nzRow []int
	rho        []float64
	rhoSeen    []bool
	rhoVars    []int
	// The active phase's columns with a nonzero cost, ascending; iterate
	// lists them at phase start for objective.
	costCols []int
	// The scratch of refactor's pivot rows, of the dual values and of the
	// basic values.
	gjNZ     []int
	y        []float64
	costRows []int
	rhs      []float64

	// The dual simplex's breakpoints, the boxed variables its step flips,
	// and the sign that makes its infeasible row a ray.
	bps     []breakpoint
	flips   []int
	raySign float64

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

// Solve solves the problem. The first Solve is a cold two-phase primal
// simplex from the slack basis. A later one re-optimizes from the basis the
// previous one kept (warm.go), and solves cold instead when that basis
// cannot be made dual feasible or the re-solve fails its certificate.
//
// A problem with invalid build inputs (see Err) fails immediately with a
// resilience.ErrSolver-wrapped error. Iteration-limit exhaustion returns
// both the IterLimit-status solution and a typed resilience.ErrSolver
// error, and so does an answer that fails its certificate (certify.go);
// Infeasible and Unbounded are legitimate outcomes reported via Status
// with a nil error.
func (p *Problem) Solve() (*Solution, error) {
	if p.err != nil {
		return nil, fmt.Errorf("lp: invalid problem: %v: %w", p.err, resilience.ErrSolver)
	}
	maxIters := p.maxIters
	if maxIters == 0 {
		maxIters = 40*(len(p.rowSense)+len(p.lo)) + 2000
	}
	// The solver is kept only once a solve returns without error, so a
	// panic or a failure leaves the next Solve cold.
	var iters, refactors int
	if s := p.s; s != nil {
		p.s = nil
		s.maxIters = maxIters
		if sol := s.resolve(p); sol != nil {
			p.s = s
			return sol, nil
		}
		iters, refactors = s.iters, s.refactors
	}
	s := newSolver(p, maxIters)
	sol, err := s.solveCold(p)
	sol.Iterations += iters
	sol.Refactors += refactors
	if err == nil {
		p.s = s
	}
	return sol, err
}

// newSolver builds the solver of a cold solve: slack columns, the slack
// basis and an artificial for each row the slack basis violates.
func newSolver(p *Problem, maxIters int) *solver {
	m := len(p.rowSense)
	nS := len(p.lo)
	s := &solver{
		m:        m,
		nStruct:  nS,
		maxIters: maxIters,
		rowIdx:   p.rowIdx,
		rowCoef:  p.rowCoef,
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
		lo, hi := slackBounds(p.rowSense[r])
		s.cols = append(s.cols, col{idx: []int{r}, val: []float64{1}})
		s.lo = append(s.lo, lo)
		s.hi = append(s.hi, hi)
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
	s.artOf = make([]int, m)
	for r := 0; r < m; r++ {
		sj := nS + r // slack index
		s.artOf[r] = -1
		if resid[r] >= s.lo[sj]-feasTol && resid[r] <= s.hi[sj]+feasTol {
			s.basis[r] = sj
			s.xB[r] = resid[r]
			continue
		}
		// Violated: introduce an artificial with +1 coefficient holding the
		// residual; the slack goes nonbasic at its nearest bound.
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
		s.artOf[r] = ai
		s.basis[r] = ai
		s.xB[r] = av
	}
	s.n = len(s.cols)
	for r, v := range s.basis {
		s.rowOf[v] = r
	}
	s.binv = make([]float64, m*m)
	s.unit = make([]int32, m)
	for i := 0; i < m; i++ {
		s.binv[i*m+i] = 1
		s.unit[i] = int32(i)
	}
	s.sizeScratch()
	return s
}

// slackBounds returns the bounds of a row's slack: A·x + s = b with s ≥ 0
// for ≤, s ≤ 0 for ≥ and s = 0 for =.
func slackBounds(sense Sense) (lo, hi float64) {
	switch sense {
	case LE:
		return 0, Inf
	case GE:
		return math.Inf(-1), 0
	}
	return 0, 0
}

// sizeScratch sizes the per-row and per-variable scratch for m rows and n
// variables, keeping what is already large enough.
func (s *solver) sizeScratch() {
	m, n := s.m, s.n
	if cap(s.w) < m {
		s.w = make([]float64, m)
		s.pivRow = make([]float64, m)
		s.y = make([]float64, m)
		s.rhs = make([]float64, m)
		s.nzW = make([]int, 0, m)
		s.nzRow = make([]int, 0, m)
		s.costRows = make([]int, 0, m)
		s.gjNZ = make([]int, 0, 2*m)
	}
	s.w, s.pivRow, s.y, s.rhs = s.w[:m], s.pivRow[:m], s.y[:m], s.rhs[:m]
	if cap(s.rho) < n {
		s.rho = make([]float64, n)
		s.rhoSeen = make([]bool, n)
	}
	s.rho, s.rhoSeen = s.rho[:n], s.rhoSeen[:n]
}

// solveCold runs the two phases from the slack basis newSolver built and
// checks the answer's certificate.
func (s *solver) solveCold(p *Problem) (*Solution, error) {
	nS, m := s.nStruct, s.m
	sol := &Solution{}
	if s.n > nS+m {
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
			// The phase-1 duals are the Farkas ray.
			s.duals(s.cost, s.y)
			if err := s.certifyInfeasible(s.y); err != nil {
				return sol, certErr(sol.Status, err)
			}
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
	s.optimal(p, sol)
	if err := s.certifyOptimal(p, sol); err != nil {
		return sol, certErr(sol.Status, err)
	}
	return sol, nil
}

// optimal fills sol with the optimal basis's structural values and their
// objective.
func (s *solver) optimal(p *Problem, sol *Solution) {
	nS := s.nStruct
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

// objective returns the current active-cost objective value. Its
// nonbasic part walks only the columns of s.costCols: a skipped column
// adds 0·x_j = ±0, which leaves a sum that began at +0 as it was.
func (s *solver) objective() float64 {
	var o float64
	for r, v := range s.basis {
		o += s.cost[v] * s.xB[r]
	}
	for _, j := range s.costCols {
		if s.rowOf[j] == -1 && s.xN[j] != 0 {
			o += s.cost[j] * s.xN[j]
		}
	}
	return o
}

// duals sets y = c_B·B⁻¹ for the costs cost: y_i = Σ_r c_B,r·(B⁻¹)ᵣᵢ over
// ascending r with c_B,r ≠ 0, one column of B⁻¹ at a time — the terms,
// and the order, of a sweep over B⁻¹'s rows. A unit column e_k gives
// +0 + c_B,k·1 = c_B,k, or +0 when c_B,k is zero.
func (s *solver) duals(cost, y []float64) {
	m := s.m
	rows := s.costRows[:0]
	for r, v := range s.basis {
		if cost[v] != 0 {
			rows = append(rows, r)
		}
	}
	s.costRows = rows
	for i := range y {
		if k := s.unit[i]; k >= 0 {
			y[i] = 0
			if c := cost[s.basis[k]]; c != 0 {
				y[i] = c
			}
			continue
		}
		bc := s.binv[i*m : i*m+m]
		var v float64
		for _, r := range rows {
			v += cost[s.basis[r]] * bc[r]
		}
		y[i] = v
	}
}

// recomputeReducedCosts rebuilds s.d from scratch: d_j = c_j − y·A_j with
// y = c_B·B⁻¹. Called at phase start, at refactorization, and when pricing
// switches to Bland's rule (to clear accumulated drift).
func (s *solver) recomputeReducedCosts() {
	if len(s.d) < s.n {
		s.d = make([]float64, s.n)
	}
	y := s.y
	s.duals(s.cost, y)
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

// ftran sets s.w = B⁻¹·A_q, one contiguous column of B⁻¹ per entry of A_q.
// A unit column e_k adds its one product, 1·a = a, to w_k: every other
// term it would add is ±0, and each w_i is a sum that began at +0.
func (s *solver) ftran(q int) {
	m := s.m
	w := s.w
	clear(w)
	c := &s.cols[q]
	for t, r := range c.idx {
		av := c.val[t]
		if k := s.unit[r]; k >= 0 {
			w[k] += av
			continue
		}
		for i, b := range s.binv[r*m : r*m+m] {
			w[i] += b * av
		}
	}
}

// iterate runs simplex pivots until optimality/unboundedness/limit.
// Reduced costs are maintained incrementally across pivots (one sparse
// matrix-row product per pivot) rather than recomputed from duals.
//
// The basis-inverse update, the reduced-cost update and the refactorization
// skip every operation whose operand is an exact zero, and so do the
// products with B⁻¹'s unit columns (s.unit); each value they do compute
// comes from the same operations, in the same order, as a dense sweep's.
// With finite values a skipped x −= f·0 or Σ += a·0 can change at most the
// sign of a zero, and no result reads one: the solver divides only by
// |w_r| > pivTol, by w_leave and by Gauss–Jordan pivots ≥ 1e-12, tests
// values against zero only with ==, != or a tolerance, and every sum that
// feeds x_B, w, y or ρ starts at +0, which round-to-nearest never turns
// into −0. reference_test.go holds Solve to the dense solver bit for bit.
func (s *solver) iterate() Status {
	stall := 0
	lastObj := math.Inf(1)
	m := s.m
	w := s.w
	s.recomputeReducedCosts()
	s.costCols = s.costCols[:0]
	for j, c := range s.cost[:s.n] {
		if c != 0 {
			s.costCols = append(s.costCols, j)
		}
	}
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
		s.ftran(enter)
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
		for r := 0; r < m; r++ {
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
		for r := 0; r < m; r++ {
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
			gamma := s.d[enter] / w[leave]
			s.gatherPivotRow(leave)
			if gamma != 0 {
				s.accumulateRho()
			}
			if !s.pivot(leave, enter, entVal, gamma) {
				return IterLimit // numerically wedged basis
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

// pivot makes enter basic in row leave at value entVal, once the departing
// variable has been moved to its bound, and updates the reduced costs and
// B⁻¹. The caller has gathered the old row leave of B⁻¹ and, unless γ is
// zero, accumulated ρ over it; s.w holds B⁻¹·A_enter. The update is
// d'_j = d_j − γ·ρ_j with ρ_j = (old B⁻¹ row leave)·A_j, and the departing
// variable lands at d = −γ since ρ_lv = 1. pivot refactors every
// refactorEvery pivots and reports false if that finds the basis singular.
//
// When the entering column is a unit column e_i (a slack, an artificial or
// a structural with one entry of 1), w is column i of the old B⁻¹, so the
// update set each entry r ≠ leave of the new column i to w_r − w_r·l with
// l its new entry in row leave, and left the others at ±0. If l is exactly
// 1, every such entry is +0, and column i is e_leave.
func (s *solver) pivot(leave, enter int, entVal, gamma float64) bool {
	lv := s.basis[leave]
	s.rowOf[lv] = -1
	s.basis[leave] = enter
	s.rowOf[enter] = leave
	s.xB[leave] = entVal
	if gamma != 0 {
		s.applyRho(gamma)
	} else {
		s.clearRho()
		s.d[lv] = 0
	}
	s.d[enter] = 0
	s.updateBinv(leave, s.w)
	if c := &s.cols[enter]; len(c.idx) == 1 && c.val[0] == 1 {
		if i := c.idx[0]; s.binv[i*s.m+leave] == 1 {
			s.unit[i] = int32(leave)
		}
	}
	s.sinceRefactor++
	if s.sinceRefactor >= refactorEvery {
		if !s.refactor() {
			return false
		}
		s.recomputeReducedCosts()
	}
	return true
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
		// At a finite lower bound the variable may only increase; at a
		// finite upper bound only decrease; free nonbasics may do either.
		canUp := !s.atUpper[j] || math.IsInf(s.hi[j], 1)
		canDown := s.atUpper[j] || math.IsInf(s.lo[j], -1)
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

// gatherPivotRow copies row leave of B⁻¹, before the basis change, into
// s.pivRow and lists its nonzero columns, ascending, in s.nzRow. A unit
// column's entry is read from its flag: 1, or +0 for the ±0 it holds.
// Only the Farkas ray of a re-solve reads pivRow's zeros, and only through
// sums that begin at +0, where a zero's sign is lost.
func (s *solver) gatherPivotRow(leave int) {
	m := s.m
	nz := s.nzRow[:0]
	for i := 0; i < m; i++ {
		var v float64
		if k := s.unit[i]; k < 0 {
			v = s.binv[i*m+leave]
		} else if int(k) == leave {
			v = 1
		}
		s.pivRow[i] = v
		if v != 0 {
			nz = append(nz, i)
		}
	}
	s.nzRow = nz
}

// accumulateRho sets s.rho[j] = ρ_j = s.pivRow·A_j for every variable j
// with a nonzero term, listed in s.rhoVars. It accumulates ρ row by row
// over the rows of A where the pivot row is nonzero: a row's structural
// entries, its unit slack and its artificial, if any. A column lists its
// rows in ascending order and the walk visits rows in ascending order, so
// each ρ_j sums the nonzero terms of the column-wise dot product in its
// order.
func (s *solver) accumulateRho() {
	vars := s.rhoVars[:0]
	add := func(j int, v float64) {
		if !s.rhoSeen[j] {
			s.rhoSeen[j] = true
			vars = append(vars, j)
		}
		s.rho[j] += v
	}
	for _, r := range s.nzRow {
		pr := s.pivRow[r]
		coef := s.rowCoef[r]
		for t, j := range s.rowIdx[r] {
			add(j, pr*coef[t])
		}
		add(s.nStruct+r, pr*1) // the unit slack
		if a := s.artOf[r]; a >= 0 {
			add(a, pr*1) // the artificial, also +1
		}
	}
	s.rhoVars = vars
}

// applyRho applies d_j −= γ·ρ_j to every nonbasic j with ρ_j ≠ 0 and
// clears the accumulators accumulateRho filled.
func (s *solver) applyRho(gamma float64) {
	for _, j := range s.rhoVars {
		rho := s.rho[j]
		s.rho[j], s.rhoSeen[j] = 0, false
		if s.rowOf[j] < 0 && rho != 0 {
			s.d[j] -= gamma * rho
		}
	}
	s.rhoVars = s.rhoVars[:0]
}

// clearRho clears the accumulators accumulateRho filled.
func (s *solver) clearRho() {
	for _, j := range s.rhoVars {
		s.rho[j], s.rhoSeen[j] = 0, false
	}
	s.rhoVars = s.rhoVars[:0]
}

// updateBinv applies the elementary pivot transform for the basis change in
// row leave, where w = B⁻¹·A_enter and s.pivRow holds the old row leave.
// Only the columns where that row is nonzero change, and in each only the
// rows where w is nonzero: (B⁻¹)ᵣᵢ −= w_r·l with l = (B⁻¹)_leave,i·(1/w_leave).
// Each column it rewrites loses its unit flag.
func (s *solver) updateBinv(leave int, w []float64) {
	m := s.m
	inv := 1 / w[leave]
	nzW := s.nzW[:0]
	for r, f := range w {
		if f != 0 && r != leave {
			nzW = append(nzW, r)
		}
	}
	s.nzW = nzW
	for _, i := range s.nzRow {
		s.unit[i] = -1
		bc := s.binv[i*m : i*m+m]
		l := s.pivRow[i] * inv
		bc[leave] = l
		if l == 0 {
			continue
		}
		for _, r := range nzW {
			bc[r] -= w[r] * l
		}
	}
}

// refactor recomputes B⁻¹ from scratch by Gauss-Jordan and recomputes basic
// values; returns false if the basis is numerically singular.
func (s *solver) refactor() bool {
	s.refactors++
	m := s.m
	// Assemble [B | I] in pooled scratch rows.
	gj := gjPool.Get().(*gjScratch)
	defer gjPool.Put(gj)
	a := gj.rows(m)
	for i := range a {
		clear(a[i])
		a[i][m+i] = 1
	}
	for r, v := range s.basis {
		c := &s.cols[v]
		for t, ri := range c.idx {
			a[ri][r] = c.val[t]
		}
	}
	// Gauss-Jordan with partial pivoting, eliminating over the nonzero
	// columns of the scaled pivot row only.
	nz := s.gjNZ[:0]
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
		prow := a[colI]
		inv := 1 / prow[colI]
		nz = nz[:0]
		for cc := colI; cc < 2*m; cc++ {
			if prow[cc] != 0 {
				prow[cc] *= inv
				nz = append(nz, cc)
			}
		}
		for r := 0; r < m; r++ {
			if r == colI {
				continue
			}
			row := a[r]
			f := row[colI]
			if f == 0 {
				continue
			}
			for _, cc := range nz {
				row[cc] -= f * prow[cc]
			}
		}
	}
	s.gjNZ = nz
	// Recompute the basic values as x_B = B⁻¹(b − N·x_N) from the cached
	// right-hand side b, reading B⁻¹ from the row-major result before it is
	// transposed into s.binv. The transpose flags the unit columns: a
	// column's first nonzero, if it is 1, sets its row, and any further
	// nonzero clears it.
	const noEntry = -2
	unit := s.unit
	for i := range unit {
		unit[i] = noEntry
	}
	rhs := s.nonbasicRHS()
	for r := 0; r < m; r++ {
		row := a[r][m:]
		var v float64
		for i, b := range row {
			v += b * rhs[i]
			s.binv[i*m+r] = b
			if b != 0 {
				if b == 1 && unit[i] == noEntry {
					unit[i] = int32(r)
				} else {
					unit[i] = -1
				}
			}
		}
		s.xB[r] = v
	}
	for i, k := range unit {
		if k == noEntry {
			unit[i] = -1
		}
	}
	s.sinceRefactor = 0
	return true
}

// gjScratch holds refactor's [B | I]: m rows of 2m floats in one buffer.
// It is dead once B⁻¹ is copied into binv, so solvers share it through
// gjPool for the length of a refactor rather than each keeping 2m² floats
// for life.
type gjScratch struct {
	buf []float64
	row [][]float64
}

var gjPool = sync.Pool{New: func() interface{} { return new(gjScratch) }}

// rows returns m rows of 2m floats. Their order is whatever the last
// refactor of the same size left; refactor clears every row first.
func (g *gjScratch) rows(m int) [][]float64 {
	if len(g.row) == m {
		return g.row
	}
	if cap(g.buf) < 2*m*m {
		g.buf = make([]float64, 2*m*m)
	}
	g.row = g.row[:0]
	for i := 0; i < m; i++ {
		g.row = append(g.row, g.buf[2*m*i:2*m*(i+1):2*m*(i+1)])
	}
	return g.row
}

// nonbasicRHS returns b − N·x_N in s.rhs.
func (s *solver) nonbasicRHS() []float64 {
	rhs := s.rhs
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
	return rhs
}
