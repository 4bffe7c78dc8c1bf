package lp

import (
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"math/rand"
	"strings"
	"testing"

	"skewvar/internal/resilience"
)

// lpSpec is an LP as the builder calls that make it, so the same LP can be
// built through AddConstraint and through refAddConstraint, which keeps the
// explicit zero entries AddConstraint drops.
type lpSpec struct {
	vars []varSpec
	rows []rowSpec
}

type varSpec struct{ lo, hi, cost float64 }

type rowSpec struct {
	sense Sense
	rhs   float64
	idx   []int
	coef  []float64
}

// build makes the Problem, its rows built by AddConstraint or, with
// keepZeros, by refAddConstraint.
func (sp *lpSpec) build(keepZeros bool) *Problem {
	p := NewProblem()
	for _, v := range sp.vars {
		p.AddVar(v.lo, v.hi, v.cost)
	}
	for _, r := range sp.rows {
		if keepZeros {
			refAddConstraint(p, r.sense, r.rhs, r.idx, r.coef)
		} else {
			p.AddConstraint(r.sense, r.rhs, r.idx, r.coef)
		}
	}
	return p
}

// solveDiff describes the first difference between two solves' results,
// comparing every float by its bits, or returns "" if there is none.
func solveDiff(got *Solution, gotErr error, want *Solution, wantErr error) string {
	if (gotErr == nil) != (wantErr == nil) || errors.Is(gotErr, resilience.ErrSolver) != errors.Is(wantErr, resilience.ErrSolver) {
		return fmt.Sprintf("error %v, reference %v", gotErr, wantErr)
	}
	if (got == nil) != (want == nil) {
		return fmt.Sprintf("solution %v, reference %v", got, want)
	}
	if got == nil {
		return ""
	}
	if got.Status != want.Status || got.Iterations != want.Iterations || got.Refactors != want.Refactors {
		return fmt.Sprintf("status/iterations/refactors %v/%d/%d, reference %v/%d/%d",
			got.Status, got.Iterations, got.Refactors, want.Status, want.Iterations, want.Refactors)
	}
	if math.Float64bits(got.Obj) != math.Float64bits(want.Obj) {
		return fmt.Sprintf("objective %v, reference %v", got.Obj, want.Obj)
	}
	if len(got.X) != len(want.X) {
		return fmt.Sprintf("%d values, reference %d", len(got.X), len(want.X))
	}
	for j := range got.X {
		if math.Float64bits(got.X[j]) != math.Float64bits(want.X[j]) {
			return fmt.Sprintf("x[%d] = %v, reference %v", j, got.X[j], want.X[j])
		}
	}
	return ""
}

// checkUnitFlags fails t unless every column of the kept solver's B⁻¹
// that is flagged as a unit column e_k is exactly e_k: 1 at row k and ±0
// elsewhere. A problem that keeps no solver passes.
func checkUnitFlags(t testing.TB, p *Problem) {
	t.Helper()
	s := p.s
	if s == nil {
		return
	}
	if len(s.unit) != s.m {
		t.Fatalf("%d unit flags for %d columns of B⁻¹", len(s.unit), s.m)
	}
	for i, k := range s.unit {
		if k < 0 {
			continue
		}
		for r, b := range s.binv[i*s.m : (i+1)*s.m] {
			if r == int(k) && b != 1 || r != int(k) && b != 0 {
				t.Fatalf("column %d of B⁻¹ is flagged e_%d, but its row %d holds %v", i, k, r, b)
			}
		}
	}
}

// solve runs Solve and refSolve on p, which has not been solved before,
// and fails t unless they agree bit for bit and the kept solver's unit
// flags hold. Every LP this package's tests solve cold goes through it.
func solve(t testing.TB, p *Problem) (*Solution, error) {
	t.Helper()
	if p.s != nil {
		t.Fatal("solve compares cold solves, but the problem keeps a solver")
	}
	sol, err := p.Solve()
	checkUnitFlags(t, p)
	ref, refErr := refSolve(p, p.maxIters)
	if d := solveDiff(sol, err, ref, refErr); d != "" {
		t.Fatalf("Solve differs from the reference solver: %s", d)
	}
	return sol, err
}

// resolve re-solves p, which keeps the solver of an earlier solve, and
// fails t unless the kept solver's unit flags hold and the answer agrees
// with the reference solving the edited p cold: the same status and error
// class, an objective within 1e-6 relative, and, for a warm answer, a
// certificate that still holds at the kept basis. It returns the answer.
func resolve(t testing.TB, p *Problem) *Solution {
	t.Helper()
	if p.s == nil {
		t.Fatal("resolve needs a problem that keeps a solver")
	}
	sol, err := p.Solve()
	checkUnitFlags(t, p)
	ref, refErr := refSolve(p, p.maxIters)
	if (err == nil) != (refErr == nil) || errors.Is(err, resilience.ErrSolver) != errors.Is(refErr, resilience.ErrSolver) {
		t.Fatalf("re-solve error %v, reference %v", err, refErr)
	}
	if (sol == nil) != (ref == nil) {
		t.Fatalf("re-solve solution %v, reference %v", sol, ref)
	}
	if sol == nil {
		return nil
	}
	if sol.Status != ref.Status {
		t.Fatalf("re-solve status %v (warm %v), reference %v", sol.Status, sol.Warm, ref.Status)
	}
	if sol.Status != Optimal {
		return sol
	}
	if diff := math.Abs(sol.Obj - ref.Obj); diff > 1e-6*math.Max(1, math.Abs(ref.Obj)) {
		t.Fatalf("re-solve objective %v (warm %v), reference %v", sol.Obj, sol.Warm, ref.Obj)
	}
	if sol.Warm {
		if cerr := p.s.certifyOptimal(p, sol); cerr != nil {
			t.Fatalf("warm answer's certificate fails at the kept basis: %v", cerr)
		}
	}
	return sol
}

// editLP applies k seeded edits to p: right-hand sides moved, bounds
// tightened, loosened (one side sometimes to infinity), fixed or widened
// to include zero, and rows added. An added row passes through x, the last
// optimal point, when there is one. Most edited draws stay feasible; some
// become infeasible or unbounded.
func editLP(rng *rand.Rand, p *Problem, x []float64, k int) {
	n := p.NumVars()
	for ; k > 0; k-- {
		switch rng.Intn(4) {
		case 0:
			if m := p.NumRows(); m > 0 {
				r := rng.Intn(m)
				p.SetRHS(r, p.rowRHS[r]+rng.NormFloat64()/2)
			}
		case 1:
			j := rng.Intn(n)
			lo, hi := p.lo[j], p.hi[j]
			mid := 0.0
			switch {
			case !math.IsInf(lo, -1) && !math.IsInf(hi, 1):
				mid = lo + (hi-lo)*rng.Float64()
			case !math.IsInf(lo, -1):
				mid = lo + rng.Float64()
			case !math.IsInf(hi, 1):
				mid = hi - rng.Float64()
			}
			switch rng.Intn(4) {
			case 0: // tighten
				p.SetBounds(j, math.Max(lo, mid-rng.Float64()), math.Min(hi, mid+rng.Float64()))
			case 1: // loosen
				p.SetBounds(j, lo-rng.Float64(), hi+rng.Float64())
			case 2: // loosen one side to infinity
				if rng.Intn(2) == 0 {
					p.SetBounds(j, math.Inf(-1), hi)
				} else {
					p.SetBounds(j, lo, Inf)
				}
			default: // fix
				p.SetBounds(j, mid, mid)
			}
		case 2:
			var idx []int
			var coef []float64
			var lhs float64
			for e := 1 + rng.Intn(4); e > 0; e-- {
				j := rng.Intn(n)
				idx = append(idx, j)
				coef = append(coef, rng.NormFloat64())
				if x != nil {
					lhs += coef[len(coef)-1] * x[j]
				}
			}
			switch rng.Intn(3) {
			case 0:
				p.AddConstraint(LE, lhs+rng.Float64()-0.2, idx, coef)
			case 1:
				p.AddConstraint(GE, lhs-rng.Float64()+0.2, idx, coef)
			default:
				p.AddConstraint(EQ, lhs+rng.NormFloat64()/4, idx, coef)
			}
		default: // widen to include zero
			j := rng.Intn(n)
			p.SetBounds(j, math.Min(p.lo[j], 0), math.Max(p.hi[j], 0))
		}
	}
}

// mixedLP draws an LP of n variables and about m rows with every kind of
// variable (free, boxed, fixed, (−∞, hi], [lo, ∞), x ≥ 0) and every row
// sense. The LE, GE and EQ rows pass through a drawn point x0, which the
// slack basis does not satisfy, so phase 1 runs. Rows repeat indices, some
// with coefficients that cancel exactly, and carry explicit zeros. Each
// variable without a finite upper (lower) bound gets a row bounding it from
// above (below), so most draws are optimal; a quarter of the draws repeat
// one row's left-hand side with a contradicting bound, which leaves no
// feasible point unless the row's coefficients cancel.
func mixedLP(rng *rand.Rand, n, m int) *lpSpec {
	sp := &lpSpec{}
	x0 := make([]float64, n)
	for j := 0; j < n; j++ {
		x0[j] = rng.Float64()*4 - 2
		lo, hi := math.Inf(-1), Inf
		switch rng.Intn(6) {
		case 1:
			lo, hi = x0[j]-rng.Float64()*3, x0[j]+rng.Float64()*3
		case 2:
			lo, hi = x0[j], x0[j]
		case 3:
			hi = x0[j] + rng.Float64()*2
		case 4:
			lo = x0[j] - rng.Float64()*2
		case 5:
			x0[j] = rng.Float64() * 2
			lo = 0
		}
		sp.vars = append(sp.vars, varSpec{lo, hi, rng.NormFloat64()})
		if math.IsInf(hi, 1) {
			sp.rows = append(sp.rows, rowSpec{LE, x0[j] + 1 + rng.Float64()*4, []int{j}, []float64{1}})
		}
		if math.IsInf(lo, -1) {
			sp.rows = append(sp.rows, rowSpec{GE, x0[j] - 1 - rng.Float64()*4, []int{j}, []float64{1}})
		}
	}
	for r := 0; r < m; r++ {
		var row rowSpec
		var lhs float64
		add := func(j int, c float64) {
			row.idx = append(row.idx, j)
			row.coef = append(row.coef, c)
			lhs += c * x0[j]
		}
		for k := 2 + rng.Intn(6); k > 0; k-- {
			j := rng.Intn(n)
			c := rng.NormFloat64()
			add(j, c)
			switch u := rng.Float64(); {
			case u < 0.15:
				add(j, -c) // cancels to an exact zero
			case u < 0.25:
				add(j, rng.NormFloat64())
			case u < 0.3:
				add(rng.Intn(n), 0)
			}
		}
		switch rng.Intn(3) {
		case 0:
			row.sense, row.rhs = LE, lhs+rng.Float64()
		case 1:
			row.sense, row.rhs = GE, lhs-rng.Float64()
		default:
			row.sense, row.rhs = EQ, lhs
		}
		sp.rows = append(sp.rows, row)
	}
	if m > 0 && rng.Intn(4) == 0 {
		// Contradict a row: the same left-hand side held 1 past its bound.
		row := sp.rows[len(sp.rows)-1-rng.Intn(m)]
		switch row.sense {
		case LE:
			row.sense, row.rhs = GE, row.rhs+1
		case GE:
			row.sense, row.rhs = LE, row.rhs-1
		default:
			row.rhs++
		}
		sp.rows = append(sp.rows, row)
	}
	return sp
}

// TestSolveMatchesReference holds Solve to the dense reference solver bit
// for bit on the mixed family, and on each LP's zero twin: the reference
// solving the same rows with their explicit zero entries kept. One large
// draw crosses refactorEvery several times.
func TestSolveMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	type size struct{ draws, n, m int }
	sizes := []size{{60, 12, 10}, {30, 60, 45}, {10, 200, 160}, {3, 320, 400}}
	if testing.Short() {
		sizes = []size{{30, 12, 10}, {4, 60, 45}, {1, 120, 300}}
	}
	statuses := map[Status]int{}
	var pivots, refactors int
	for _, sz := range sizes {
		for d := 0; d < sz.draws; d++ {
			sp := mixedLP(rng, sz.n, sz.m)
			name := fmt.Sprintf("%dx%d draw %d", sz.m, sz.n, d)
			p := sp.build(false)
			sol, err := solve(t, p)
			twin, twinErr := refSolve(sp.build(true), 0)
			if diff := solveDiff(sol, err, twin, twinErr); diff != "" {
				t.Fatalf("%s: Solve differs from the reference on the zero twin: %s", name, diff)
			}
			statuses[sol.Status]++
			pivots += sol.Iterations
			refactors += sol.Refactors
		}
	}
	t.Logf("statuses %v, %d iterations, %d refactors", statuses, pivots, refactors)
	if statuses[Optimal] == 0 || statuses[Infeasible] == 0 {
		t.Errorf("the family needs optimal and infeasible draws: %v", statuses)
	}
	if refactors == 0 {
		t.Error("no draw crossed refactorEvery")
	}
}

// hashSolution adds a solve's answer to h: its status, warm flag,
// iteration and refactorization counts, and the bits of its objective and
// of each X. A nil answer adds one marker byte.
func hashSolution(h hash.Hash64, sol *Solution) {
	if sol == nil {
		h.Write([]byte{0xff})
		return
	}
	var b [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	warm := uint64(0)
	if sol.Warm {
		warm = 1
	}
	put(uint64(sol.Status))
	put(warm)
	put(uint64(sol.Iterations))
	put(uint64(sol.Refactors))
	put(math.Float64bits(sol.Obj))
	put(uint64(len(sol.X)))
	for _, x := range sol.X {
		put(math.Float64bits(x))
	}
}

// Digests (hashSolution, FNV-1a) of every solve and re-solve
// TestResolveMatchesReference runs, over its full family and over the
// family -short trims. The reference check holds a re-solve to a cold
// solve only by status and objective; these hold every bit of it.
const (
	wantResolveDigest      = 0x1043673268a5d8ea
	wantResolveDigestShort = 0xce1a9c227b401caf
)

// TestResolveMatchesReference re-solves each mixed-family LP after rounds
// of seeded edits (right-hand sides, bounds tightened, loosened and fixed,
// rows added) and holds every re-solve to the reference solving the edited
// LP cold (see resolve). Most re-solves must finish warm, and the warm
// ones must take fewer pivots in total than cold solves of the same LPs.
// Every answer, cold and warm, must hash to the committed digest.
func TestResolveMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	type size struct{ draws, n, m int }
	sizes := []size{{60, 12, 10}, {30, 60, 45}, {6, 200, 160}}
	want := uint64(wantResolveDigest)
	if testing.Short() {
		sizes = []size{{30, 12, 10}, {6, 60, 45}}
		want = wantResolveDigestShort
	}
	h := fnv.New64a()
	statuses := map[Status]int{}
	var resolves, warm, warmPivots, coldPivots int
	for _, sz := range sizes {
		for d := 0; d < sz.draws; d++ {
			p := mixedLP(rng, sz.n, sz.m).build(false)
			sol, err := solve(t, p)
			hashSolution(h, sol)
			if err != nil {
				continue
			}
			for round := 0; round < 4 && p.s != nil; round++ {
				editLP(rng, p, sol.X, 1+rng.Intn(4))
				sol = resolve(t, p)
				hashSolution(h, sol)
				resolves++
				if sol == nil {
					continue
				}
				statuses[sol.Status]++
				if sol.Warm {
					warm++
					warmPivots += sol.Iterations
					ref, _ := refSolve(p, 0)
					coldPivots += ref.Iterations
				}
			}
		}
	}
	t.Logf("%d re-solves (%v), %d warm: %d pivots, %d cold", resolves, statuses, warm, warmPivots, coldPivots)
	if statuses[Optimal] == 0 || statuses[Infeasible] == 0 {
		t.Errorf("the edits need optimal and infeasible re-solves: %v", statuses)
	}
	if warm < resolves/2 {
		t.Errorf("only %d of %d re-solves finished warm", warm, resolves)
	}
	if warmPivots >= coldPivots {
		t.Errorf("warm re-solves took %d pivots, cold solves of the same LPs %d", warmPivots, coldPivots)
	}
	if got := h.Sum64(); got != want {
		t.Errorf("solve digest %#x, want %#x", got, want)
	}
}

// decodeLP reads a small LP from fuzz bytes: at most 12 variables and 12
// rows, each variable's bounds −∞ or finite below and finite or +∞ above,
// every row sense, and row indices that repeat. Coefficients stay within
// ±1e3 and bounds, costs and right-hand sides within ±32, so every value a
// solve computes stays finite. Missing bytes read as zero.
func decodeLP(data []byte) (sp *lpSpec, rest []byte) {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	small := func() float64 { return float64(int8(next())) / 4 }
	sp = &lpSpec{}
	n := 1 + int(next()%12)
	m := int(next() % 13)
	for j := 0; j < n; j++ {
		k := next() % 8 // 0 free, 1 lower bound only, 2 upper only, else boxed
		lo, hi := math.Inf(-1), Inf
		if k != 0 && k != 2 {
			lo = small()
		}
		if k >= 2 {
			hi = small()
		}
		if lo > hi {
			lo, hi = hi, lo
		}
		sp.vars = append(sp.vars, varSpec{lo, hi, small()})
	}
	for r := 0; r < m; r++ {
		k := next()
		row := rowSpec{sense: Sense(k % 3), rhs: small()}
		for e := int(k/3) % 6; e > 0; e-- {
			row.idx = append(row.idx, int(next())%n)
			c := int16(uint16(next())<<8 | uint16(next()))
			row.coef = append(row.coef, float64(c)/32.768)
		}
		sp.rows = append(sp.rows, row)
	}
	return sp, data
}

// FuzzSolveMatchesReference holds Solve to the reference solver, and to
// the reference on the zero twin, bit for bit on small LPs decoded from the
// fuzz input. The seeds cover optimal, infeasible and unbounded LPs, and a
// row whose duplicate entries cancel.
func FuzzSolveMatchesReference(f *testing.F) {
	for _, seed := range []string{
		"",
		// Two boxed variables; one LE row lists x0 twice, ±31.25.
		"0101 030010fc 030010fc 090c 000400 00fc00 010400",
		"bfccf43cb56209385c6601ddb3fc1472b881d99c8428183c3fae7166ecbd7cc3ba26c55e2f5169c92f2f4691fae28d00f74ecaf24ca41c0d",
		"577477c4b2bb8f6026f0560c8be735092e6fd1322668df4d",
		"101f90d5056c85a2cf6b3d25c5346722acd24044cdcc7384d5d27c18596c97cd0046e8",
		"627df723e3ce1709e8c9cee9dcb93230972bfcf38bbc7cb4",
		"566f9d4ed066c061a702030b3d6d552ec6e6874c1e58f6a6327563ee7d09c5f72a",
		"6b155f2c30531c00dd92d4e7d5b2c494d150ad051371aed6b0eae1a7723c552f2a15b56f9129d9e3115d909e05ac788f4fdee8cf81de",
		"e9d839f484786cbf0856421604d9b708c4eca90ee168b174e0e4cb8a3c8ad6b20bea6478af97e17a03ab870a5b1da773feaca64d0a",
		"87f322600ef6c56dfd1a0e69fce01ce29ebbb0ed26cb20968b1fe608f8dd5ae781eb6551a36e602ef37555eb287a072b4d7ec1a1e73987a4b387",
		"d043a1a57a9f80e4a79df221c8196421a6de653d73c4f38afc0f55eda2b8ccaf36fe986d4d03baa95e2b531a",
		"56540f35dbdc730b274173dcfceff5bd4a853b038731f4cd73d613fe6cfbd63f191f614e18750dda0aa3c651d49d5b0ca91f",
	} {
		b, err := hex.DecodeString(strings.ReplaceAll(seed, " ", ""))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		sp, rest := decodeLP(data)
		p := sp.build(false)
		sol, err := solve(t, p)
		twin, twinErr := refSolve(sp.build(true), 0)
		if d := solveDiff(sol, err, twin, twinErr); d != "" {
			t.Fatalf("Solve differs from the reference on the zero twin: %s", d)
		}
		// Second stage: re-solve after edits seeded by the rest of the input.
		var seed int64
		for _, b := range rest {
			seed = seed*131 + int64(b)
		}
		rng := rand.New(rand.NewSource(seed))
		for round := 0; round < 3 && p.s != nil; round++ {
			editLP(rng, p, sol.X, 1+rng.Intn(3))
			sol = resolve(t, p)
		}
	})
}
