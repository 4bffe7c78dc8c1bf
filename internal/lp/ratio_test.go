package lp

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"testing"
)

// refDualRatio is the ratio test dualRatio replaced, kept verbatim but for
// its name and its returned flips: it sorts every breakpoint by (t, j)
// before it walks them.
func refDualRatio(s *solver, sigma, excess float64) (enter int, slope float64, flips []int) {
	const pivTol = 1e-9
	var bps []breakpoint
	for _, j := range s.rhoVars {
		a := sigma * s.rho[j]
		if s.bindsDual(j, a, pivTol) {
			bps = append(bps, breakpoint{j, a, math.Max(0, s.d[j]/a)})
		}
	}
	slices.SortFunc(bps, func(x, y breakpoint) int {
		if c := cmp.Compare(x.t, y.t); c != 0 {
			return c
		}
		return cmp.Compare(x.j, y.j)
	})
	slope = math.Abs(excess)
	k := 0
	for ; k < len(bps); k++ {
		j := bps[k].j
		if math.IsInf(s.lo[j], -1) || math.IsInf(s.hi[j], 1) {
			break
		}
		if slope -= math.Abs(bps[k].a) * (s.hi[j] - s.lo[j]); slope <= 0 {
			break
		}
	}
	if k == len(bps) {
		return -1, slope, nil
	}
	bound := math.Inf(1)
	for _, bp := range bps[k:] {
		relax := optTol
		if bp.a < 0 {
			relax = -optTol
		}
		bound = math.Min(bound, (s.d[bp.j]+relax)/bp.a)
	}
	enter, best := -1, 0.0
	for _, bp := range bps[k:] {
		if bp.t <= bound && math.Abs(bp.a) > best {
			enter, best = bp.j, math.Abs(bp.a)
		}
	}
	for _, bp := range bps[:k] {
		flips = append(flips, bp.j)
	}
	return enter, slope, flips
}

// ratioVar is one variable of a ratio-test case: its bounds, rest
// position, reduced cost and pivot-row entry, or basic.
type ratioVar struct {
	lo, hi  float64
	atUpper bool
	d, rho  float64
	basic   bool
}

// ratioSolver builds the solver state dualRatio reads: the variables, with
// rhoVars listing them in the order given.
func ratioSolver(vars []ratioVar, order []int) *solver {
	s := &solver{n: len(vars)}
	for _, v := range vars {
		row := -1
		if v.basic {
			row = 0
		}
		s.lo, s.hi = append(s.lo, v.lo), append(s.hi, v.hi)
		s.atUpper, s.rowOf = append(s.atUpper, v.atUpper), append(s.rowOf, row)
		s.d, s.rho = append(s.d, v.d), append(s.rho, v.rho)
	}
	s.rhoVars = order
	if order == nil {
		for j := range vars {
			s.rhoVars = append(s.rhoVars, j)
		}
	}
	return s
}

// ratioDiff runs dualRatio and the reference on the same state and
// describes the first difference: the entering variable, the slope's bits
// or the flips and their order.
func ratioDiff(s *solver, sigma, excess float64) string {
	wantEnter, wantSlope, wantFlips := refDualRatio(s, sigma, excess)
	enter, slope := s.dualRatio(sigma, excess)
	switch {
	case enter != wantEnter:
		return fmt.Sprintf("enters %d, reference %d", enter, wantEnter)
	case math.Float64bits(slope) != math.Float64bits(wantSlope):
		return fmt.Sprintf("slope %v, reference %v", slope, wantSlope)
	case !slices.Equal(s.flips, wantFlips):
		return fmt.Sprintf("flips %v, reference %v", s.flips, wantFlips)
	}
	return ""
}

// TestDualRatioMatchesSort holds the heap-drawn ratio test to the sorted
// one: the same entering variable, slope bits and flips in the same order.
func TestDualRatioMatchesSort(t *testing.T) {
	inf := math.Inf(1)
	box := func(d, rho float64) ratioVar { return ratioVar{lo: 0, hi: 1, d: d, rho: rho} }
	cases := []struct {
		name          string
		vars          []ratioVar
		order         []int
		sigma, excess float64
		enter, flips  int // the reference's answer, to pin the case's shape
	}{
		{"no breakpoints", []ratioVar{box(1, -1), {lo: 0, hi: 0, d: 1, rho: 2}, {lo: 0, hi: 1, d: 1, rho: 1, basic: true}},
			nil, 1, 2, -1, 0},
		{"no variables", nil, nil, -1, 0.5, -1, 0},
		{"ties in t, listed backwards", []ratioVar{box(1, 1), box(1, 1), box(1, 1), box(2, 1), box(2, 1)},
			[]int{4, 3, 2, 1, 0}, 1, 3.5, 3, 3},
		{"ties in |α̂| at one t", []ratioVar{box(1, 2), box(1, 2), box(0.5, 1), box(2, 2), box(2, 2)},
			[]int{1, 0, 4, 3, 2}, 1, 0.5, 0, 0},
		{"ties in |α̂| across t", []ratioVar{box(1, 1), box(0.5, 1), box(1e-8, 1), box(1e-8, -1)},
			[]int{0, 1, 2, 3}, 1, 0.5, 2, 0},
		{"slope runs out at the first", []ratioVar{box(3, 1), box(1, 4), box(2, 1)}, nil, 1, 2, 1, 0},
		{"slope runs out in the middle", []ratioVar{box(1, 1), box(2, 1), box(3, 2), box(4, 1), box(5, 1)},
			[]int{3, 1, 4, 0, 2}, 1, 3.5, 1, 2},
		{"slope runs out at the last", []ratioVar{box(1, 1), box(2, 1), box(3, 1)}, []int{2, 0, 1}, 1, 2.5, 2, 2},
		{"every boxed breakpoint passed", []ratioVar{box(1, 1), box(2, 1), box(3, 1)}, nil, 1, 5, -1, 0},
		{"a free variable stops the walk", []ratioVar{box(1, 1), {lo: -inf, hi: inf, d: -2, rho: -1}, box(3, 1)},
			nil, 1, 9, 1, 1},
		{"half-bounded at an upper bound", []ratioVar{{lo: -inf, hi: 1, atUpper: true, d: -1, rho: 1}, box(0.5, 1)},
			nil, -1, 9, 0, 0},
		{"boxed at upper bounds, sigma −1", []ratioVar{{lo: -1, hi: 1, atUpper: true, d: -1, rho: 1},
			{lo: -1, hi: 1, atUpper: true, d: -2, rho: 1}, {lo: 0, hi: 2, d: 0.5, rho: -1}}, nil, -1, 3, 0, 1},
		{"a negative ratio counts as zero", []ratioVar{box(-1e-9, 1), box(0, 1), box(1, 3)}, nil, 1, 2.5, 2, 2},
	}
	for _, c := range cases {
		s := ratioSolver(c.vars, c.order)
		if enter, _, flips := refDualRatio(s, c.sigma, c.excess); enter != c.enter || len(flips) != c.flips {
			t.Errorf("%s: the reference enters %d after %d flips, the case expects %d after %d", c.name, enter, len(flips), c.enter, c.flips)
		}
		if d := ratioDiff(s, c.sigma, c.excess); d != "" {
			t.Errorf("%s: %s", c.name, d)
		}
	}
}

// FuzzDualRatioMatchesSort holds the heap-drawn ratio test to the sorted
// one on states decoded from the fuzz input. Reduced costs, entries and
// bounds come from small grids, so ratios and |α̂| tie often.
func FuzzDualRatioMatchesSort(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x05, 0x11, 0x22, 0x33, 0x44, 0x55, 0x66, 0x77, 0x88, 0x99, 0xaa, 0xbb, 0xcc, 0xdd, 0xee})
	f.Add([]byte{0x87, 0x40, 0x01, 0x01, 0x21, 0x01, 0x01, 0x21, 0x01, 0x01, 0x21, 0x42, 0x02, 0x31, 0x03, 0x03, 0x63})
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return int(b)
		}
		head := next()
		sigma := 1.0
		if head&0x80 != 0 {
			sigma = -1
		}
		excess := float64(1+head&0x7f) / 8
		n := next() % 24
		vars := make([]ratioVar, n)
		for j := range vars {
			k, d, a := next(), next(), next()
			v := ratioVar{lo: 0, hi: float64(1 + k>>4&3), d: float64(d&0x3f-16) / 8, rho: float64(a&0x1f-16) / 4}
			switch k & 7 {
			case 0:
				v.lo, v.hi = math.Inf(-1), math.Inf(1)
			case 1:
				v.hi = math.Inf(1)
			case 2:
				v.lo, v.atUpper = math.Inf(-1), true
			case 3:
				v.hi = v.lo
			case 4:
				v.basic = true
			default:
				v.atUpper = k&8 != 0
			}
			vars[j] = v
		}
		order := make([]int, n)
		for j := range order {
			order[j] = j
		}
		for j := n - 1; j > 0; j-- {
			i := next() % (j + 1)
			order[i], order[j] = order[j], order[i]
		}
		if d := ratioDiff(ratioSolver(vars, order), sigma, excess); d != "" {
			t.Fatal(d)
		}
	})
}
