// Package fit provides the small numerical toolkit shared by the optimizer
// and the experiment harness: dense linear solves, polynomial least-squares
// fits (used for the Figure-2 delay-ratio envelopes), summary statistics and
// histograms (used for the Figure-5/9 reports).
package fit

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"strings"
)

// ErrSingular is returned when a linear system has no unique solution.
var ErrSingular = errors.New("fit: singular system")

// SolveLinear solves A·x = b by Gaussian elimination with partial pivoting.
// A is row-major, n×n, and is not modified.
func SolveLinear(a [][]float64, b []float64) ([]float64, error) {
	n := len(a)
	if n == 0 || len(b) != n {
		return nil, fmt.Errorf("fit: bad system dimensions %dx%d", n, len(b))
	}
	// Work on copies.
	m := make([][]float64, n)
	for i := range m {
		if len(a[i]) != n {
			return nil, fmt.Errorf("fit: row %d has %d entries, want %d", i, len(a[i]), n)
		}
		m[i] = append([]float64(nil), a[i]...)
	}
	x := append([]float64(nil), b...)

	for col := 0; col < n; col++ {
		// Partial pivot.
		piv := col
		for r := col + 1; r < n; r++ {
			if math.Abs(m[r][col]) > math.Abs(m[piv][col]) {
				piv = r
			}
		}
		if math.Abs(m[piv][col]) < 1e-13 {
			return nil, ErrSingular
		}
		m[col], m[piv] = m[piv], m[col]
		x[col], x[piv] = x[piv], x[col]
		inv := 1 / m[col][col]
		for r := col + 1; r < n; r++ {
			f := m[r][col] * inv
			if f == 0 {
				continue
			}
			for c := col; c < n; c++ {
				m[r][c] -= f * m[col][c]
			}
			x[r] -= f * x[col]
		}
	}
	// Back substitution.
	for col := n - 1; col >= 0; col-- {
		s := x[col]
		for c := col + 1; c < n; c++ {
			s -= m[col][c] * x[c]
		}
		x[col] = s / m[col][col]
	}
	return x, nil
}

// Poly is a polynomial c[0] + c[1]·x + c[2]·x² + … .
type Poly []float64

// Eval evaluates the polynomial at x by Horner's rule.
func (p Poly) Eval(x float64) float64 {
	var v float64
	for i := len(p) - 1; i >= 0; i-- {
		v = v*x + p[i]
	}
	return v
}

// PolyFit fits a least-squares polynomial of the given degree to (x, y) with
// optional ridge regularization lambda ≥ 0 on the non-constant coefficients.
// It solves the normal equations directly, which is adequate for the low
// degrees (≤4) used in this project.
func PolyFit(x, y []float64, degree int, lambda float64) (Poly, error) {
	if len(x) != len(y) {
		return nil, fmt.Errorf("fit: len(x)=%d != len(y)=%d", len(x), len(y))
	}
	if degree < 0 {
		return nil, fmt.Errorf("fit: negative degree %d", degree)
	}
	n := degree + 1
	if len(x) < n {
		return nil, fmt.Errorf("fit: %d samples cannot determine degree-%d polynomial", len(x), degree)
	}
	// Normal equations: (VᵀV + λI)c = Vᵀy with Vandermonde V.
	ata := make([][]float64, n)
	for i := range ata {
		ata[i] = make([]float64, n)
	}
	aty := make([]float64, n)
	pow := make([]float64, n)
	for k, xv := range x {
		pow[0] = 1
		for i := 1; i < n; i++ {
			pow[i] = pow[i-1] * xv
		}
		for i := 0; i < n; i++ {
			aty[i] += pow[i] * y[k]
			for j := 0; j < n; j++ {
				ata[i][j] += pow[i] * pow[j]
			}
		}
	}
	for i := 1; i < n; i++ {
		ata[i][i] += lambda
	}
	c, err := SolveLinear(ata, aty)
	if err != nil {
		return nil, err
	}
	return Poly(c), nil
}

// EnvelopeFit fits upper and lower polynomial envelopes of the scatter
// (x, y): it first fits a central polynomial, then shifts it by the extreme
// positive and negative residuals (with a small guard band). This mirrors the
// red min/max curves of Figure 2 in the paper, which bound the achievable
// stage-delay ratios.
func EnvelopeFit(x, y []float64, degree int, guard float64) (upper, lower Poly, err error) {
	center, err := PolyFit(x, y, degree, 1e-9)
	if err != nil {
		return nil, nil, err
	}
	var hi, lo float64
	for i := range x {
		r := y[i] - center.Eval(x[i])
		if r > hi {
			hi = r
		}
		if r < lo {
			lo = r
		}
	}
	upper = append(Poly(nil), center...)
	lower = append(Poly(nil), center...)
	upper[0] += hi + guard
	lower[0] += lo - guard
	return upper, lower, nil
}

// Summary holds descriptive statistics of a sample.
type Summary struct {
	N              int
	Mean, Std      float64
	Min, Max       float64
	P25, P50, P75  float64
	P05, P95       float64
	AbsMean        float64 // mean of |x|
	AbsMax, AbsMin float64 // extremes of |x|
}

// Summarize computes descriptive statistics; it returns a zero Summary for an
// empty sample.
func Summarize(v []float64) Summary {
	if len(v) == 0 {
		return Summary{}
	}
	s := Summary{N: len(v), Min: v[0], Max: v[0], AbsMin: math.Abs(v[0])}
	var sum, sumAbs float64
	for _, x := range v {
		sum += x
		ax := math.Abs(x)
		sumAbs += ax
		if x < s.Min {
			s.Min = x
		}
		if x > s.Max {
			s.Max = x
		}
		if ax > s.AbsMax {
			s.AbsMax = ax
		}
		if ax < s.AbsMin {
			s.AbsMin = ax
		}
	}
	s.Mean = sum / float64(len(v))
	s.AbsMean = sumAbs / float64(len(v))
	var ss float64
	for _, x := range v {
		d := x - s.Mean
		ss += d * d
	}
	if len(v) > 1 {
		s.Std = math.Sqrt(ss / float64(len(v)-1))
	}
	sorted := append([]float64(nil), v...)
	sort.Float64s(sorted)
	s.P05 = Percentile(sorted, 5)
	s.P25 = Percentile(sorted, 25)
	s.P50 = Percentile(sorted, 50)
	s.P75 = Percentile(sorted, 75)
	s.P95 = Percentile(sorted, 95)
	return s
}

// Percentile returns the p-th percentile (0–100) of an ascending-sorted
// sample using linear interpolation between closest ranks.
func Percentile(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	if n == 1 {
		return sorted[0]
	}
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[n-1]
	}
	rank := p / 100 * float64(n-1)
	lo := int(math.Floor(rank))
	frac := rank - float64(lo)
	if lo+1 >= n {
		return sorted[n-1]
	}
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}

// Histogram is a fixed-width binned histogram over [Lo, Hi).
type Histogram struct {
	Lo, Hi float64
	Counts []int
	Under  int // samples below Lo
	Over   int // samples at or above Hi
}

// NewHistogram builds a histogram with the given bin count over [lo, hi).
func NewHistogram(lo, hi float64, bins int) *Histogram {
	if bins <= 0 {
		panic("fit: histogram needs at least one bin")
	}
	if hi <= lo {
		panic("fit: histogram range must be increasing")
	}
	return &Histogram{Lo: lo, Hi: hi, Counts: make([]int, bins)}
}

// Add inserts a sample.
func (h *Histogram) Add(x float64) {
	if x < h.Lo {
		h.Under++
		return
	}
	if x >= h.Hi {
		h.Over++
		return
	}
	i := int((x - h.Lo) / (h.Hi - h.Lo) * float64(len(h.Counts)))
	if i >= len(h.Counts) { // guard against floating rounding at the edge
		i = len(h.Counts) - 1
	}
	h.Counts[i]++
}

// AddAll inserts every sample of v.
func (h *Histogram) AddAll(v []float64) {
	for _, x := range v {
		h.Add(x)
	}
}

// Total returns the number of in-range samples.
func (h *Histogram) Total() int {
	t := 0
	for _, c := range h.Counts {
		t += c
	}
	return t
}

// BinCenter returns the center of bin i.
func (h *Histogram) BinCenter(i int) float64 {
	w := (h.Hi - h.Lo) / float64(len(h.Counts))
	return h.Lo + (float64(i)+0.5)*w
}

// Render draws the histogram as ASCII rows "center | ####  count", with bars
// scaled to width. It is used by the experiment harness to emit the
// Figure-5(b) and Figure-9 style distributions into text reports.
func (h *Histogram) Render(width int) string {
	if width <= 0 {
		width = 50
	}
	max := 1
	for _, c := range h.Counts {
		if c > max {
			max = c
		}
	}
	var b strings.Builder
	for i, c := range h.Counts {
		bar := strings.Repeat("#", c*width/max)
		fmt.Fprintf(&b, "%10.3f | %-*s %d\n", h.BinCenter(i), width, bar, c)
	}
	if h.Under > 0 || h.Over > 0 {
		fmt.Fprintf(&b, "   (under-range: %d, over-range: %d)\n", h.Under, h.Over)
	}
	return b.String()
}

// Pearson returns the Pearson correlation coefficient of two equal-length
// samples, or NaN if either sample has no variance.
func Pearson(x, y []float64) float64 {
	if len(x) != len(y) || len(x) == 0 {
		return math.NaN()
	}
	var mx, my float64
	for i := range x {
		mx += x[i]
		my += y[i]
	}
	mx /= float64(len(x))
	my /= float64(len(y))
	var sxy, sxx, syy float64
	for i := range x {
		dx, dy := x[i]-mx, y[i]-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return math.NaN()
	}
	return sxy / math.Sqrt(sxx*syy)
}

// RMSE returns the root-mean-square error between prediction and truth.
func RMSE(pred, truth []float64) float64 {
	if len(pred) != len(truth) || len(pred) == 0 {
		return math.NaN()
	}
	var ss float64
	for i := range pred {
		d := pred[i] - truth[i]
		ss += d * d
	}
	return math.Sqrt(ss / float64(len(pred)))
}
