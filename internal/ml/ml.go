// Package ml implements the machine-learning stack behind the paper's
// delta-latency predictors (§4.2): feature scaling, an artificial neural
// network (ANN) trained with backpropagation and Adam, a support-vector
// regressor with an RBF kernel (in exact least-squares-SVM form), a
// degree-2 polynomial ridge regressor, and Hybrid Surrogate Modeling (HSM)
// — a cross-validation-weighted blend of the base models, after Kahng, Lin
// and Nath (DATE 2013). The paper trains one model per corner with MATLAB;
// this package fills that role with stdlib-only Go.
package ml

import (
	"fmt"
	"math"
	"math/rand"

	"skewvar/internal/fit"
)

// Model is a trained single-output regressor.
type Model interface {
	Predict(x []float64) float64
}

// Scaler standardizes features to zero mean and unit variance.
type Scaler struct {
	Mean, Std []float64
}

// FitScaler learns per-feature statistics. Zero-variance features get
// Std = 1 (they pass through centered).
func FitScaler(X [][]float64) *Scaler {
	if len(X) == 0 {
		panic("ml: FitScaler on empty data")
	}
	d := len(X[0])
	s := &Scaler{Mean: make([]float64, d), Std: make([]float64, d)}
	for _, row := range X {
		if len(row) != d {
			panic("ml: ragged feature matrix")
		}
		for j, v := range row {
			s.Mean[j] += v
		}
	}
	for j := range s.Mean {
		s.Mean[j] /= float64(len(X))
	}
	for _, row := range X {
		for j, v := range row {
			dv := v - s.Mean[j]
			s.Std[j] += dv * dv
		}
	}
	for j := range s.Std {
		s.Std[j] = math.Sqrt(s.Std[j] / float64(len(X)))
		if s.Std[j] < 1e-12 {
			s.Std[j] = 1
		}
	}
	return s
}

// Transform standardizes one feature vector (allocating a copy).
func (s *Scaler) Transform(x []float64) []float64 {
	out := make([]float64, len(x))
	for j, v := range x {
		out[j] = (v - s.Mean[j]) / s.Std[j]
	}
	return out
}

// TransformAll standardizes a matrix.
func (s *Scaler) TransformAll(X [][]float64) [][]float64 {
	out := make([][]float64, len(X))
	for i, row := range X {
		out[i] = s.Transform(row)
	}
	return out
}

// yScale holds target normalization shared by the trainers.
type yScale struct{ mean, std float64 }

func fitYScale(y []float64) yScale {
	var m float64
	for _, v := range y {
		m += v
	}
	m /= float64(len(y))
	var ss float64
	for _, v := range y {
		ss += (v - m) * (v - m)
	}
	std := math.Sqrt(ss / float64(len(y)))
	if std < 1e-12 {
		std = 1
	}
	return yScale{mean: m, std: std}
}

func (ys yScale) fwd(v float64) float64  { return (v - ys.mean) / ys.std }
func (ys yScale) back(v float64) float64 { return v*ys.std + ys.mean }

// Ridge is a polynomial ridge regressor on degree-2 expanded features
// (1, x_i, x_i², x_i·x_j): the low-variance component of HSM.
type Ridge struct {
	scaler *Scaler
	ys     yScale
	coef   []float64
	dim    int
}

// expand2 maps x to its degree-2 feature expansion.
func expand2(x []float64) []float64 {
	d := len(x)
	out := make([]float64, 0, 1+d+d*(d+1)/2)
	out = append(out, 1)
	out = append(out, x...)
	for i := 0; i < d; i++ {
		for j := i; j < d; j++ {
			out = append(out, x[i]*x[j])
		}
	}
	return out
}

// TrainRidge fits the regressor with L2 penalty lambda.
func TrainRidge(X [][]float64, y []float64, lambda float64) (*Ridge, error) {
	if len(X) == 0 || len(X) != len(y) {
		return nil, fmt.Errorf("ml: bad ridge training set (%d×%d)", len(X), len(y))
	}
	sc := FitScaler(X)
	ys := fitYScale(y)
	xs := sc.TransformAll(X)
	n := len(xs)
	p := len(expand2(xs[0]))
	ata := make([][]float64, p)
	for i := range ata {
		ata[i] = make([]float64, p)
	}
	aty := make([]float64, p)
	for i := 0; i < n; i++ {
		f := expand2(xs[i])
		t := ys.fwd(y[i])
		for a := 0; a < p; a++ {
			aty[a] += f[a] * t
			row := ata[a]
			for b := a; b < p; b++ {
				row[b] += f[a] * f[b]
			}
		}
	}
	// ata[b][a] would sum the same products (f[b]·f[a] = f[a]·f[b]) in the
	// same order as ata[a][b], so the upper triangle is mirrored.
	for a := 0; a < p; a++ {
		for b := a + 1; b < p; b++ {
			ata[b][a] = ata[a][b]
		}
	}
	for a := 1; a < p; a++ { // do not penalize the intercept
		ata[a][a] += lambda
	}
	coef, err := fit.SolveLinear(ata, aty)
	if err != nil {
		return nil, fmt.Errorf("ml: ridge solve: %w", err)
	}
	return &Ridge{scaler: sc, ys: ys, coef: coef, dim: len(X[0])}, nil
}

// ridgeStackDim is the widest input whose scaled copy Predict keeps on the
// stack; the delta-latency view is 8 wide.
const ridgeStackDim = 16

// Predict implements Model. It takes the dot product of the coefficients
// with expand2 of the scaled input in place: the same terms, multiplied and
// summed in expand2's order, so the result is bit-identical without
// materializing either vector.
func (r *Ridge) Predict(x []float64) float64 {
	var buf [ridgeStackDim]float64
	xs := buf[:0]
	if len(x) > len(buf) {
		xs = make([]float64, 0, len(x))
	}
	for j, v := range x {
		xs = append(xs, (v-r.scaler.Mean[j])/r.scaler.Std[j])
	}
	c := r.coef
	var v float64
	v += c[0] * 1 // expand2's leading 1
	i := 1
	for _, xj := range xs {
		v += c[i] * xj
		i++
	}
	for a := range xs {
		for b := a; b < len(xs); b++ {
			v += c[i] * float64(xs[a]*xs[b])
			i++
		}
	}
	return r.ys.back(v)
}

// KFoldRMSE estimates generalization error of a training procedure by
// k-fold cross validation with a seeded shuffle.
func KFoldRMSE(train func(X [][]float64, y []float64) (Model, error),
	X [][]float64, y []float64, k int, seed int64) (float64, error) {
	n := len(X)
	if k < 2 || n < k {
		return 0, fmt.Errorf("ml: cannot %d-fold %d samples", k, n)
	}
	perm := rand.New(rand.NewSource(seed)).Perm(n)
	var sse float64
	var cnt int
	for fold := 0; fold < k; fold++ {
		var trX, teX [][]float64
		var trY, teY []float64
		for i, pi := range perm {
			if i%k == fold {
				teX = append(teX, X[pi])
				teY = append(teY, y[pi])
			} else {
				trX = append(trX, X[pi])
				trY = append(trY, y[pi])
			}
		}
		m, err := train(trX, trY)
		if err != nil {
			return 0, err
		}
		for i, x := range teX {
			d := m.Predict(x) - teY[i]
			sse += d * d
			cnt++
		}
	}
	return math.Sqrt(sse / float64(cnt)), nil
}
