package ml

import (
	"fmt"
	"math"
	"math/rand"

	"skewvar/internal/fit"
)

// Fixed settings of the regressor; the RBF width is the 1/d heuristic on
// scaled features.
const (
	svrC      float64 = 10  // regularization
	svrMaxPts         = 500 // support-set subsample cap
)

// SVR is a support-vector regressor with an RBF kernel, trained in exact
// least-squares-SVM form (Suykens): the dual linear system
//
//	[ 0   1ᵀ          ] [b]   [0]
//	[ 1   K + I/C     ] [α] = [y]
//
// is solved directly, which is the ε→0 limit of ε-SVR with quadratic slack.
// This keeps the RBF-SVM model class of the paper while avoiding an
// iterative SMO solver; large training sets are subsampled to svrMaxPts
// support points.
type SVR struct {
	scaler *Scaler
	ys     yScale
	sv     [][]float64
	alpha  []float64
	b      float64
	gamma  float64
}

// TrainSVR fits the regressor; seed fixes the support-set subsample.
func TrainSVR(X [][]float64, y []float64, seed int64) (*SVR, error) {
	if len(X) == 0 || len(X) != len(y) {
		return nil, fmt.Errorf("ml: bad SVR training set (%d×%d)", len(X), len(y))
	}
	s := &SVR{scaler: FitScaler(X), ys: fitYScale(y)}
	xs := s.scaler.TransformAll(X)
	ts := make([]float64, len(y))
	for i, v := range y {
		ts[i] = s.ys.fwd(v)
	}
	// Subsample the support set if needed.
	if len(xs) > svrMaxPts {
		perm := rand.New(rand.NewSource(seed)).Perm(len(xs))[:svrMaxPts]
		nx := make([][]float64, svrMaxPts)
		nt := make([]float64, svrMaxPts)
		for i, pi := range perm {
			nx[i], nt[i] = xs[pi], ts[pi]
		}
		xs, ts = nx, nt
	}
	s.gamma = 1 / float64(len(xs[0]))
	n := len(xs)
	// LS-SVM dual system of size n+1.
	m := make([][]float64, n+1)
	rhs := make([]float64, n+1)
	m[0] = make([]float64, n+1)
	for i := 1; i <= n; i++ {
		m[0][i] = 1
		m[i] = make([]float64, n+1)
		m[i][0] = 1
		for j := 1; j <= n; j++ {
			m[i][j] = s.kernel(xs[i-1], xs[j-1])
		}
		m[i][i] += 1 / svrC
		rhs[i] = ts[i-1]
	}
	sol, err := fit.SolveLinear(m, rhs)
	if err != nil {
		return nil, fmt.Errorf("ml: LS-SVM solve: %w", err)
	}
	s.b = sol[0]
	s.alpha = sol[1:]
	s.sv = xs
	return s, nil
}

func (s *SVR) kernel(a, b []float64) float64 {
	var ss float64
	for i := range a {
		d := a[i] - b[i]
		ss += d * d
	}
	return math.Exp(-s.gamma * ss)
}

// Predict implements Model.
func (s *SVR) Predict(x []float64) float64 {
	xx := s.scaler.Transform(x)
	v := s.b
	for i, sv := range s.sv {
		v += s.alpha[i] * s.kernel(xx, sv)
	}
	return s.ys.back(v)
}
