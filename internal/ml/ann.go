package ml

import (
	"fmt"
	"math"
	"math/rand"
)

// Fixed architecture and Adam settings of the neural-network trainer.
const (
	annEpochs         = 400  // training epochs
	annLR     float64 = 0.01 // learning rate
	annBatch          = 32   // minibatch size
	annL2     float64 = 1e-4 // weight decay
)

// annHidden holds the hidden layer widths.
var annHidden = [...]int{24, 12}

// ANN is a feed-forward network with tanh hidden units and a linear output,
// trained by backpropagation with Adam on mean-squared error.
type ANN struct {
	scaler *Scaler
	ys     yScale
	sizes  []int       // layer widths incl. input and the single output
	w      [][]float64 // w[l][i*in+j]: layer l weight from input j to unit i
	b      [][]float64
}

// TrainANN fits the network to (X, y); seed fixes the initial weights and
// the minibatch order.
func TrainANN(X [][]float64, y []float64, seed int64) (*ANN, error) {
	if len(X) == 0 || len(X) != len(y) {
		return nil, fmt.Errorf("ml: bad ANN training set (%d×%d)", len(X), len(y))
	}
	rng := rand.New(rand.NewSource(seed))
	a := &ANN{scaler: FitScaler(X), ys: fitYScale(y)}
	a.sizes = append([]int{len(X[0])}, annHidden[:]...)
	a.sizes = append(a.sizes, 1)
	for l := 1; l < len(a.sizes); l++ {
		in, out := a.sizes[l-1], a.sizes[l]
		w := make([]float64, in*out)
		scale := math.Sqrt(2.0 / float64(in+out)) // Glorot
		for i := range w {
			w[i] = rng.NormFloat64() * scale
		}
		a.w = append(a.w, w)
		a.b = append(a.b, make([]float64, out))
	}
	xs := a.scaler.TransformAll(X)
	ts := make([]float64, len(y))
	for i, v := range y {
		ts[i] = a.ys.fwd(v)
	}

	// Adam state.
	mw := make([][]float64, len(a.w))
	vw := make([][]float64, len(a.w))
	mb := make([][]float64, len(a.b))
	vb := make([][]float64, len(a.b))
	for l := range a.w {
		mw[l] = make([]float64, len(a.w[l]))
		vw[l] = make([]float64, len(a.w[l]))
		mb[l] = make([]float64, len(a.b[l]))
		vb[l] = make([]float64, len(a.b[l]))
	}
	const beta1, beta2, eps = 0.9, 0.999, 1e-8
	step := 0

	n := len(xs)
	idx := rng.Perm(n)
	gradW := make([][]float64, len(a.w))
	gradB := make([][]float64, len(a.b))
	for l := range a.w {
		gradW[l] = make([]float64, len(a.w[l]))
		gradB[l] = make([]float64, len(a.b[l]))
	}
	acts := a.allocActs()
	deltas := a.allocActs()

	for epoch := 0; epoch < annEpochs; epoch++ {
		// Fisher-Yates reshuffle each epoch.
		for i := n - 1; i > 0; i-- {
			j := rng.Intn(i + 1)
			idx[i], idx[j] = idx[j], idx[i]
		}
		for start := 0; start < n; start += annBatch {
			end := start + annBatch
			if end > n {
				end = n
			}
			for l := range gradW {
				zero(gradW[l])
				zero(gradB[l])
			}
			for _, ii := range idx[start:end] {
				a.backprop(xs[ii], ts[ii], acts, deltas, gradW, gradB)
			}
			bs := float64(end - start)
			step++
			corr1 := 1 - math.Pow(beta1, float64(step))
			corr2 := 1 - math.Pow(beta2, float64(step))
			for l := range a.w {
				for i := range a.w[l] {
					g := gradW[l][i]/bs + annL2*a.w[l][i]
					mw[l][i] = beta1*mw[l][i] + (1-beta1)*g
					vw[l][i] = beta2*vw[l][i] + (1-beta2)*g*g
					a.w[l][i] -= annLR * (mw[l][i] / corr1) / (math.Sqrt(vw[l][i]/corr2) + eps)
				}
				for i := range a.b[l] {
					g := gradB[l][i] / bs
					mb[l][i] = beta1*mb[l][i] + (1-beta1)*g
					vb[l][i] = beta2*vb[l][i] + (1-beta2)*g*g
					a.b[l][i] -= annLR * (mb[l][i] / corr1) / (math.Sqrt(vb[l][i]/corr2) + eps)
				}
			}
		}
	}
	return a, nil
}

func zero(v []float64) {
	for i := range v {
		v[i] = 0
	}
}

func (a *ANN) allocActs() [][]float64 {
	out := make([][]float64, len(a.sizes))
	for l, s := range a.sizes {
		out[l] = make([]float64, s)
	}
	return out
}

// forward fills acts[l] for every layer; acts[0] is the (scaled) input.
func (a *ANN) forward(x []float64, acts [][]float64) float64 {
	copy(acts[0], x)
	for l := 1; l < len(a.sizes); l++ {
		in, out := a.sizes[l-1], a.sizes[l]
		w := a.w[l-1]
		for i := 0; i < out; i++ {
			s := a.b[l-1][i]
			row := w[i*in : (i+1)*in]
			for j, v := range acts[l-1][:in] {
				s += row[j] * v
			}
			if l == len(a.sizes)-1 {
				acts[l][i] = s // linear output
			} else {
				acts[l][i] = math.Tanh(s)
			}
		}
	}
	return acts[len(acts)-1][0]
}

// backprop accumulates gradients of the squared error for one sample.
func (a *ANN) backprop(x []float64, t float64, acts, deltas [][]float64, gradW, gradB [][]float64) {
	out := a.forward(x, acts)
	L := len(a.sizes) - 1
	deltas[L][0] = out - t // d(0.5·err²)/d(out)
	for l := L; l >= 1; l-- {
		in, nu := a.sizes[l-1], a.sizes[l]
		w := a.w[l-1]
		if l > 1 {
			zero(deltas[l-1])
		}
		for i := 0; i < nu; i++ {
			d := deltas[l][i]
			base := i * in
			for j := 0; j < in; j++ {
				gradW[l-1][base+j] += d * acts[l-1][j]
				if l > 1 {
					deltas[l-1][j] += d * w[base+j]
				}
			}
			gradB[l-1][i] += d
		}
		if l > 1 {
			// Through the tanh nonlinearity.
			for j := 0; j < in; j++ {
				v := acts[l-1][j]
				deltas[l-1][j] *= 1 - v*v
			}
		}
	}
}

// Predict implements Model.
func (a *ANN) Predict(x []float64) float64 {
	acts := a.allocActs()
	return a.ys.back(a.forward(a.scaler.Transform(x), acts))
}

// gradCheck exposes a numerical-vs-analytic gradient comparison for tests:
// it returns the max relative error over all weights for one sample.
func (a *ANN) gradCheck(x []float64, t float64) float64 {
	acts := a.allocActs()
	deltas := a.allocActs()
	gradW := make([][]float64, len(a.w))
	gradB := make([][]float64, len(a.b))
	for l := range a.w {
		gradW[l] = make([]float64, len(a.w[l]))
		gradB[l] = make([]float64, len(a.b[l]))
	}
	a.backprop(x, t, acts, deltas, gradW, gradB)
	loss := func() float64 {
		o := a.forward(x, acts)
		return 0.5 * (o - t) * (o - t)
	}
	const h = 1e-6
	worst := 0.0
	for l := range a.w {
		for i := range a.w[l] {
			orig := a.w[l][i]
			a.w[l][i] = orig + h
			up := loss()
			a.w[l][i] = orig - h
			dn := loss()
			a.w[l][i] = orig
			num := (up - dn) / (2 * h)
			den := math.Max(1e-6, math.Abs(num)+math.Abs(gradW[l][i]))
			if rel := math.Abs(num-gradW[l][i]) / den; rel > worst {
				worst = rel
			}
		}
	}
	return worst
}
