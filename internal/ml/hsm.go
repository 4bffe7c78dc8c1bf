package ml

import "fmt"

// hsmFolds is the number of CV folds used to weight the components.
const hsmFolds = 4

// HSMConfig tunes Hybrid Surrogate Modeling. Zero values select defaults.
type HSMConfig struct {
	Seed  int64
	Ridge float64 // ridge lambda (default 1e-3)
}

// HSM is the Hybrid Surrogate Model of Kahng, Lin and Nath (DATE 2013): a
// convex combination of heterogeneous metamodels (here ANN, RBF-SVR and
// degree-2 polynomial ridge) whose weights are proportional to inverse
// squared cross-validation RMSE.
type HSM struct {
	Models  []Model
	Weights []float64
	CVErrs  []float64
}

// TrainHSM fits the three component models on the full data and weights
// them by k-fold CV error.
func TrainHSM(X [][]float64, y []float64, cfg HSMConfig) (*HSM, error) {
	if len(X) == 0 || len(X) != len(y) {
		return nil, fmt.Errorf("ml: bad HSM training set (%d×%d)", len(X), len(y))
	}
	if cfg.Ridge == 0 {
		cfg.Ridge = 1e-3
	}
	trainers := []func(X [][]float64, y []float64) (Model, error){
		func(X [][]float64, y []float64) (Model, error) {
			return TrainANN(X, y, cfg.Seed)
		},
		func(X [][]float64, y []float64) (Model, error) {
			return TrainSVR(X, y, cfg.Seed)
		},
		func(X [][]float64, y []float64) (Model, error) {
			return TrainRidge(X, y, cfg.Ridge)
		},
	}
	h := &HSM{}
	for i, tr := range trainers {
		rmse, err := KFoldRMSE(tr, X, y, hsmFolds, cfg.Seed+int64(i))
		if err != nil {
			return nil, fmt.Errorf("ml: HSM CV of component %d: %w", i, err)
		}
		m, err := tr(X, y)
		if err != nil {
			return nil, err
		}
		h.Models = append(h.Models, m)
		h.CVErrs = append(h.CVErrs, rmse)
	}
	// Inverse squared-error weights, normalized.
	var sum float64
	h.Weights = make([]float64, len(h.Models))
	for i, e := range h.CVErrs {
		if e < 1e-9 {
			e = 1e-9
		}
		h.Weights[i] = 1 / (e * e)
		sum += h.Weights[i]
	}
	for i := range h.Weights {
		h.Weights[i] /= sum
	}
	return h, nil
}

// Predict implements Model.
func (h *HSM) Predict(x []float64) float64 {
	var v float64
	for i, m := range h.Models {
		v += h.Weights[i] * m.Predict(x)
	}
	return v
}
