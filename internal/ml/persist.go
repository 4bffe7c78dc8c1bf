package ml

import (
	"encoding/json"
	"fmt"
	"io"
)

// Model persistence: every trained regressor round-trips through a tagged
// JSON envelope inside a model bundle, so trained predictors can be saved by
// cmd/trainml and reloaded by cmd/skewopt (the paper's "one-time
// per-technology training").

type scalerJSON struct {
	Mean []float64 `json:"mean"`
	Std  []float64 `json:"std"`
}

type yScaleJSON struct {
	Mean float64 `json:"mean"`
	Std  float64 `json:"std"`
}

type annJSON struct {
	Scaler scalerJSON  `json:"scaler"`
	Y      yScaleJSON  `json:"y"`
	Sizes  []int       `json:"sizes"`
	W      [][]float64 `json:"w"`
	B      [][]float64 `json:"b"`
}

type svrJSON struct {
	Scaler scalerJSON  `json:"scaler"`
	Y      yScaleJSON  `json:"y"`
	SV     [][]float64 `json:"sv"`
	Alpha  []float64   `json:"alpha"`
	B      float64     `json:"b"`
	Gamma  float64     `json:"gamma"`
}

type ridgeJSON struct {
	Scaler scalerJSON `json:"scaler"`
	Y      yScaleJSON `json:"y"`
	Coef   []float64  `json:"coef"`
	Dim    int        `json:"dim"`
}

type envelope struct {
	Kind    string     `json:"kind"`
	ANN     *annJSON   `json:"ann,omitempty"`
	SVR     *svrJSON   `json:"svr,omitempty"`
	Ridge   *ridgeJSON `json:"ridge,omitempty"`
	HSMSub  []envelope `json:"hsm_components,omitempty"`
	Weights []float64  `json:"hsm_weights,omitempty"`
	CVErrs  []float64  `json:"hsm_cv_errs,omitempty"`
}

func toEnvelope(m Model) (envelope, error) {
	switch v := m.(type) {
	case *ANN:
		return envelope{Kind: "ann", ANN: &annJSON{
			Scaler: scalerJSON{Mean: v.scaler.Mean, Std: v.scaler.Std},
			Y:      yScaleJSON{Mean: v.ys.mean, Std: v.ys.std},
			Sizes:  v.sizes, W: v.w, B: v.b,
		}}, nil
	case *SVR:
		return envelope{Kind: "svr", SVR: &svrJSON{
			Scaler: scalerJSON{Mean: v.scaler.Mean, Std: v.scaler.Std},
			Y:      yScaleJSON{Mean: v.ys.mean, Std: v.ys.std},
			SV:     v.sv, Alpha: v.alpha, B: v.b, Gamma: v.gamma,
		}}, nil
	case *Ridge:
		return envelope{Kind: "ridge", Ridge: &ridgeJSON{
			Scaler: scalerJSON{Mean: v.scaler.Mean, Std: v.scaler.Std},
			Y:      yScaleJSON{Mean: v.ys.mean, Std: v.ys.std},
			Coef:   v.coef, Dim: v.dim,
		}}, nil
	case *HSM:
		env := envelope{Kind: "hsm", Weights: v.Weights, CVErrs: v.CVErrs}
		for _, sub := range v.Models {
			se, err := toEnvelope(sub)
			if err != nil {
				return envelope{}, err
			}
			env.HSMSub = append(env.HSMSub, se)
		}
		return env, nil
	}
	return envelope{}, fmt.Errorf("ml: cannot serialize model type %T", m)
}

func fromEnvelope(e envelope) (Model, error) {
	switch e.Kind {
	case "ann":
		if e.ANN == nil || len(e.ANN.Sizes) < 2 {
			return nil, fmt.Errorf("ml: malformed ANN envelope")
		}
		return &ANN{
			scaler: &Scaler{Mean: e.ANN.Scaler.Mean, Std: e.ANN.Scaler.Std},
			ys:     yScale{mean: e.ANN.Y.Mean, std: e.ANN.Y.Std},
			sizes:  e.ANN.Sizes, w: e.ANN.W, b: e.ANN.B,
		}, nil
	case "svr":
		if e.SVR == nil || len(e.SVR.SV) != len(e.SVR.Alpha) {
			return nil, fmt.Errorf("ml: malformed SVR envelope")
		}
		return &SVR{
			scaler: &Scaler{Mean: e.SVR.Scaler.Mean, Std: e.SVR.Scaler.Std},
			ys:     yScale{mean: e.SVR.Y.Mean, std: e.SVR.Y.Std},
			sv:     e.SVR.SV, alpha: e.SVR.Alpha, b: e.SVR.B, gamma: e.SVR.Gamma,
		}, nil
	case "ridge":
		if e.Ridge == nil || len(e.Ridge.Coef) == 0 {
			return nil, fmt.Errorf("ml: malformed ridge envelope")
		}
		return &Ridge{
			scaler: &Scaler{Mean: e.Ridge.Scaler.Mean, Std: e.Ridge.Scaler.Std},
			ys:     yScale{mean: e.Ridge.Y.Mean, std: e.Ridge.Y.Std},
			coef:   e.Ridge.Coef, dim: e.Ridge.Dim,
		}, nil
	case "hsm":
		if len(e.HSMSub) != len(e.Weights) || len(e.HSMSub) == 0 {
			return nil, fmt.Errorf("ml: malformed HSM envelope")
		}
		h := &HSM{Weights: e.Weights, CVErrs: e.CVErrs}
		for _, se := range e.HSMSub {
			sub, err := fromEnvelope(se)
			if err != nil {
				return nil, err
			}
			h.Models = append(h.Models, sub)
		}
		return h, nil
	}
	return nil, fmt.Errorf("ml: unknown model kind %q", e.Kind)
}

// SaveModels writes a named bundle of models (e.g. one per corner).
func SaveModels(w io.Writer, kind string, models []Model) error {
	type bundle struct {
		Kind   string     `json:"kind"`
		Models []envelope `json:"models"`
	}
	b := bundle{Kind: kind}
	for _, m := range models {
		env, err := toEnvelope(m)
		if err != nil {
			return err
		}
		b.Models = append(b.Models, env)
	}
	return json.NewEncoder(w).Encode(&b)
}

// LoadModels reads a bundle written by SaveModels, returning the kind tag
// and the models in order.
func LoadModels(r io.Reader) (string, []Model, error) {
	type bundle struct {
		Kind   string     `json:"kind"`
		Models []envelope `json:"models"`
	}
	var b bundle
	if err := json.NewDecoder(r).Decode(&b); err != nil {
		return "", nil, fmt.Errorf("ml: decoding model bundle: %w", err)
	}
	var out []Model
	for _, env := range b.Models {
		m, err := fromEnvelope(env)
		if err != nil {
			return "", nil, err
		}
		out = append(out, m)
	}
	return b.Kind, out, nil
}
