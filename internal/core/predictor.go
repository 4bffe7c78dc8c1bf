package core

import (
	"fmt"

	"skewvar/internal/ml"
)

// StageModel predicts the golden-timer *change* of one stage's delay from
// the delta-feature encoding (the NumFeatures-wide rows of the stage
// estimator, stageEstimator.features). Implementations: trained
// ML models (MLStageModel) and the four raw analytic estimators
// (AnalyticStageModel) used as baselines in the paper's Figure 6.
type StageModel interface {
	// PredictDelta returns the predicted stage-delay change (ps) at corner k.
	PredictDelta(k int, feats []float64) float64
	// Name identifies the model in reports.
	Name() string
}

// MLStageModel wraps one trained delta-latency regressor per corner (the
// paper trains one model per corner, §4.2). The regressors learn the
// *residual* between the golden stage-delay change and the best analytic
// estimate (RSMT+D2M): residual learning keeps the model at least as good
// as the analytic estimator when a design stage falls outside the training
// distribution, and the correction is clamped relative to the estimate for
// the same reason.
type MLStageModel struct {
	Kind   string // "ann", "svr", "hsm", "ridge"
	Models []ml.Model
	// Shrink scales the learned correction per corner, set from cross
	// validation at training time: 1 when the correction clearly
	// generalizes, →0 when the residual is mostly noise (in which case the
	// model gracefully degrades to the strongest analytic delta estimate).
	Shrink []float64
}

// correction clamp: |learned correction| ≤ relCorrClamp·|estimate| + absCorrClamp.
const (
	relCorrClamp = 0.3
	absCorrClamp = 1.5 // ps
)

// mlView projects the full feature vector onto the scale-bounded subset the
// regressors consume: the four delta estimates plus fanout, aspect ratio,
// slew and drive. Unbounded absolute features (bbox area, raw latencies)
// are excluded — they wreck polynomial models outside the training range.
func mlView(feats []float64) []float64 {
	return []float64{
		feats[0], feats[1], feats[2], feats[3],
		feats[FeatFanout], feats[FeatAR], feats[FeatSlew], feats[FeatDrive],
	}
}

// PredictDelta implements StageModel.
func (m *MLStageModel) PredictDelta(k int, feats []float64) float64 {
	base := feats[RSMTD2M]
	c := m.Models[k].Predict(mlView(feats))
	if k < len(m.Shrink) {
		c *= m.Shrink[k]
	}
	lim := relCorrClamp*abs(base) + absCorrClamp
	if c > lim {
		c = lim
	} else if c < -lim {
		c = -lim
	}
	return base + c
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}

// Name implements StageModel.
func (m *MLStageModel) Name() string { return m.Kind }

// AnalyticStageModel is the paper-faithful no-learning baseline: the
// analytic estimate of the post-move stage delay compared against the
// golden pre-move stage delay from the timing database. Its estimation
// *bias* does not cancel — exactly the weakness Figure 6 exposes.
type AnalyticStageModel struct {
	Mode EstMode
}

// PredictDelta implements StageModel.
func (a *AnalyticStageModel) PredictDelta(_ int, feats []float64) float64 {
	return feats[FeatPostBase+int(a.Mode)] - feats[FeatGoldenPre]
}

// Name implements StageModel.
func (a *AnalyticStageModel) Name() string { return a.Mode.String() }

// AnalyticDeltaModel is a stronger analytic baseline this reproduction
// adds: both pre- and post-move stages are estimated through the same
// pipeline and differenced, so systematic estimation bias cancels. It is
// not in the paper; see EXPERIMENTS.md for the comparison.
type AnalyticDeltaModel struct {
	Mode EstMode
}

// PredictDelta implements StageModel.
func (a *AnalyticDeltaModel) PredictDelta(_ int, feats []float64) float64 {
	return feats[a.Mode]
}

// Name implements StageModel.
func (a *AnalyticDeltaModel) Name() string { return a.Mode.String() + "(Δ)" }

// AnalyticBaselines returns the four paper-faithful analytic baselines
// compared against learning in Figure 6.
func AnalyticBaselines() []StageModel {
	out := make([]StageModel, 0, NumEstModes)
	for m := EstMode(0); m < NumEstModes; m++ {
		out = append(out, &AnalyticStageModel{Mode: m})
	}
	return out
}

// DeltaBaselines returns the four bias-cancelling analytic baselines.
func DeltaBaselines() []StageModel {
	out := make([]StageModel, 0, NumEstModes)
	for m := EstMode(0); m < NumEstModes; m++ {
		out = append(out, &AnalyticDeltaModel{Mode: m})
	}
	return out
}

// validateModel checks corner coverage before a model is used in the flow.
func validateModel(m StageModel, corners int) error {
	if ms, ok := m.(*MLStageModel); ok && len(ms.Models) < corners {
		return fmt.Errorf("core: model %q covers %d corners, need %d", ms.Kind, len(ms.Models), corners)
	}
	return nil
}
