package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"

	"skewvar/internal/ctree"
	"skewvar/internal/eco"
	"skewvar/internal/legalize"
	"skewvar/internal/ml"
	"skewvar/internal/resilience"
	"skewvar/internal/route"
	"skewvar/internal/sta"
	"skewvar/internal/tech"
	"skewvar/internal/testgen"
)

// Dataset holds per-corner training data for the delta-latency models: the
// feature vectors are corner-specific (wire RC and gate tables differ per
// corner), so each corner carries its own X. Targets are golden stage-delay
// changes; Base keeps the pre-move golden stage delay so evaluations can be
// reported as latencies (Figure 5's axes).
type Dataset struct {
	X    [][][]float64 // [corner][sample][feature]
	Y    [][]float64   // [corner][sample] golden stage-delay change, ps
	Base [][]float64   // [corner][sample] pre-move golden stage delay, ps
}

// Len returns the per-corner sample count.
func (d *Dataset) Len() int {
	if len(d.Y) == 0 {
		return 0
	}
	return len(d.Y[0])
}

// netStages is one net a move affects: its driver d and d's fanout pins,
// one per stage "d → pin", in FanoutPins order. resized marks a net whose
// driver the move resizes and nothing else: its pins, their places and
// loads, and the driver's place are as they were before the move.
type netStages struct {
	d       ctree.NodeID
	pins    []ctree.NodeID
	resized bool
}

// affectedStages lists the stages whose delay a move changes, evaluated on
// the post-move tree, net by net so that each net is estimated once: the
// moved buffer's driver net (load and wiring change), the moved buffer's
// own net, a resized child's net (Type II), and both old and new driver
// nets for surgery (Type III). Nets without fanout pins are left out. The
// resized child's net, and the buffer's own net of a Type I move that does
// not displace it, are marked resized.
func affectedStages(tr *ctree.Tree, m eco.Move) []netStages {
	nets, _ := appendAffectedStages(nil, nil, tr, m)
	return nets
}

// appendAffectedStages is affectedStages over caller-owned scratch: it
// appends the nets to nets and their pin lists to pins, and returns both
// extended slices for reuse.
func appendAffectedStages(nets []netStages, pins []ctree.NodeID, tr *ctree.Tree, m eco.Move) ([]netStages, []ctree.NodeID) {
	var drivers [3]ctree.NodeID
	ds := drivers[:0]
	resized := ctree.NoNode
	switch m.Type {
	case eco.TypeI:
		ds = append(ds, tr.Driver(m.Buffer), m.Buffer)
		if m.DX == 0 && m.DY == 0 {
			resized = m.Buffer
		}
	case eco.TypeII:
		ds = append(ds, tr.Driver(m.Buffer), m.Buffer, m.Child)
		resized = m.Child
	case eco.TypeIII:
		ds = append(ds, m.Buffer, m.NewDrv) // the old driver (child has left its net)
	}
	for _, d := range ds {
		if d == ctree.NoNode || tr.Node(d) == nil {
			continue
		}
		// A later append may move pins to a larger array; the nets already
		// listed keep their slices of the old one, whose values stay put.
		lo := len(pins)
		pins = tr.AppendFanoutPins(pins, d)
		if hi := len(pins); hi > lo {
			nets = append(nets, netStages{d: d, pins: pins[lo:hi:hi], resized: d == resized})
		}
	}
	return nets, pins
}

// BuildDataset generates stage-delay training data from artificial
// testcases (paper §4.2: 150 cases × ~450 moves; scale via the arguments).
// Every sample is one (move-affected stage, corner): features from the
// post-move topology with pre-move slews, target from the golden timer on
// the post-move tree with the case's congestion field. The context is
// consulted between cases and between moves, so a canceled training run
// stops within one golden re-timing.
func BuildDataset(ctx context.Context, t *tech.Tech, cases, movesPer int, seed int64) (*Dataset, error) {
	rng := rand.New(rand.NewSource(seed))
	k := t.NumCorners()
	ds := &Dataset{
		X:    make([][][]float64, k),
		Y:    make([][]float64, k),
		Base: make([][]float64, k),
	}
	for c := 0; c < cases; c++ {
		if err := resilience.Canceled(ctx); err != nil {
			return nil, fmt.Errorf("core: building dataset (case %d of %d): %w", c, cases, err)
		}
		tc := testgen.NewTrainingCase(t, rng)
		tm := sta.New(t)
		tm.Cong = route.NewCongestion(tc.Die, 8, 8, 0.18, uint64(seed)+uint64(c)*7919)
		lg := legalize.New(tc.Die, t.SiteW, t.RowH)
		preA := tm.Analyze(tc.Tree)
		est := newStageEstimator(t, tc.Tree, preA)
		moves := eco.Enumerate(tc.Tree, t, tc.Target, tc.Die)
		rng.Shuffle(len(moves), func(i, j int) { moves[i], moves[j] = moves[j], moves[i] })
		if len(moves) > movesPer {
			moves = moves[:movesPer]
		}
		for mi, mv := range moves {
			if err := resilience.Canceled(ctx); err != nil {
				return nil, fmt.Errorf("core: building dataset (case %d, move %d): %w", c, mi, err)
			}
			post := tc.Tree.Clone()
			if err := eco.Apply(post, t, lg, mv); err != nil {
				continue
			}
			// Incremental re-timing against the case's baseline: only the
			// move's dirty nets are rebuilt, instead of a full analysis per
			// training sample (the targets agree within slew-convergence
			// tolerance; see the dataset regression test).
			postA := tm.AnalyzeIncremental(post, preA, moveDirty(mv))
			for _, net := range affectedStages(post, mv) {
				feats := est.features(post, net, nil)
				for i, pin := range net.pins {
					for kk := 0; kk < k; kk++ {
						row := featureRow(feats, i, kk, k)
						base := row[FeatGoldenPre]
						target := GoldenStageDelta(preA, postA, net.d, pin, kk)
						if math.IsNaN(target) || math.IsNaN(base) || base <= 0 {
							continue
						}
						ds.X[kk] = append(ds.X[kk], row)
						ds.Y[kk] = append(ds.Y[kk], target)
						ds.Base[kk] = append(ds.Base[kk], base)
					}
				}
			}
		}
	}
	return ds, nil
}

// TrainConfig tunes predictor training. Zero values select defaults sized
// for interactive runs; the paper-scale settings are Cases=150,
// MovesPerCase=450.
type TrainConfig struct {
	Cases        int    // artificial testcases (default 40)
	MovesPerCase int    // sampled moves per case (default 25)
	Kind         string // "hsm" (default), "ann", "svr"
	Seed         int64
}

// maxTrainSamples caps the per-corner training set.
const maxTrainSamples = 4000

func (c *TrainConfig) setDefaults() {
	if c.Cases == 0 {
		c.Cases = 40
	}
	if c.MovesPerCase == 0 {
		c.MovesPerCase = 25
	}
	if c.Kind == "" {
		c.Kind = "hsm"
	}
}

// TrainStageModel builds a dataset and fits one model per corner.
func TrainStageModel(ctx context.Context, t *tech.Tech, cfg TrainConfig) (*MLStageModel, error) {
	cfg.setDefaults()
	ds, err := BuildDataset(ctx, t, cfg.Cases, cfg.MovesPerCase, cfg.Seed)
	if err != nil {
		return nil, err
	}
	return TrainOnDataset(ctx, t, ds, cfg)
}

// TrainOnDataset fits the configured model kind on an existing dataset.
// The context is checked once per corner: each per-corner fit (ANN epochs,
// SVR SMO passes) is the natural atom of work.
func TrainOnDataset(ctx context.Context, t *tech.Tech, ds *Dataset, cfg TrainConfig) (*MLStageModel, error) {
	cfg.setDefaults()
	k := t.NumCorners()
	if len(ds.X) < k {
		return nil, fmt.Errorf("core: dataset covers %d corners, need %d: %w", len(ds.X), k, resilience.ErrInvalidDesign)
	}
	out := &MLStageModel{Kind: cfg.Kind}
	for kk := 0; kk < k; kk++ {
		if err := resilience.Canceled(ctx); err != nil {
			return nil, fmt.Errorf("core: training corner %d: %w", kk, err)
		}
		X, Yd := capSamples(ds.X[kk], ds.Y[kk], maxTrainSamples, cfg.Seed)
		if len(X) < 20 {
			return nil, fmt.Errorf("core: only %d samples at corner %d: %w", len(X), kk, resilience.ErrInvalidDesign)
		}
		// Residual target: golden delta minus the RSMT+D2M analytic delta,
		// on the scale-bounded feature view (see MLStageModel).
		Y := make([]float64, len(Yd))
		Xv := make([][]float64, len(X))
		for i, y := range Yd {
			Y[i] = y - X[i][RSMTD2M]
			v := mlView(X[i])
			Xv[i] = v[:]
		}
		X = Xv
		trainOne := func(X [][]float64, Y []float64) (ml.Model, error) {
			var m ml.Model
			var err error
			switch cfg.Kind {
			case "ann":
				m, err = ml.TrainANN(X, Y, cfg.Seed+int64(kk))
			case "svr":
				m, err = ml.TrainSVR(X, Y, cfg.Seed+int64(kk))
			case "hsm":
				m, err = ml.TrainHSM(X, Y, ml.HSMConfig{Seed: cfg.Seed + int64(kk), Ridge: ridgeLambda(len(X))})
			case "ridge":
				m, err = ml.TrainRidge(X, Y, ridgeLambda(len(X)))
			default:
				return nil, fmt.Errorf("core: unknown model kind %q", cfg.Kind)
			}
			return m, err
		}
		m, err := trainOne(X, Y)
		if err != nil {
			return nil, fmt.Errorf("core: training corner %d: %w", kk, err)
		}
		out.Models = append(out.Models, m)
		// CV-gated shrinkage: compare the correction model's k-fold RMSE
		// against the zero-correction baseline (the residual std). If the
		// learned correction does not generalize, shrink it away so the
		// predictor falls back to the analytic delta estimate.
		shrink := 0.0
		if cvRMSE, err := ml.KFoldRMSE(func(X [][]float64, Y []float64) (ml.Model, error) {
			return trainOne(X, Y)
		}, X, Y, 4, cfg.Seed+int64(kk)*31); err == nil {
			zero := residualStd(Y)
			if zero > 1e-9 && cvRMSE < zero {
				shrink = 1 - (cvRMSE*cvRMSE)/(zero*zero)
				if shrink > 1 {
					shrink = 1
				}
			}
		}
		out.Shrink = append(out.Shrink, shrink)
	}
	return out, nil
}

// residualStd is the RMS of the residual targets — the error of predicting
// a zero correction.
func residualStd(y []float64) float64 {
	var ss float64
	for _, v := range y {
		ss += v * v
	}
	if len(y) == 0 {
		return 0
	}
	return sqrt(ss / float64(len(y)))
}

func sqrt(v float64) float64 { return math.Sqrt(v) }

// ridgeLambda is the L2 strength of the polynomial-ridge component, scaled
// with the sample count (tuned on held-out artificial testcases).
func ridgeLambda(n int) float64 {
	l := 0.04 * float64(n)
	if l < 20 {
		l = 20
	}
	return l
}

func capSamples(X [][]float64, Y []float64, max int, seed int64) ([][]float64, []float64) {
	if len(X) <= max {
		return X, Y
	}
	perm := rand.New(rand.NewSource(seed)).Perm(len(X))[:max]
	nx := make([][]float64, max)
	ny := make([]float64, max)
	for i, pi := range perm {
		nx[i], ny[i] = X[pi], Y[pi]
	}
	return nx, ny
}

// Accuracy holds Figure-5-style evaluation results for one corner: the
// post-move stage latencies reconstructed from predicted vs. actual deltas
// (the paper plots "predicted vs actual latencies ... computed from the
// predicted delta latencies").
type Accuracy struct {
	Corner    int
	Predicted []float64 // base + predicted delta
	Actual    []float64 // base + actual delta
}

// EvaluateStageModel scores a model on a (held-out) dataset.
func EvaluateStageModel(m StageModel, ds *Dataset) []Accuracy {
	out := make([]Accuracy, len(ds.X))
	for k := range ds.X {
		acc := Accuracy{Corner: k}
		for i, x := range ds.X[k] {
			acc.Predicted = append(acc.Predicted, ds.Base[k][i]+m.PredictDelta(k, x))
			acc.Actual = append(acc.Actual, ds.Base[k][i]+ds.Y[k][i])
		}
		out[k] = acc
	}
	return out
}
