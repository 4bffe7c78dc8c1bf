package core

import (
	"bytes"
	"context"
	"hash"
	"hash/fnv"
	"testing"

	"skewvar/internal/ctree"
	"skewvar/internal/edaio"
	"skewvar/internal/obs"
	"skewvar/internal/power"
	"skewvar/internal/sta"
)

// Golden digests of the whole optimization: FNV-1a over the bytes and
// math.Float64bits a fixed CTS → global → local run produces. They pin the
// fixed parameters of the method (CTS cells and repeater spacing, the LP's
// growth, latency and sampling bounds, the local stage's batch shape, the
// trainers' defaults, the fix-cost datapath model) as well as the code: any
// change that moves a result shows up here. A change that legitimately
// moves results updates these values and says why.
const (
	wantCTSDigest       = 0x63b756a1effd78ac
	wantFlowDigest      = 0x080f176628cf96e4
	wantFreeDeltaDigest = 0x7e22976142a5562a
	wantSVRDigest       = 0xae7c9ffc38facf5a
	wantFixCostDigest   = 0x8379497b9aff678a
)

func hashDesign(t *testing.T, h hash.Hash64, d *ctree.Design) {
	t.Helper()
	var buf bytes.Buffer
	if err := edaio.WriteDesign(&buf, d); err != nil {
		t.Fatal(err)
	}
	h.Write(buf.Bytes())
}

func hashLPStats(h hash.Hash64, stats []LPStat) {
	for _, s := range stats {
		hashFloats(h, s.UFrac, float64(s.Block), float64(s.Rows), float64(s.Cols),
			float64(s.Solves), float64(s.Iters), float64(s.Refactors), float64(s.Status),
			s.AbsDeltaSum, float64(s.ArcsChanged))
	}
}

func TestFlowDigest(t *testing.T) {
	ctx := context.Background()
	_, ch := testTech(t)
	d, tm := smallDesign(t, 150)
	check := func(what string, h hash.Hash64, want uint64) {
		t.Helper()
		if h.Sum64() != want {
			t.Errorf("%s digest %#x, want %#x", what, h.Sum64(), want)
		}
	}

	h := fnv.New64a()
	hashDesign(t, h, d)
	check("CTS", h, wantCTSDigest)

	rec := obs.NewWithClock(obs.NewFakeClock(1))
	res, err := RunFlows(ctx, tm, ch, d, cheapModel(t, tm.Tech), FlowConfig{
		TopPairs: 60,
		Global:   GlobalConfig{MaxPairsPerLP: 60},
		Local:    LocalConfig{MaxIters: 4, MaxMoves: 400, Seed: 5},
		Workers:  1,
		Obs:      rec,
	})
	if err != nil {
		t.Fatal(err)
	}
	h = fnv.New64a()
	for _, m := range []Metrics{res.Orig, res.Global, res.Local, res.GLocal} {
		hashFloats(h, m.SumVarPS, m.Norm)
		hashFloats(h, m.SkewPS...)
	}
	hashLPStats(h, res.GRes.LPStats)
	for _, lr := range []*LocalResult{res.LRes, res.GLRes} {
		for _, r := range lr.Records {
			hashFloats(h, float64(r.Iter), float64(r.MoveType), r.Predicted, r.Actual, r.SumVar)
			h.Write([]byte(r.Move))
		}
	}
	for _, stage := range FlowStages {
		od := d.Clone()
		od.Tree = res.Trees[stage]
		hashDesign(t, h, od)
	}
	h.Write(obs.CanonicalTrace(rec.Records()))
	check("flow", h, wantFlowDigest)

	// The free-Δ ablation runs the W-window (11) row generation.
	a0 := tm.Analyze(d.Tree)
	alphas := sta.Alphas(a0, d.TopPairs(0))
	gres, err := GlobalOpt(ctx, tm, ch, d, alphas, GlobalConfig{
		TopPairs: 60, MaxArcsPerLP: 80, USweep: []float64{0.8}, FreeDelta: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	h = fnv.New64a()
	hashFloats(h, gres.SumVar0, gres.SumVar, gres.BestU)
	hashLPStats(h, gres.LPStats)
	od := d.Clone()
	od.Tree = gres.Tree
	hashDesign(t, h, od)
	check("free-Δ", h, wantFreeDeltaDigest)

	ds, err := BuildDataset(ctx, tm.Tech, 2, 6, 11)
	if err != nil {
		t.Fatal(err)
	}
	svr, err := TrainOnDataset(ctx, tm.Tech, ds, TrainConfig{Kind: "svr", Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	h = fnv.New64a()
	for k := range ds.X {
		for _, x := range ds.X[k] {
			hashFloats(h, svr.PredictDelta(k, x))
		}
	}
	check("svr", h, wantSVRDigest)

	tr := res.Trees["global-local"]
	aGL := tm.Analyze(tr)
	scale := make([]float64, len(res.Alphas))
	for k, a := range res.Alphas {
		scale[k] = 1 / a
	}
	fc := power.EstimateFixCost(tr, d.TopPairs(60), aGL.K, aGL.Latency, scale)
	h = fnv.New64a()
	hashFloats(h, float64(fc.HoldViolations), float64(fc.SetupViolations),
		fc.HoldPS, fc.SetupPS, float64(fc.FixBuffers))
	check("fix-cost", h, wantFixCostDigest)
}
