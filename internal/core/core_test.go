package core

import (
	"bytes"
	"context"
	"math"
	"math/rand"
	"strings"
	"testing"

	"skewvar/internal/ctree"
	"skewvar/internal/eco"
	"skewvar/internal/fit"
	"skewvar/internal/geom"
	"skewvar/internal/legalize"
	"skewvar/internal/lut"
	"skewvar/internal/sta"
	"skewvar/internal/tech"
	"skewvar/internal/testgen"
)

var (
	cachedTech *tech.Tech
	cachedChar *lut.Char
)

func testTech(t *testing.T) (*tech.Tech, *lut.Char) {
	t.Helper()
	if cachedTech == nil {
		cachedTech = tech.Default28nm()
		cachedChar = lut.Characterize(cachedTech)
	}
	return cachedTech, cachedChar
}

func smallDesign(t *testing.T, nFF int) (*ctree.Design, *sta.Timer) {
	t.Helper()
	base, _ := testTech(t)
	d, tm, err := testgen.Build(base, testgen.CLS1v1(nFF))
	if err != nil {
		t.Fatal(err)
	}
	return d, tm
}

func cheapModel(t *testing.T, th *tech.Tech) *MLStageModel {
	t.Helper()
	m, err := TrainStageModel(context.Background(), th, TrainConfig{
		Cases: 8, MovesPerCase: 8, Kind: "ridge", Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestEstModeStrings(t *testing.T) {
	for m := EstMode(0); m < NumEstModes; m++ {
		if m.String() == "" || m.String() == "EstMode(?)" {
			t.Errorf("mode %d has no name", m)
		}
	}
	if EstMode(99).String() != "EstMode(?)" {
		t.Error("unknown mode string")
	}
}

func TestStageFeaturesShape(t *testing.T) {
	th, _ := testTech(t)
	tr := ctree.NewTree(geom.Pt(0, 0), "CKINVX16")
	b := tr.AddNode(ctree.KindBuffer, geom.Pt(100, 100), "CKINVX4", tr.Source)
	var sinks []ctree.NodeID
	for i := 0; i < 5; i++ {
		s := tr.AddNode(ctree.KindSink, geom.Pt(150+float64(10*i), 80+float64(15*i)), "", b.ID)
		sinks = append(sinks, s.ID)
	}
	rows := StageFeatures(th, tr, b.ID, tr.FanoutPins(b.ID), []float64{40}, nil)
	if len(rows) != len(sinks)*numStageFeatures {
		t.Fatalf("features = %d", len(rows))
	}
	feats := rows[2*numStageFeatures : 3*numStageFeatures]
	for m := 0; m < 4; m++ {
		if feats[m] <= 0 {
			t.Errorf("estimate %d = %v", m, feats[m])
		}
	}
	if feats[4] != 5 {
		t.Errorf("fanout = %v", feats[4])
	}
	if feats[5] <= 0 || feats[6] <= 0 || feats[6] > 1 {
		t.Errorf("bbox area/AR = %v/%v", feats[5], feats[6])
	}
	// Elmore upper-bounds D2M for the same topology.
	if feats[RSMTD2M] > feats[RSMTElmore]+1e-9 {
		t.Error("RSMT D2M exceeds Elmore")
	}
	if feats[TrunkD2M] > feats[TrunkElmore]+1e-9 {
		t.Error("Trunk D2M exceeds Elmore")
	}
	// Unknown driver cell → zero features, no panic.
	u := tr.AddNode(ctree.KindBuffer, geom.Pt(60, 60), "NOSUCHCELL", tr.Source)
	tr.AddNode(ctree.KindSink, geom.Pt(70, 60), "", u.ID)
	for _, v := range StageFeatures(th, tr, u.ID, tr.FanoutPins(u.ID), []float64{40}, nil) {
		if v != 0 {
			t.Error("unknown driver cell produced features")
		}
	}
}

func TestStageFeaturesTrackGolden(t *testing.T) {
	// The analytic estimates should correlate strongly with golden stage
	// delays across random training nets.
	th, _ := testTech(t)
	rng := rand.New(rand.NewSource(21))
	tm := sta.New(th)
	var est, golden []float64
	for i := 0; i < 15; i++ {
		tc := testgen.NewTrainingCase(th, rng)
		a := tm.Analyze(tc.Tree)
		d := tc.Target
		pins := tc.Tree.FanoutPins(d)
		rows := StageFeatures(th, tc.Tree, d, pins, []float64{a.Slew[0][d]}, nil)
		for i, pin := range pins {
			est = append(est, rows[i*numStageFeatures+int(RSMTD2M)])
			golden = append(golden, GoldenStageDelay(a, d, pin, 0))
		}
	}
	if r := fit.Pearson(est, golden); r < 0.9 {
		t.Errorf("estimate/golden correlation = %v", r)
	}
}

func TestAffectedStagesPerMoveType(t *testing.T) {
	th, _ := testTech(t)
	tr := ctree.NewTree(geom.Pt(0, 0), "CKINVX16")
	top := tr.AddNode(ctree.KindBuffer, geom.Pt(100, 100), "CKINVX8", tr.Source)
	b1 := tr.AddNode(ctree.KindBuffer, geom.Pt(200, 110), "CKINVX4", top.ID)
	b2 := tr.AddNode(ctree.KindBuffer, geom.Pt(200, 90), "CKINVX4", top.ID)
	s1 := tr.AddNode(ctree.KindSink, geom.Pt(220, 110), "", b1.ID)
	tr.AddNode(ctree.KindSink, geom.Pt(220, 90), "", b2.ID)
	_ = th

	numStages := func(nets []netStages) int {
		n := 0
		for _, net := range nets {
			n += len(net.pins)
		}
		return n
	}
	stI := affectedStages(tr, eco.Move{Type: eco.TypeI, Buffer: b1.ID})
	// top's net (2 pins) + b1's net (1 pin).
	if numStages(stI) != 3 {
		t.Errorf("Type I stages = %v", stI)
	}
	stII := affectedStages(tr, eco.Move{Type: eco.TypeII, Buffer: top.ID, Child: b1.ID})
	// source net (1 pin: top) + top net (2) + b1 net (1).
	if numStages(stII) != 4 {
		t.Errorf("Type II stages = %v", stII)
	}
	// Surgery: move s1 to b2, then inspect post-tree stages.
	post := tr.Clone()
	if err := post.ReassignParent(s1.ID, b2.ID); err != nil {
		t.Fatal(err)
	}
	stIII := affectedStages(post, eco.Move{Type: eco.TypeIII, Buffer: b1.ID, Child: s1.ID, NewDrv: b2.ID})
	// b1's net (now 0 pins) + b2's net (2 pins).
	if numStages(stIII) != 2 {
		t.Errorf("Type III stages = %v", stIII)
	}
}

func TestBuildDatasetAndModelBeatsAnalytic(t *testing.T) {
	th, _ := testTech(t)
	ds, err := BuildDataset(context.Background(), th, 10, 10, 31)
	if err != nil {
		t.Fatalf("BuildDataset: %v", err)
	}
	if ds.Len() < 100 {
		t.Fatalf("dataset too small: %d", ds.Len())
	}
	if len(ds.X) != th.NumCorners() {
		t.Fatalf("corners = %d", len(ds.X))
	}
	model, err := TrainOnDataset(context.Background(), th, ds, TrainConfig{Kind: "ridge", Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Held-out evaluation: the trained model must beat every raw analytic
	// estimator (the paper's Figure 5/6 claim).
	hold, err := BuildDataset(context.Background(), th, 4, 8, 99)
	if err != nil {
		t.Fatalf("BuildDataset: %v", err)
	}
	accs := EvaluateStageModel(model, hold)
	for k, acc := range accs {
		mlErr := fit.RMSE(acc.Predicted, acc.Actual)
		for m := EstMode(0); m < NumEstModes; m++ {
			base := EvaluateStageModel(&AnalyticStageModel{Mode: m}, hold)[k]
			aErr := fit.RMSE(base.Predicted, base.Actual)
			if mlErr > aErr {
				t.Errorf("corner %d: ML RMSE %v worse than %v RMSE %v", k, mlErr, m, aErr)
			}
		}
	}
}

func TestTrainErrors(t *testing.T) {
	th, _ := testTech(t)
	if _, err := TrainOnDataset(context.Background(), th, &Dataset{}, TrainConfig{Kind: "ridge"}); err == nil {
		t.Error("empty dataset accepted")
	}
	ds, err := BuildDataset(context.Background(), th, 2, 3, 1)
	if err != nil {
		t.Fatalf("BuildDataset: %v", err)
	}
	if _, err := TrainOnDataset(context.Background(), th, ds, TrainConfig{Kind: "nope"}); err == nil {
		t.Error("unknown kind accepted")
	}
}

func TestLocalOptImproves(t *testing.T) {
	d, tm := smallDesign(t, 150)
	model := cheapModel(t, tm.Tech)
	a0 := tm.Analyze(d.Tree)
	pairs := d.TopPairs(0)
	alphas := sta.Alphas(a0, pairs)
	res, err := LocalOpt(context.Background(), tm, d, alphas, LocalConfig{
		Model: model, MaxIters: 6, MaxMoves: 800, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.SumVar > res.SumVar0 {
		t.Errorf("local opt worsened ΣV: %v → %v", res.SumVar0, res.SumVar)
	}
	if err := res.Tree.Validate(); err != nil {
		t.Fatal(err)
	}
	// Local skew must not degrade (checked against the analysis).
	aN := tm.Analyze(res.Tree)
	for k := 0; k < aN.K; k++ {
		if sta.MaxAbsSkew(aN, k, pairs) > sta.SkewGuard(sta.MaxAbsSkew(a0, k, pairs)) {
			t.Errorf("corner %d local skew degraded", k)
		}
	}
	// Records are consistent: strictly decreasing ΣV.
	last := res.SumVar0
	for _, r := range res.Records {
		if r.SumVar >= last {
			t.Errorf("iteration %d did not reduce ΣV", r.Iter)
		}
		last = r.SumVar
	}
	if res.MovesPred == 0 {
		t.Error("no moves predicted")
	}
}

func TestLocalOptErrors(t *testing.T) {
	d, tm := smallDesign(t, 150)
	if _, err := LocalOpt(context.Background(), tm, d, []float64{1, 1, 1}, LocalConfig{}); err == nil {
		t.Error("missing model accepted")
	}
	bad := &MLStageModel{Kind: "x"}
	if _, err := LocalOpt(context.Background(), tm, d, []float64{1, 1, 1}, LocalConfig{Model: bad}); err == nil {
		t.Error("under-provisioned model accepted")
	}
}

func TestGlobalOptImproves(t *testing.T) {
	d, tm := smallDesign(t, 150)
	_, ch := testTech(t)
	a0 := tm.Analyze(d.Tree)
	pairs := d.TopPairs(0)
	alphas := sta.Alphas(a0, pairs)
	res, err := GlobalOpt(context.Background(), tm, ch, d, alphas, GlobalConfig{
		TopPairs: 120, MaxPairsPerLP: 40, MaxArcsPerLP: 90,
		USweep: []float64{0.8},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Tree.Validate(); err != nil {
		t.Fatal(err)
	}
	if res.SumVar > res.SumVar0+1e-9 {
		t.Errorf("global opt worsened ΣV: %v → %v", res.SumVar0, res.SumVar)
	}
	if len(res.LPStats) == 0 {
		t.Error("no LP stats recorded")
	}
	// No design-rule violations introduced (paper footnote 8).
	cv, sv := tm.Violations(res.Tree)
	if cv != 0 || sv != 0 {
		t.Errorf("violations after global opt: cap=%d slew=%d", cv, sv)
	}
}

func TestSnapshotAndRunFlows(t *testing.T) {
	if testing.Short() {
		t.Skip("full flow in short mode")
	}
	d, tm := smallDesign(t, 120)
	_, ch := testTech(t)
	model := cheapModel(t, tm.Tech)
	res, err := RunFlows(context.Background(), tm, ch, d, model, FlowConfig{
		TopPairs: 150,
		Global: GlobalConfig{
			MaxPairsPerLP: 40, MaxArcsPerLP: 80, USweep: []float64{0.8},
		},
		Local: LocalConfig{MaxIters: 4, MaxMoves: 600, Seed: 11},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Orig.Norm != 1 {
		t.Error("orig norm != 1")
	}
	// Paper-shape assertions: every flow ≤ original; global-local is the
	// best flow overall (allowing a whisker of tolerance).
	if res.Global.SumVarPS > res.Orig.SumVarPS+1e-6 {
		t.Error("global worse than orig")
	}
	if res.Local.SumVarPS > res.Orig.SumVarPS+1e-6 {
		t.Error("local worse than orig")
	}
	if res.GLocal.SumVarPS > res.Global.SumVarPS+1e-6 {
		t.Error("global-local worse than global alone")
	}
	// Power/area overhead must be small (paper: negligible).
	if res.GLocal.PowerMW > res.Orig.PowerMW*1.15 {
		t.Errorf("power overhead too large: %v → %v", res.Orig.PowerMW, res.GLocal.PowerMW)
	}
	for k, s := range res.GLocal.SkewPS {
		if s > sta.SkewGuard(res.Orig.SkewPS[k]) {
			t.Errorf("corner %d local skew degraded: %v → %v", k, res.Orig.SkewPS[k], s)
		}
	}
}

func TestAnalyticBaselines(t *testing.T) {
	bs := AnalyticBaselines()
	if len(bs) != int(NumEstModes) {
		t.Fatalf("baselines = %d", len(bs))
	}
	feats := make([]float64, NumFeatures)
	feats[FeatPostBase+int(TrunkD2M)] = 142
	feats[FeatGoldenPre] = 100
	if v := bs[TrunkD2M].PredictDelta(0, feats); v != 42 {
		t.Errorf("analytic (absolute) predict = %v", v)
	}
	feats[TrunkD2M] = 37
	db := DeltaBaselines()
	if v := db[TrunkD2M].PredictDelta(0, feats); v != 37 {
		t.Errorf("analytic (delta) predict = %v", v)
	}
	if db[0].Name() == bs[0].Name() {
		t.Error("baseline names collide")
	}
	if bs[0].Name() == "" {
		t.Error("baseline name empty")
	}
	m := math.NaN()
	_ = m
}

// TestLocalOptIncrementalMatchesFullSTA checks the incremental timing
// behind every golden trial of LocalOpt: for each move eco.Enumerate
// lists, re-timing only the nodes moveDirty names must give the ΣV of a
// full analysis of the moved tree, up to the incremental timer's
// slew-convergence drift.
func TestLocalOptIncrementalMatchesFullSTA(t *testing.T) {
	const tolPS = 0.25 // the worst drift on this design is 0.08 ps
	d, tm := smallDesign(t, 150)
	a := tm.Analyze(d.Tree)
	pairs := d.TopPairs(0)
	alphas := sta.Alphas(a, pairs)
	lg := legalize.New(d.Die, tm.Tech.SiteW, tm.Tech.RowH)
	checked := map[eco.MoveType]int{}
	worst := 0.0
	for _, buf := range d.Tree.Buffers() {
		for _, mv := range eco.Enumerate(d.Tree, tm.Tech, buf, d.Die) {
			// The trial LocalOpt runs: a copy-on-write clone, the move,
			// the invariant check.
			t2 := d.Tree.CloneShared(mutableForMove(d.Tree, mv)...)
			if eco.Apply(t2, tm.Tech, lg, mv) != nil || t2.Validate() != nil {
				continue
			}
			inc := tm.AnalyzeIncremental(t2, a, moveDirty(mv))
			full := tm.Analyze(t2)
			gap := math.Abs(sta.SumVariation(inc, alphas, pairs) - sta.SumVariation(full, alphas, pairs))
			inc.Release()
			full.Release()
			if gap > tolPS {
				t.Fatalf("move %s: incremental ΣV is %.3f ps off the full analysis; want ≤ %.2f ps", mv, gap, tolPS)
			}
			worst = math.Max(worst, gap)
			checked[mv.Type]++
		}
	}
	t.Logf("checked %d Type I, %d Type II and %d Type III moves; worst ΣV gap %.4f ps",
		checked[eco.TypeI], checked[eco.TypeII], checked[eco.TypeIII], worst)
	for _, typ := range []eco.MoveType{eco.TypeI, eco.TypeII, eco.TypeIII} {
		if checked[typ] == 0 {
			t.Errorf("no Type %s move applied, so none was checked", typ)
		}
	}
}

func TestRunFlowsErrors(t *testing.T) {
	d, tm := smallDesign(t, 150)
	_, ch := testTech(t)
	model := cheapModel(t, tm.Tech)
	empty := d.Clone()
	empty.Pairs = nil
	if _, err := RunFlows(context.Background(), tm, ch, empty, model, FlowConfig{}); err == nil {
		t.Error("empty pair set accepted")
	}
}

func TestGlobalOptErrors(t *testing.T) {
	d, tm := smallDesign(t, 150)
	_, ch := testTech(t)
	empty := d.Clone()
	empty.Pairs = nil
	if _, err := GlobalOpt(context.Background(), tm, ch, empty, []float64{1, 1, 1}, GlobalConfig{}); err == nil {
		t.Error("empty pair set accepted")
	}
}

func TestSnapshotMetrics(t *testing.T) {
	d, tm := smallDesign(t, 150)
	pairs := d.TopPairs(0)
	a := tm.Analyze(d.Tree)
	al := sta.Alphas(a, pairs)
	m := Snapshot(tm, d.Tree, pairs, al)
	if m.SumVarPS <= 0 || m.NumCells <= 0 || m.PowerMW <= 0 || m.AreaUM2 <= 0 {
		t.Errorf("snapshot = %+v", m)
	}
	if len(m.SkewPS) != tm.Tech.NumCorners() {
		t.Errorf("skew corners = %d", len(m.SkewPS))
	}
}

func TestStageModelPersistRoundTrip(t *testing.T) {
	th, _ := testTech(t)
	m := cheapModel(t, th)
	var buf bytes.Buffer
	if err := SaveStageModel(&buf, m); err != nil {
		t.Fatal(err)
	}
	m2, err := LoadStageModel(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if m2.Kind != m.Kind || len(m2.Models) != len(m.Models) || len(m2.Shrink) != len(m.Shrink) {
		t.Fatalf("round trip mismatch: %+v", m2)
	}
	feats := make([]float64, NumFeatures)
	feats[RSMTD2M] = 12
	feats[FeatSlew] = 40
	for k := range m.Models {
		if m.PredictDelta(k, feats) != m2.PredictDelta(k, feats) {
			t.Fatal("predictions differ after round trip")
		}
	}
	// Errors.
	if _, err := LoadStageModel(strings.NewReader("junk")); err == nil {
		t.Error("junk accepted")
	}
	if _, err := LoadStageModel(strings.NewReader(`{"kind":"x","bundle":{"kind":"ridge","models":[]}}`)); err == nil {
		t.Error("kind mismatch/empty accepted")
	}
}
