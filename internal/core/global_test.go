package core

import (
	"context"
	"math"
	"testing"

	"skewvar/internal/ctree"
	"skewvar/internal/eco"
	"skewvar/internal/geom"
	"skewvar/internal/legalize"
	"skewvar/internal/lp"
	"skewvar/internal/sta"
	"skewvar/internal/testgen"
)

func TestPartitionPairs(t *testing.T) {
	tr := ctree.NewTree(geom.Pt(0, 0), "CKINVX16")
	b := tr.AddNode(ctree.KindBuffer, geom.Pt(50, 50), "CKINVX4", tr.Source)
	var sinks []ctree.NodeID
	for i := 0; i < 10; i++ {
		s := tr.AddNode(ctree.KindSink, geom.Pt(float64(i)*500, float64(i%2)*500), "", b.ID)
		sinks = append(sinks, s.ID)
	}
	var pairs []ctree.SinkPair
	for i := 0; i+1 < len(sinks); i++ {
		pairs = append(pairs, ctree.SinkPair{A: sinks[i], B: sinks[i+1], Crit: float64(i)})
	}
	blocks := partitionPairs(tr, pairs, 3)
	total := 0
	for _, blk := range blocks {
		if len(blk) > 3 {
			t.Errorf("block size %d > 3", len(blk))
		}
		total += len(blk)
	}
	if total != len(pairs) {
		t.Errorf("partition lost pairs: %d of %d", total, len(pairs))
	}
	// Single block when the cap covers everything.
	if got := partitionPairs(tr, pairs, 100); len(got) != 1 {
		t.Errorf("blocks = %d, want 1", len(got))
	}
}

func TestGateProfileNormalized(t *testing.T) {
	th, ch := testTech(t)
	lg := legalize.New(geom.NewRect(geom.Pt(0, 0), geom.Pt(1000, 1000)), th.SiteW, th.RowH)
	reb := eco.NewRebuilder(th, ch, lg)
	tr := ctree.NewTree(geom.Pt(0, 500), "CKINVX16")
	b1 := tr.AddNode(ctree.KindBuffer, geom.Pt(150, 500), "CKINVX2", tr.Source)
	s := tr.AddNode(ctree.KindSink, geom.Pt(300, 500), "", b1.ID)
	_ = s
	seg := ctree.Segment(tr)
	prof := gateProfile(reb, tr, seg.Arcs[0])
	if len(prof) != th.NumCorners() {
		t.Fatalf("profile len = %d", len(prof))
	}
	if math.Abs(prof[th.Nominal]-1) > 1e-9 {
		t.Errorf("nominal profile = %v, want 1", prof[th.Nominal])
	}
	// Slow corner factor > 1, fast corner < 1.
	if !(prof[1] > 1 && prof[3] < 1) {
		t.Errorf("profile not corner-ordered: %v", prof)
	}
}

func TestArcKnobsDeltaAndAppend(t *testing.T) {
	// Parameterized mode.
	prob := lp.NewProblem()
	v := &arcKnobs{
		slopeW: []float64{0.1, 0.2},
		prof:   []float64{1.0, 1.8},
	}
	v.wp = prob.AddVar(0, 100, 1, "")
	v.wm = prob.AddVar(0, 100, 1, "")
	v.gp = prob.AddVar(0, 100, 1, "")
	v.gm = prob.AddVar(0, 100, 1, "")
	sol := &lp.Solution{X: []float64{30, 10, 5, 2}} // w=20, g=3
	if d := v.delta(sol, 0); math.Abs(d-(0.1*20+1.0*3)) > 1e-12 {
		t.Errorf("delta c0 = %v", d)
	}
	if d := v.delta(sol, 1); math.Abs(d-(0.2*20+1.8*3)) > 1e-12 {
		t.Errorf("delta c1 = %v", d)
	}
	var idx []int
	var coef []float64
	v.appendDelta(1, 2.0, &idx, &coef)
	if len(idx) != 4 || coef[0] != 2*0.2 || coef[2] != 2*1.8 {
		t.Errorf("appendDelta = %v %v", idx, coef)
	}
	// Free mode.
	f := &arcKnobs{dp: []int{0, 1}, dm: []int{2, 3}}
	solF := &lp.Solution{X: []float64{7, 1, 3, 0}}
	if d := f.delta(solF, 0); d != 4 {
		t.Errorf("free delta = %v", d)
	}
	idx, coef = nil, nil
	f.appendDelta(0, -1, &idx, &coef)
	if len(idx) != 2 || coef[0] != -1 || coef[1] != 1 {
		t.Errorf("free appendDelta = %v %v", idx, coef)
	}
}

func TestRebuildEndLoadKinds(t *testing.T) {
	d, tm := smallDesign(t, 150)
	tr := d.Tree
	// Sink bottom.
	var sink, buf, tap ctree.NodeID = ctree.NoNode, ctree.NoNode, ctree.NoNode
	for _, id := range tr.Topo() {
		switch tr.Node(id).Kind {
		case ctree.KindSink:
			if sink == ctree.NoNode {
				sink = id
			}
		case ctree.KindBuffer:
			if buf == ctree.NoNode && id != tr.Source {
				buf = id
			}
		case ctree.KindTap:
			if tap == ctree.NoNode {
				tap = id
			}
		}
	}
	if got := rebuildEndLoad(tm, tr, sink); got != tm.Tech.SinkCap {
		t.Errorf("sink end load = %v", got)
	}
	cell := tm.Tech.CellByName(tr.Node(buf).CellName)
	if got := rebuildEndLoad(tm, tr, buf); got != cell.InCap {
		t.Errorf("buffer end load = %v", got)
	}
	if tap != ctree.NoNode {
		if got := rebuildEndLoad(tm, tr, tap); got <= 0 {
			t.Errorf("tap end load = %v", got)
		}
	}
}

func TestGlobalOptFreeDeltaAblation(t *testing.T) {
	d, tm := smallDesign(t, 150)
	_, ch := testTech(t)
	a0 := tm.Analyze(d.Tree)
	pairs := d.TopPairs(0)
	alphas := sta.Alphas(a0, pairs)
	res, err := GlobalOpt(context.Background(), tm, ch, d, alphas, GlobalConfig{
		TopPairs: 60, MaxArcsPerLP: 80, USweep: []float64{0.8}, FreeDelta: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Tree.Validate(); err != nil {
		t.Fatal(err)
	}
	// The free-Δ formulation must never make things worse (golden gating).
	if res.SumVar > res.SumVar0+1e-9 {
		t.Errorf("free-Δ worsened ΣV: %v → %v", res.SumVar0, res.SumVar)
	}
}

// TestGlobalNoNegativeDetour replays a CLS2v1 design, written and read
// back as a document, whose global sweep rebuilt an arc with a detour
// rounded a hair below zero: the sweep tree failed Validate, GlobalOpt
// dropped it as tree-corrupt, and the flow ended Degraded.
func TestGlobalNoNegativeDetour(t *testing.T) {
	base, ch := testTech(t)
	v := testgen.CLS2v1(80)
	v.Seed = 15335
	gd, _, err := testgen.Build(base, v)
	if err != nil {
		t.Fatal(err)
	}
	d, tm := readBack(t, gd)
	res, err := RunFlows(context.Background(), tm, ch, d, nil, FlowConfig{
		TopPairs: 24, Global: GlobalConfig{MaxPairsPerLP: 24}, Only: []string{"global"}, Workers: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Degraded {
		t.Errorf("flow degraded: faults %v", res.Faults)
	}
	if err := res.Trees["global"].Validate(); err != nil {
		t.Errorf("global tree invalid: %v", err)
	}
}

// maxGlobalOptAllocs is the allocation ceiling of one GlobalOpt on
// BenchmarkGlobalOpt's shape, a quarter above the 21,770 allocations it
// made once the block LP's rows shared one index/coefficient buffer
// (29,956 before, and 226,189 before ECO realization stopped cloning the
// tree per arc, dropping its analyses and allocating per search candidate).
const maxGlobalOptAllocs = 27213

// TestGlobalOptAllocBudget runs the global stage on BenchmarkGlobalOpt's
// shape: CLS1v1 with 160 flip-flops, its top 60 sink pairs in one LP
// block, one worker.
func TestGlobalOptAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates on alloc-free paths")
	}
	base, ch := testTech(t)
	d, tm, err := testgen.Build(base, testgen.CLS1v1(160))
	if err != nil {
		t.Fatal(err)
	}
	pairs := d.TopPairs(60)
	a := tm.Analyze(d.Tree)
	alphas := sta.Alphas(a, pairs)
	a.Release()
	cfg := GlobalConfig{TopPairs: 60, MaxPairsPerLP: 60}
	allocs := testing.AllocsPerRun(1, func() {
		if _, err := GlobalOpt(context.Background(), tm, ch, d, alphas, cfg); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("GlobalOpt(CLS1v1(160), 60 pairs): %.0f allocations (ceiling %d)", allocs, maxGlobalOptAllocs)
	if allocs > maxGlobalOptAllocs {
		t.Errorf("GlobalOpt makes %.0f allocations, ceiling %d", allocs, maxGlobalOptAllocs)
	}
}
