package sta

import (
	"math"
	"testing"

	"skewvar/internal/ctree"
	"skewvar/internal/geom"
	"skewvar/internal/route"
	"skewvar/internal/tech"
)

// balancedTree builds a symmetric two-level tree with four sinks.
func balancedTree() (*ctree.Tree, []ctree.NodeID) {
	tr := ctree.NewTree(geom.Pt(0, 0), "CKINVX8")
	left := tr.AddNode(ctree.KindBuffer, geom.Pt(-100, 0), "CKINVX4", tr.Source)
	right := tr.AddNode(ctree.KindBuffer, geom.Pt(100, 0), "CKINVX4", tr.Source)
	var sinks []ctree.NodeID
	for _, cfg := range []struct {
		p   ctree.NodeID
		off float64
	}{{left.ID, -100}, {right.ID, 100}} {
		for _, dy := range []float64{-50, 50} {
			s := tr.AddNode(ctree.KindSink, geom.Pt(cfg.off*2, dy), "", cfg.p)
			sinks = append(sinks, s.ID)
		}
	}
	return tr, sinks
}

// skewedTree builds an intentionally unbalanced tree: one sink near the
// source, one far away behind extra buffers.
func skewedTree() (*ctree.Tree, ctree.NodeID, ctree.NodeID) {
	tr := ctree.NewTree(geom.Pt(0, 0), "CKINVX8")
	near := tr.AddNode(ctree.KindSink, geom.Pt(30, 0), "", tr.Source)
	b1 := tr.AddNode(ctree.KindBuffer, geom.Pt(150, 0), "CKINVX2", tr.Source)
	b2 := tr.AddNode(ctree.KindBuffer, geom.Pt(300, 0), "CKINVX2", b1.ID)
	far := tr.AddNode(ctree.KindSink, geom.Pt(450, 0), "", b2.ID)
	return tr, near.ID, far.ID
}

func TestAnalyzeBalancedTreeSymmetry(t *testing.T) {
	th := tech.Default28nm()
	tm := New(th)
	tr, sinks := balancedTree()
	a := tm.Analyze(tr)
	if a.K != 4 {
		t.Fatalf("K = %d", a.K)
	}
	for k := 0; k < a.K; k++ {
		l0 := a.Latency(k, sinks[0])
		for _, s := range sinks[1:] {
			if math.Abs(a.Latency(k, s)-l0) > 1e-9 {
				t.Errorf("corner %d: asymmetric latency %v vs %v", k, a.Latency(k, s), l0)
			}
		}
		if l0 <= 0 || math.IsNaN(l0) {
			t.Errorf("corner %d: bad latency %v", k, l0)
		}
		if a.MaxLat[k] != l0 {
			t.Errorf("corner %d: MaxLat %v != %v", k, a.MaxLat[k], l0)
		}
	}
	// Corner ordering: c1 slowest, c3 fastest.
	if !(a.Latency(1, sinks[0]) > a.Latency(0, sinks[0]) &&
		a.Latency(0, sinks[0]) > a.Latency(2, sinks[0]) &&
		a.Latency(2, sinks[0]) > a.Latency(3, sinks[0])) {
		t.Error("corner latency ordering violated")
	}
}

func TestSkewSignAndMagnitude(t *testing.T) {
	th := tech.Default28nm()
	tm := New(th)
	tr, near, far := skewedTree()
	a := tm.Analyze(tr)
	for k := 0; k < a.K; k++ {
		if a.Latency(k, far) <= a.Latency(k, near) {
			t.Errorf("corner %d: far sink not later", k)
		}
		if s := a.Skew(k, far, near); s <= 0 {
			t.Errorf("corner %d: skew(far,near) = %v", k, s)
		}
	}
	pairs := []ctree.SinkPair{{A: far, B: near, Crit: 1}}
	if m := MaxAbsSkew(a, 0, pairs); m != a.Skew(0, far, near) {
		t.Errorf("MaxAbsSkew = %v", m)
	}
}

func TestCongestionIncreasesLatency(t *testing.T) {
	th := tech.Default28nm()
	tr, _, far := skewedTree()
	ideal := New(th)
	cong := New(th)
	cong.Cong = route.NewCongestion(geom.NewRect(geom.Pt(-10, -10), geom.Pt(500, 10)), 6, 2, 0.3, 99)
	ai := ideal.Analyze(tr)
	ac := cong.Analyze(tr)
	if ac.Latency(0, far) <= ai.Latency(0, far) {
		t.Error("congestion did not increase latency")
	}
}

func TestDetourIncreasesLatency(t *testing.T) {
	th := tech.Default28nm()
	tm := New(th)
	tr, _, far := skewedTree()
	base := tm.Analyze(tr).Latency(0, far)
	tr.Node(far).Detour = 200
	after := tm.Analyze(tr).Latency(0, far)
	if after <= base {
		t.Errorf("detour did not slow the sink: %v vs %v", after, base)
	}
}

func TestPairDelayBasics(t *testing.T) {
	th := tech.Default28nm()
	cell := th.CellByName("CKINVX4")
	d1, s1 := PairDelay(th, cell, 0, 30, 20)
	d2, s2 := PairDelay(th, cell, 0, 30, 60)
	if d2 <= d1 || s2 <= s1 {
		t.Error("pair delay/slew not increasing in load")
	}
	dSlow, _ := PairDelay(th, cell, 1, 30, 20)
	if dSlow <= d1 {
		t.Error("c1 pair delay not slower than c0")
	}
}

func TestAlphasProperties(t *testing.T) {
	th := tech.Default28nm()
	tm := New(th)
	tr, near, far := skewedTree()
	a := tm.Analyze(tr)
	pairs := []ctree.SinkPair{{A: far, B: near}}
	al := Alphas(a, pairs)
	if al[0] != 1 {
		t.Errorf("α0 = %v", al[0])
	}
	// c1 has larger skews → α1 < 1; c3 smaller skews → α3 > 1.
	if al[1] >= 1 {
		t.Errorf("α1 = %v, want < 1", al[1])
	}
	if al[3] <= 1 {
		t.Errorf("α3 = %v, want > 1", al[3])
	}
	// α normalizes: α_k·skew_k should be near skew_0 for this single pair.
	s0 := a.Skew(0, far, near)
	s1n := al[1] * a.Skew(1, far, near)
	if math.Abs(s1n-s0) > 1e-6 {
		t.Errorf("normalized skew %v != %v (single pair should normalize exactly)", s1n, s0)
	}
	// Empty/degenerate pairs fall back to 1.
	al2 := Alphas(a, nil)
	for _, v := range al2 {
		if v != 1 {
			t.Errorf("degenerate alphas = %v", al2)
		}
	}
}

func TestVariationMetrics(t *testing.T) {
	th := tech.Default28nm()
	tm := New(th)
	tr, near, far := skewedTree()
	a := tm.Analyze(tr)
	pairs := []ctree.SinkPair{{A: far, B: near}}
	al := Alphas(a, pairs)
	v := PairVariation(a, al, pairs[0])
	if v < 0 {
		t.Errorf("variation = %v", v)
	}
	if sv := SumVariation(a, al, pairs); math.Abs(sv-v) > 1e-12 {
		t.Errorf("SumVariation = %v, want %v", sv, v)
	}
	// A perfectly balanced tree has ~zero skew and ~zero variation.
	trB, sinks := balancedTree()
	aB := tm.Analyze(trB)
	pB := []ctree.SinkPair{{A: sinks[0], B: sinks[3]}}
	alB := Alphas(aB, pB)
	if sv := SumVariation(aB, alB, pB); sv > 1e-6 {
		t.Errorf("balanced tree variation = %v", sv)
	}
}

func TestSkewRatios(t *testing.T) {
	th := tech.Default28nm()
	tm := New(th)
	tr, near, far := skewedTree()
	a := tm.Analyze(tr)
	pairs := []ctree.SinkPair{{A: far, B: near}}
	r := SkewRatios(a, 1, pairs, 0.1)
	if len(r) != 1 {
		t.Fatalf("ratios = %v", r)
	}
	if r[0] <= 1 {
		t.Errorf("c1/c0 skew ratio = %v, want > 1 (c1 slower)", r[0])
	}
	// Below-threshold pairs are skipped.
	if got := SkewRatios(a, 1, pairs, 1e9); len(got) != 0 {
		t.Errorf("threshold not applied: %v", got)
	}
}

func TestArcDelays(t *testing.T) {
	th := tech.Default28nm()
	tm := New(th)
	tr, _, far := skewedTree()
	seg := ctree.Segment(tr)
	a := tm.Analyze(tr)
	ad := ArcDelays(a, seg)
	if len(ad) != len(seg.Arcs) {
		t.Fatalf("arc delay rows = %d", len(ad))
	}
	// Sum of arc delays along the path to far must equal its latency.
	path, err := seg.PathArcs(tr, far)
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < a.K; k++ {
		var sum float64
		for _, ai := range path {
			sum += ad[ai][k]
		}
		if math.Abs(sum-a.Latency(k, far)) > 1e-9 {
			t.Errorf("corner %d: path arc sum %v != latency %v", k, sum, a.Latency(k, far))
		}
	}
}

func TestViolations(t *testing.T) {
	th := tech.Default28nm()
	tm := New(th)
	tr, _ := balancedTree()
	cv, sv := tm.Violations(tr)
	if cv != 0 || sv != 0 {
		t.Errorf("clean tree has violations: cap=%d slew=%d", cv, sv)
	}
	// A tiny driver with a huge far sink must violate something.
	bad := ctree.NewTree(geom.Pt(0, 0), "CKINVX1")
	for i := 0; i < 40; i++ {
		bad.AddNode(ctree.KindSink, geom.Pt(900, float64(i*10)), "", bad.Source)
	}
	cv2, sv2 := tm.Violations(bad)
	if cv2 == 0 && sv2 == 0 {
		t.Error("overloaded net reported clean")
	}
}

func TestNetLoadMatchesPinsAndWire(t *testing.T) {
	th := tech.Default28nm()
	tm := New(th)
	tr := ctree.NewTree(geom.Pt(0, 0), "CKINVX8")
	tr.AddNode(ctree.KindSink, geom.Pt(100, 0), "", tr.Source)
	load := tm.NetLoad(tr, tr.Source, 0)
	want := th.SinkCap + 100*th.WireC(0)
	if math.Abs(load-want) > 1e-9 {
		t.Errorf("NetLoad = %v, want %v", load, want)
	}
}

func TestAnalyzePanicsOnUnknownCell(t *testing.T) {
	th := tech.Default28nm()
	tm := New(th)
	tr := ctree.NewTree(geom.Pt(0, 0), "NOPE")
	tr.AddNode(ctree.KindSink, geom.Pt(10, 0), "", tr.Source)
	defer func() {
		if recover() == nil {
			t.Error("no panic on unknown cell")
		}
	}()
	tm.Analyze(tr)
}

func TestTapTransparency(t *testing.T) {
	// A tap between source and sink must not change topology semantics:
	// latency through tap chain == latency with direct wire of same total
	// length (same RC, same Steiner point).
	th := tech.Default28nm()
	tm := New(th)
	tr1 := ctree.NewTree(geom.Pt(0, 0), "CKINVX8")
	tap := tr1.AddNode(ctree.KindTap, geom.Pt(50, 0), "", tr1.Source)
	s1 := tr1.AddNode(ctree.KindSink, geom.Pt(100, 0), "", tap.ID)
	tr2 := ctree.NewTree(geom.Pt(0, 0), "CKINVX8")
	s2 := tr2.AddNode(ctree.KindSink, geom.Pt(100, 0), "", tr2.Source)
	a1 := tm.Analyze(tr1)
	a2 := tm.Analyze(tr2)
	// Two π-segments per edge vs one edge: small discretization difference
	// allowed.
	d1, d2 := a1.Latency(0, s1.ID), a2.Latency(0, s2.ID)
	if math.Abs(d1-d2) > 0.5 {
		t.Errorf("tap chain latency %v differs from direct %v", d1, d2)
	}
	// Arrival at the tap itself must be defined and between endpoints.
	at := a1.Arrive[0][tap.ID]
	if math.IsNaN(at) || at <= a1.Arrive[0][tr1.Source] || at >= d1 {
		t.Errorf("tap arrival = %v", at)
	}
}

func TestSkewGuard(t *testing.T) {
	if g := SkewGuard(0); g != 2 {
		t.Errorf("guard(0) = %v, want 2", g)
	}
	if g := SkewGuard(100); g != 102 {
		t.Errorf("guard(100) = %v, want 102 (2ps floor)", g)
	}
	if g := SkewGuard(400); math.Abs(g-406) > 1e-12 {
		t.Errorf("guard(400) = %v, want 406 (1.5%%)", g)
	}
}
