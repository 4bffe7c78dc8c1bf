package power

import (
	"math"
	"testing"

	"skewvar/internal/ctree"
	"skewvar/internal/geom"
	"skewvar/internal/tech"
)

func TestAnalyzeHandComputed(t *testing.T) {
	th := tech.Default28nm()
	tr := ctree.NewTree(geom.Pt(0, 0), "CKINVX16")
	b := tr.AddNode(ctree.KindBuffer, geom.Pt(100, 0), "CKINVX4", tr.Source)
	s := tr.AddNode(ctree.KindSink, geom.Pt(150, 0), "", b.ID)
	s.Detour = 20
	r := Analyze(th, tr)
	if r.NumCells != 4 { // source pair + buffer pair
		t.Errorf("NumCells = %d", r.NumCells)
	}
	x16 := th.CellByName("CKINVX16")
	x4 := th.CellByName("CKINVX4")
	wantArea := 2 * (x16.Area + x4.Area)
	if math.Abs(r.AreaUM2-wantArea) > 1e-9 {
		t.Errorf("Area = %v, want %v", r.AreaUM2, wantArea)
	}
	if math.Abs(r.WirelengthUM-170) > 1e-9 { // 100 + 50 + 20 detour
		t.Errorf("Wirelength = %v", r.WirelengthUM)
	}
	wantPin := x16.InCap + x4.InCap + th.SinkCap
	if math.Abs(r.PinCapFF-wantPin) > 1e-9 {
		t.Errorf("PinCap = %v, want %v", r.PinCapFF, wantPin)
	}
	if r.PowerMW <= 0 {
		t.Error("no power")
	}
	wantP := (r.WireCapFF + r.PinCapFF) * 0.81 / 1000
	if math.Abs(r.PowerMW-wantP) > 1e-12 {
		t.Errorf("Power = %v, want %v", r.PowerMW, wantP)
	}
}

func TestPowerGrowsWithTree(t *testing.T) {
	th := tech.Default28nm()
	tr := ctree.NewTree(geom.Pt(0, 0), "CKINVX16")
	b := tr.AddNode(ctree.KindBuffer, geom.Pt(100, 0), "CKINVX4", tr.Source)
	tr.AddNode(ctree.KindSink, geom.Pt(150, 0), "", b.ID)
	r1 := Analyze(th, tr)
	tr.AddNode(ctree.KindBuffer, geom.Pt(100, 100), "CKINVX8", tr.Source)
	r2 := Analyze(th, tr)
	if !(r2.PowerMW > r1.PowerMW && r2.AreaUM2 > r1.AreaUM2 && r2.NumCells == r1.NumCells+2) {
		t.Errorf("metrics did not grow: %+v vs %+v", r1, r2)
	}
}

func TestEstimateFixCost(t *testing.T) {
	tr := ctree.NewTree(geom.Pt(0, 0), "CKINVX16")
	b := tr.AddNode(ctree.KindBuffer, geom.Pt(100, 0), "CKINVX4", tr.Source)
	s1 := tr.AddNode(ctree.KindSink, geom.Pt(200, 0), "", b.ID)
	s2 := tr.AddNode(ctree.KindSink, geom.Pt(210, 10), "", b.ID)
	pairs := []ctree.SinkPair{{A: s1.ID, B: s2.ID}}
	// Balanced clock: no violations.
	balanced := func(k int, sink ctree.NodeID) float64 { return 500 }
	fc := EstimateFixCost(tr, pairs, 2, balanced, nil)
	if fc.HoldViolations != 0 || fc.SetupViolations != 0 || fc.FixBuffers != 0 {
		t.Errorf("balanced clock has violations: %+v", fc)
	}
	// Massive skew toward the capture sink at corner 1 → hold violation.
	skewed := func(k int, sink ctree.NodeID) float64 {
		if sink == s2.ID && k == 1 {
			return 900
		}
		return 500
	}
	fc2 := EstimateFixCost(tr, pairs, 2, skewed, nil)
	if fc2.HoldViolations != 1 || fc2.FixBuffers == 0 || fc2.HoldPS <= 0 {
		t.Errorf("hold violation not detected: %+v", fc2)
	}
	// Opposite skew at scale → setup violation at the fixed period.
	late := func(k int, sink ctree.NodeID) float64 {
		if sink == s1.ID && k == 1 {
			return 1400
		}
		return 500
	}
	fc3 := EstimateFixCost(tr, pairs, 2, late, []float64{1, 1})
	if fc3.SetupViolations != 1 || fc3.SetupPS <= 0 {
		t.Errorf("setup violation not detected: %+v", fc3)
	}
	// Missing nodes are skipped.
	ghost := []ctree.SinkPair{{A: 99, B: 98}}
	fc4 := EstimateFixCost(tr, ghost, 2, balanced, nil)
	if fc4.FixBuffers != 0 {
		t.Errorf("ghost pair produced cost: %+v", fc4)
	}
}
