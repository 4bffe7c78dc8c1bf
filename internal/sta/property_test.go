package sta

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"skewvar/internal/ctree"
	"skewvar/internal/geom"
	"skewvar/internal/rctree"
	"skewvar/internal/tech"
)

// Property: PERI slew composition dominates both of its inputs and is
// symmetric.
func TestPERISlewProperties(t *testing.T) {
	f := func(a, b float64) bool {
		a = math.Abs(math.Mod(a, 1000))
		b = math.Abs(math.Mod(b, 1000))
		s := rctree.PERISlew(a, b)
		return s >= a-1e-9 && s >= b-1e-9 &&
			math.Abs(s-rctree.PERISlew(b, a)) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: skew is antisymmetric and PairVariation is symmetric in the
// pair's endpoints.
func TestVariationSymmetryProperty(t *testing.T) {
	th := tech.Default28nm()
	tm := New(th)
	rng := rand.New(rand.NewSource(77))
	tr := ctree.NewTree(geom.Pt(0, 0), "CKINVX16")
	b1 := tr.AddNode(ctree.KindBuffer, geom.Pt(150, 40), "CKINVX4", tr.Source)
	var sinks []ctree.NodeID
	for i := 0; i < 12; i++ {
		s := tr.AddNode(ctree.KindSink,
			geom.Pt(200+rng.Float64()*200, rng.Float64()*200), "", b1.ID)
		sinks = append(sinks, s.ID)
	}
	a := tm.Analyze(tr)
	var pairs []ctree.SinkPair
	for i := 0; i+1 < len(sinks); i++ {
		pairs = append(pairs, ctree.SinkPair{A: sinks[i], B: sinks[i+1]})
	}
	al := Alphas(a, pairs)
	for _, p := range pairs {
		for k := 0; k < a.K; k++ {
			if math.Abs(a.Skew(k, p.A, p.B)+a.Skew(k, p.B, p.A)) > 1e-9 {
				t.Fatal("skew not antisymmetric")
			}
		}
		rev := ctree.SinkPair{A: p.B, B: p.A}
		if math.Abs(PairVariation(a, al, p)-PairVariation(a, al, rev)) > 1e-9 {
			t.Fatal("pair variation not symmetric")
		}
	}
	// ΣV is invariant under pair reversal.
	var revPairs []ctree.SinkPair
	for _, p := range pairs {
		revPairs = append(revPairs, ctree.SinkPair{A: p.B, B: p.A})
	}
	if math.Abs(SumVariation(a, al, pairs)-SumVariation(a, al, revPairs)) > 1e-9 {
		t.Fatal("ΣV changed under reversal")
	}
}

// Property: adding detour anywhere never decreases any downstream latency
// at any corner, and never changes latencies outside the touched subtree's
// net ancestors.
func TestDetourMonotonicityProperty(t *testing.T) {
	th := tech.Default28nm()
	tm := New(th)
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 10; trial++ {
		tr := ctree.NewTree(geom.Pt(0, 0), "CKINVX16")
		prev := tr.Source
		for i := 0; i < 3; i++ {
			b := tr.AddNode(ctree.KindBuffer,
				geom.Pt(float64(100+i*120), rng.Float64()*60), "CKINVX4", prev)
			prev = b.ID
		}
		var sinks []ctree.NodeID
		for i := 0; i < 6; i++ {
			s := tr.AddNode(ctree.KindSink,
				geom.Pt(500+rng.Float64()*80, rng.Float64()*80), "", prev)
			sinks = append(sinks, s.ID)
		}
		before := tm.Analyze(tr)
		victim := sinks[rng.Intn(len(sinks))]
		tr.Node(victim).Detour += 20 + rng.Float64()*60
		after := tm.Analyze(tr)
		for k := 0; k < before.K; k++ {
			for _, s := range sinks {
				d := after.Latency(k, s) - before.Latency(k, s)
				if d < -1e-9 {
					t.Fatalf("trial %d: latency decreased after adding detour", trial)
				}
				if s == victim && d <= 0 {
					t.Fatalf("trial %d: victim sink not slowed", trial)
				}
			}
		}
	}
}

// Property: table-interpolated pair delay stays within a bounded relative
// error of the golden analytic pair delay across the operating range (the
// estimator-vs-golden gap the ML models absorb must be small but nonzero).
func TestTableVsGoldenGapProperty(t *testing.T) {
	th := tech.Default28nm()
	rng := rand.New(rand.NewSource(4))
	var worst float64
	nonzero := false
	for trial := 0; trial < 300; trial++ {
		cell := th.Cells[rng.Intn(len(th.Cells))]
		k := rng.Intn(th.NumCorners())
		slew := 5 + rng.Float64()*400
		load := 1 + rng.Float64()*150
		g, _ := PairDelay(th, cell, k, slew, load)
		d1, s1 := PairFirstStageTable(th, cell, k, slew)
		e := d1 + cell.TableDelayPS(k, s1, load)
		rel := math.Abs(e-g) / g
		if rel > worst {
			worst = rel
		}
		if rel > 1e-9 {
			nonzero = true
		}
	}
	if worst > 0.10 {
		t.Errorf("interpolation gap too large: %.1f%%", 100*worst)
	}
	if !nonzero {
		t.Error("tables match golden exactly — the characterization grid is degenerate")
	}
}
