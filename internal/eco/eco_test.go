package eco

import (
	"math"
	"testing"

	"skewvar/internal/ctree"
	"skewvar/internal/geom"
	"skewvar/internal/legalize"
	"skewvar/internal/lut"
	"skewvar/internal/sta"
	"skewvar/internal/tech"
)

var (
	sharedTech *tech.Tech
	sharedChar *lut.Char
)

func env(t *testing.T) (*tech.Tech, *lut.Char, *legalize.Legalizer) {
	t.Helper()
	if sharedTech == nil {
		sharedTech = tech.Default28nm()
		sharedChar = lut.Characterize(sharedTech)
	}
	die := geom.NewRect(geom.Pt(0, 0), geom.Pt(2000, 2000))
	return sharedTech, sharedChar, legalize.New(die, sharedTech.SiteW, sharedTech.RowH)
}

// chainTree: source → b1 → b2 → sink, all on a line.
func chainTree() (*ctree.Tree, []ctree.NodeID) {
	tr := ctree.NewTree(geom.Pt(0, 500), "CKINVX16")
	b1 := tr.AddNode(ctree.KindBuffer, geom.Pt(150, 500), "CKINVX4", tr.Source)
	b2 := tr.AddNode(ctree.KindBuffer, geom.Pt(300, 500), "CKINVX4", b1.ID)
	s := tr.AddNode(ctree.KindSink, geom.Pt(450, 500), "", b2.ID)
	return tr, []ctree.NodeID{b1.ID, b2.ID, s.ID}
}

func TestMoveTypeString(t *testing.T) {
	if TypeI.String() != "I" || TypeII.String() != "II" || TypeIII.String() != "III" {
		t.Error("move type strings")
	}
	if MoveType(9).String() == "" {
		t.Error("unknown type empty")
	}
	m := Move{Type: TypeI, Buffer: 1, DX: 10, SizeStep: 1}
	if m.String() == "" {
		t.Error("move string empty")
	}
	if (Move{Type: TypeII}).String() == "" || (Move{Type: TypeIII}).String() == "" {
		t.Error("move strings empty")
	}
}

func TestEnumerateTypeIAndII(t *testing.T) {
	th, _, _ := env(t)
	tr, ids := chainTree()
	die := geom.NewRect(geom.Pt(0, 0), geom.Pt(2000, 2000))
	moves := Enumerate(tr, th, ids[0], die)
	var nI, nII, nIII int
	for _, m := range moves {
		switch m.Type {
		case TypeI:
			nI++
		case TypeII:
			nII++
		case TypeIII:
			nIII++
		}
	}
	// Type I: 8 dirs × 3 steps + 2 pure sizings = 26.
	if nI != 26 {
		t.Errorf("Type I count = %d, want 26", nI)
	}
	// b1 has one buffer child (b2): 8 dirs × 2 sizings = 16.
	if nII != 16 {
		t.Errorf("Type II count = %d, want 16", nII)
	}
	// No same-level alternative drivers exist.
	if nIII != 0 {
		t.Errorf("Type III count = %d, want 0", nIII)
	}
}

func TestEnumerateBoundaryClipping(t *testing.T) {
	th, _, _ := env(t)
	tr, ids := chainTree()
	// A die so tight every displacement leaves it.
	die := geom.NewRect(geom.Pt(149, 499), geom.Pt(151, 501))
	moves := Enumerate(tr, th, ids[0], die)
	for _, m := range moves {
		if m.Type == TypeI && (m.DX != 0 || m.DY != 0) {
			t.Errorf("off-die displacement enumerated: %v", m)
		}
	}
}

func TestEnumerateSizeSaturation(t *testing.T) {
	th, _, _ := env(t)
	tr := ctree.NewTree(geom.Pt(0, 0), "CKINVX16")
	b := tr.AddNode(ctree.KindBuffer, geom.Pt(100, 0), "CKINVX16", tr.Source) // top size
	tr.AddNode(ctree.KindSink, geom.Pt(200, 0), "", b.ID)
	die := geom.NewRect(geom.Pt(0, 0), geom.Pt(2000, 2000))
	for _, m := range Enumerate(tr, th, b.ID, die) {
		if m.Type == TypeI && m.SizeStep > 0 {
			t.Error("up-size enumerated at max size")
		}
	}
	if ms := Enumerate(tr, th, tr.Source, die); ms != nil {
		t.Error("moves enumerated for the source")
	}
	if ms := Enumerate(tr, th, ctree.NodeID(99), die); ms != nil {
		t.Error("moves enumerated for a missing node")
	}
}

func TestEnumerateTypeIII(t *testing.T) {
	th, _, _ := env(t)
	// Two leaf buffers at the same level, close together, each with sinks.
	tr := ctree.NewTree(geom.Pt(0, 0), "CKINVX16")
	top := tr.AddNode(ctree.KindBuffer, geom.Pt(100, 0), "CKINVX8", tr.Source)
	la := tr.AddNode(ctree.KindBuffer, geom.Pt(200, 10), "CKINVX4", top.ID)
	lb := tr.AddNode(ctree.KindBuffer, geom.Pt(200, -10), "CKINVX4", top.ID)
	sa := tr.AddNode(ctree.KindSink, geom.Pt(220, 10), "", la.ID)
	tr.AddNode(ctree.KindSink, geom.Pt(220, -10), "", lb.ID)
	die := geom.NewRect(geom.Pt(0, 0), geom.Pt(2000, 2000))
	moves := Enumerate(tr, th, la.ID, die)
	var found bool
	for _, m := range moves {
		if m.Type == TypeIII && m.Child == sa.ID && m.NewDrv == lb.ID {
			found = true
		}
	}
	if !found {
		t.Error("expected Type III reassigning sa to lb")
	}
}

func TestApplyMoves(t *testing.T) {
	th, _, lg := env(t)
	tr, ids := chainTree()
	// Type I: displace + upsize.
	if err := Apply(tr, th, lg, Move{Type: TypeI, Buffer: ids[0], DX: 10, DY: -10, SizeStep: 1}); err != nil {
		t.Fatal(err)
	}
	b1 := tr.Node(ids[0])
	if b1.CellName != "CKINVX8" {
		t.Errorf("cell = %s", b1.CellName)
	}
	if math.Abs(b1.Loc.X-160) > 0.5 || math.Abs(b1.Loc.Y-490) > 1.3 {
		t.Errorf("loc = %v", b1.Loc)
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	// Type II: child downsize.
	if err := Apply(tr, th, lg, Move{Type: TypeII, Buffer: ids[0], Child: ids[1], SizeStep: -1}); err != nil {
		t.Fatal(err)
	}
	if tr.Node(ids[1]).CellName != "CKINVX2" {
		t.Errorf("child cell = %s", tr.Node(ids[1]).CellName)
	}
	// Errors.
	if err := Apply(tr, th, lg, Move{Type: TypeI, Buffer: 99}); err == nil {
		t.Error("missing buffer accepted")
	}
	if err := Apply(tr, th, lg, Move{Type: MoveType(9), Buffer: ids[0]}); err == nil {
		t.Error("bad type accepted")
	}
	if err := Apply(tr, th, lg, Move{Type: TypeII, Buffer: ids[0], Child: ids[2], SizeStep: 1}); err == nil {
		t.Error("resizing a sink accepted")
	}
}

func TestApplyTypeIII(t *testing.T) {
	th, _, lg := env(t)
	tr := ctree.NewTree(geom.Pt(0, 0), "CKINVX16")
	a := tr.AddNode(ctree.KindBuffer, geom.Pt(100, 10), "CKINVX4", tr.Source)
	b := tr.AddNode(ctree.KindBuffer, geom.Pt(100, -10), "CKINVX4", tr.Source)
	s := tr.AddNode(ctree.KindSink, geom.Pt(120, 0), "", a.ID)
	if err := Apply(tr, th, lg, Move{Type: TypeIII, Buffer: a.ID, Child: s.ID, NewDrv: b.ID}); err != nil {
		t.Fatal(err)
	}
	if tr.Node(s.ID).Parent != b.ID {
		t.Error("surgery did not take")
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestEstimateMonotoneInPairs(t *testing.T) {
	th, ch, lg := env(t)
	r := NewRebuilder(th, ch, lg)
	// More pairs at fixed spacing ⇒ more delay.
	d2 := r.Estimate(2, 60, 2, 0, th.SinkCap)
	d4 := r.Estimate(2, 60, 4, 0, th.SinkCap)
	if d4 <= d2 {
		t.Errorf("estimate not increasing in pairs: %v vs %v", d2, d4)
	}
	// Zero pairs = bare wire.
	d0 := r.Estimate(2, 100, 0, 0, th.SinkCap)
	if d0 <= 0 {
		t.Errorf("bare wire estimate %v", d0)
	}
	// One-pair case covered.
	d1 := r.Estimate(2, 100, 1, 0, th.SinkCap)
	if d1 <= d0 {
		t.Errorf("one pair not slower than bare wire: %v vs %v", d1, d0)
	}
}

func TestSelectHitsTarget(t *testing.T) {
	th, ch, lg := env(t)
	r := NewRebuilder(th, ch, lg)
	// Target: delay of 3 pairs at 100µm spacing, size X4, exactly per the
	// estimator. Select must find a solution with small error.
	direct := 300.0
	endLoad := th.SinkCap
	target := make([]float64, th.NumCorners())
	for k := range target {
		target[k] = r.Estimate(2, 100, 3, k, endLoad)
	}
	sol, err := r.Select(direct, endLoad, target)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Err > 25 {
		t.Errorf("selection error = %v ps, too large", sol.Err)
	}
	if sol.Pairs < 2 || sol.Pairs > 4 {
		t.Errorf("pairs = %d, want ≈3", sol.Pairs)
	}
	// Bad target count.
	if _, err := r.Select(direct, endLoad, []float64{1}); err == nil {
		t.Error("bad target length accepted")
	}
}

func TestSelectPrefersBareWireForTinyTargets(t *testing.T) {
	th, ch, lg := env(t)
	r := NewRebuilder(th, ch, lg)
	direct := 80.0
	endLoad := th.SinkCap
	target := make([]float64, th.NumCorners())
	for k := range target {
		target[k] = r.Estimate(0, direct, 0, k, endLoad) // bare-wire delay
	}
	sol, err := r.Select(direct, endLoad, target)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Pairs != 0 {
		t.Errorf("pairs = %d, want 0 (buffer removal)", sol.Pairs)
	}
	if sol.DetourUM != 0 {
		t.Errorf("detour = %v, want 0", sol.DetourUM)
	}
}

// TestSelectNeverNegativeDetour sweeps direct lengths with targets that
// favor a buffered chain at exactly the direct spacing, where the spacing
// is clamped to directUM/(u+1) and multiplying back can round below
// directUM. A negative detour would corrupt the rebuilt arc.
func TestSelectNeverNegativeDetour(t *testing.T) {
	th, ch, lg := env(t)
	r := NewRebuilder(th, ch, lg)
	endLoad := th.SinkCap
	target := make([]float64, th.NumCorners())
	for direct := 150.0; direct < 600; direct += 3.7 {
		for u := 1; u <= 3; u++ {
			for k := range target {
				target[k] = r.Estimate(1, direct/float64(u+1), u, k, endLoad)
			}
			sol, err := r.Select(direct, endLoad, target)
			if err != nil {
				t.Fatal(err)
			}
			if sol.DetourUM < 0 {
				t.Fatalf("direct %v, %d pairs: detour %v < 0 (spacing %v, %d pairs chosen)",
					direct, u, sol.DetourUM, sol.SpacingUM, sol.Pairs)
			}
		}
	}
}

func TestRebuildArcEndToEnd(t *testing.T) {
	th, ch, lg := env(t)
	tm := sta.New(th)
	r := NewRebuilder(th, ch, lg)
	tr, _ := chainTree()
	seg := ctree.Segment(tr)
	// The single arc source→sink (b1, b2 interior).
	if len(seg.Arcs) != 1 {
		t.Fatalf("arcs = %d", len(seg.Arcs))
	}
	arc := seg.Arcs[0]
	a0 := tm.Analyze(tr)
	base := sta.ArcDelays(a0, seg)[0]
	// Ask for ~25% more delay at every corner.
	target := make([]float64, len(base))
	for k := range base {
		target[k] = base[k] * 1.25
	}
	sol, err := r.Select(450, th.SinkCap, target)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.RebuildArc(tr, arc, sol); err != nil {
		t.Fatal(err)
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	// Post-ECO delay should move toward the target.
	seg2 := ctree.Segment(tr)
	a1 := tm.Analyze(tr)
	after := sta.ArcDelays(a1, seg2)[0]
	for k := range base {
		if after[k] <= base[k] {
			t.Errorf("corner %d: arc delay did not increase (%v → %v, target %v)",
				k, base[k], after[k], target[k])
		}
		// Within 30% of target (discretization + estimator error allowed).
		if rel := math.Abs(after[k]-target[k]) / target[k]; rel > 0.30 {
			t.Errorf("corner %d: rebuilt delay %v vs target %v (rel %.2f)",
				k, after[k], target[k], rel)
		}
	}
}

func TestRebuildArcZeroPairs(t *testing.T) {
	th, ch, lg := env(t)
	r := NewRebuilder(th, ch, lg)
	tr, ids := chainTree()
	seg := ctree.Segment(tr)
	arc := seg.Arcs[0]
	sol := &Solution{CellIdx: 0, SpacingUM: 450, Pairs: 0, DetourUM: 60}
	if _, err := r.RebuildArc(tr, arc, sol); err != nil {
		t.Fatal(err)
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	if tr.Node(ids[0]) != nil || tr.Node(ids[1]) != nil {
		t.Error("interior buffers not removed")
	}
	if d := tr.Node(ids[2]).Detour; d != 60 {
		t.Errorf("bottom detour = %v", d)
	}
	if len(tr.Buffers()) != 0 {
		t.Error("stray buffers remain")
	}
}
