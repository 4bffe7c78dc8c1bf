package eco

import (
	"math"
	"testing"

	"skewvar/internal/ctree"
	"skewvar/internal/geom"
	"skewvar/internal/sta"
)

// snakeTree builds source → b1 → b2 → sink with pre-existing snaking.
func snakeTree() (*ctree.Tree, []ctree.NodeID) {
	tr := ctree.NewTree(geom.Pt(0, 500), "CKINVX16")
	b1 := tr.AddNode(ctree.KindBuffer, geom.Pt(150, 500), "CKINVX4", tr.Source)
	b1.Detour = 40
	b2 := tr.AddNode(ctree.KindBuffer, geom.Pt(300, 500), "CKINVX4", b1.ID)
	b2.Detour = 25
	s := tr.AddNode(ctree.KindSink, geom.Pt(450, 500), "", b2.ID)
	s.Detour = 15
	return tr, []ctree.NodeID{b1.ID, b2.ID, s.ID}
}

func TestArcDetourBudget(t *testing.T) {
	tr, _ := snakeTree()
	seg := ctree.Segment(tr)
	if got := ArcDetourBudget(tr, seg.Arcs[0]); math.Abs(got-80) > 1e-9 {
		t.Errorf("budget = %v, want 80", got)
	}
}

func TestTrimSlopesPositive(t *testing.T) {
	th, ch, lg := env(t)
	r := NewRebuilder(th, ch, lg)
	tr, _ := snakeTree()
	seg := ctree.Segment(tr)
	slopes := r.TrimSlopes(tr, seg.Arcs[0], th.SinkCap)
	if len(slopes) != th.NumCorners() {
		t.Fatalf("slopes = %v", slopes)
	}
	for k, s := range slopes {
		if s <= 0 {
			t.Errorf("corner %d slope = %v", k, s)
		}
	}
	// Slow corner (c1, Cmax wire + slow gates) has the steepest slope.
	if !(slopes[1] > slopes[3]) {
		t.Errorf("slope ordering: %v", slopes)
	}
}

func TestSelectTrimAddsWireForSlowerTargets(t *testing.T) {
	th, ch, lg := env(t)
	tm := sta.New(th)
	r := NewRebuilder(th, ch, lg)
	tr, ids := snakeTree()
	seg := ctree.Segment(tr)
	arc := seg.Arcs[0]
	a := tm.Analyze(tr)
	arcD := sta.ArcDelays(a, seg)[0]
	// Ask for +wire-shaped delay: current + slope·60µm.
	slopes := r.TrimSlopes(tr, arc, th.SinkCap)
	target := make([]float64, len(arcD))
	for k := range target {
		target[k] = arcD[k] + slopes[k]*60
	}
	sol, err := r.SelectTrim(tr, arc, arcD, target, th.SinkCap, 0)
	if err != nil {
		t.Fatal(err)
	}
	if sol.ExtraUM < 40 || sol.ExtraUM > 80 {
		t.Errorf("trim = %vµm, want ≈60", sol.ExtraUM)
	}
	// Apply and verify the golden timer moved toward the target.
	if _, err := r.ApplyTrim(tr, arc, sol.ExtraUM); err != nil {
		t.Fatal(err)
	}
	a2 := tm.Analyze(tr)
	after := sta.ArcDelays(a2, ctree.Segment(tr))[0]
	for k := range target {
		if after[k] <= arcD[k] {
			t.Errorf("corner %d: no slowdown", k)
		}
		if math.Abs(after[k]-target[k]) > math.Abs(arcD[k]-target[k]) {
			t.Errorf("corner %d: moved away from target", k)
		}
	}
	_ = ids
}

func TestSelectTrimRemovesSnaking(t *testing.T) {
	th, ch, lg := env(t)
	tm := sta.New(th)
	r := NewRebuilder(th, ch, lg)
	tr, _ := snakeTree()
	seg := ctree.Segment(tr)
	arc := seg.Arcs[0]
	a := tm.Analyze(tr)
	arcD := sta.ArcDelays(a, seg)[0]
	slopes := r.TrimSlopes(tr, arc, th.SinkCap)
	target := make([]float64, len(arcD))
	for k := range target {
		target[k] = arcD[k] - slopes[k]*50 // want it faster
	}
	sol, err := r.SelectTrim(tr, arc, arcD, target, th.SinkCap, 0)
	if err != nil {
		t.Fatal(err)
	}
	if sol.ExtraUM >= 0 {
		t.Fatalf("trim = %v, want negative (snake removal)", sol.ExtraUM)
	}
	if -sol.ExtraUM > ArcDetourBudget(tr, arc)+1e-9 {
		t.Fatal("trim removes more than the arc carries")
	}
	if _, err := r.ApplyTrim(tr, arc, sol.ExtraUM); err != nil {
		t.Fatal(err)
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	// Budget shrank by the removed amount.
	if got := ArcDetourBudget(tr, ctree.Segment(tr).Arcs[0]); math.Abs(got-(80+sol.ExtraUM)) > 1e-9 {
		t.Errorf("post-trim budget = %v", got)
	}
}

func TestSelectTrimRespectsMaxExtra(t *testing.T) {
	th, ch, lg := env(t)
	tm := sta.New(th)
	r := NewRebuilder(th, ch, lg)
	tr, _ := snakeTree()
	seg := ctree.Segment(tr)
	arc := seg.Arcs[0]
	arcD := sta.ArcDelays(tm.Analyze(tr), seg)[0]
	slopes := r.TrimSlopes(tr, arc, th.SinkCap)
	target := make([]float64, len(arcD))
	for k := range target {
		target[k] = arcD[k] + slopes[k]*200 // wants 200µm
	}
	sol, err := r.SelectTrim(tr, arc, arcD, target, th.SinkCap, 30)
	if err != nil {
		t.Fatal(err)
	}
	if sol.ExtraUM > 30 {
		t.Errorf("trim %vµm exceeds cap 30", sol.ExtraUM)
	}
}

func TestSelectTrimErrors(t *testing.T) {
	th, ch, lg := env(t)
	tm := sta.New(th)
	r := NewRebuilder(th, ch, lg)
	tr, _ := snakeTree()
	seg := ctree.Segment(tr)
	arc := seg.Arcs[0]
	arcD := sta.ArcDelays(tm.Analyze(tr), seg)[0]
	if _, err := r.SelectTrim(tr, arc, arcD[:1], arcD, th.SinkCap, 0); err == nil {
		t.Error("corner mismatch accepted")
	}
	// Target = current: nothing beats doing nothing.
	if _, err := r.SelectTrim(tr, arc, arcD, arcD, th.SinkCap, 0); err == nil {
		t.Error("no-op trim accepted")
	}
}

func TestApplyTrimErrors(t *testing.T) {
	th, ch, lg := env(t)
	r := NewRebuilder(th, ch, lg)
	tr, _ := snakeTree()
	seg := ctree.Segment(tr)
	arc := seg.Arcs[0]
	if _, err := r.ApplyTrim(tr, arc, -10000); err == nil {
		t.Error("over-removal accepted")
	}
	stale := &ctree.Arc{Top: 0, Bottom: ctree.NodeID(99)}
	if _, err := r.ApplyTrim(tr, stale, 5); err == nil {
		t.Error("stale arc accepted")
	}
}

// TestApplyTrimFailureLeavesTreeUnchanged asks for more snake removal than
// the arc carries: the trim must fail before it consumes any detour.
func TestApplyTrimFailureLeavesTreeUnchanged(t *testing.T) {
	th, ch, lg := env(t)
	r := NewRebuilder(th, ch, lg)
	tr, ids := snakeTree()
	arc := ctree.Segment(tr).Arcs[0]
	before := make([]float64, len(ids))
	for i, id := range ids {
		before[i] = tr.Node(id).Detour
	}
	if _, err := r.ApplyTrim(tr, arc, -(ArcDetourBudget(tr, arc) + 5)); err == nil {
		t.Fatal("over-removal accepted")
	}
	for i, id := range ids {
		if got := tr.Node(id).Detour; got != before[i] {
			t.Errorf("node %d detour %v after the failed trim, was %v", id, got, before[i])
		}
	}
}

func TestTrimAfterRebuildStaleArc(t *testing.T) {
	// After RebuildArc, the segmentation's Interior list is stale (old
	// nodes removed). Trim helpers must tolerate it: budget and apply work
	// against the surviving anchors.
	th, ch, lg := env(t)
	tm := sta.New(th)
	r := NewRebuilder(th, ch, lg)
	tr, _ := snakeTree()
	seg := ctree.Segment(tr)
	arc := seg.Arcs[0]
	arcD := sta.ArcDelays(tm.Analyze(tr), seg)[0]
	target := make([]float64, len(arcD))
	for k := range arcD {
		target[k] = arcD[k] * 1.2
	}
	sol, err := r.Select(450, th.SinkCap, target)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.RebuildArc(tr, arc, sol); err != nil {
		t.Fatal(err)
	}
	// The stale arc still names removed interior nodes.
	if got := ArcDetourBudget(tr, arc); got < 0 {
		t.Fatalf("stale budget = %v", got)
	}
	if _, err := r.SelectTrim(tr, arc, arcD, target, th.SinkCap, 50); err == nil {
		// Fine if a trim is found; apply must not panic on stale interiors.
		if _, err := r.ApplyTrim(tr, arc, 10); err != nil {
			t.Fatal(err)
		}
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
}
