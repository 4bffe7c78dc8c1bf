package route

import (
	"math/rand"
	"testing"

	"skewvar/internal/geom"
)

func randPins(rng *rand.Rand, n int) []geom.Point {
	pins := make([]geom.Point, n)
	for i := range pins {
		pins[i] = geom.Pt(rng.Float64()*500, rng.Float64()*500)
	}
	return pins
}

func TestMSTTwoPins(t *testing.T) {
	pins := []geom.Point{geom.Pt(0, 0), geom.Pt(3, 4)}
	tr := MST(pins)
	if err := tr.Validate(len(pins)); err != nil {
		t.Fatal(err)
	}
	if tr.Wirelength() != 7 {
		t.Errorf("wirelength = %v, want 7", tr.Wirelength())
	}
}

func TestMSTIsSpanningAndMinimalOnSquare(t *testing.T) {
	// Unit square: MST length is 3 sides.
	pins := []geom.Point{geom.Pt(0, 0), geom.Pt(1, 0), geom.Pt(0, 1), geom.Pt(1, 1)}
	tr := MST(pins)
	if err := tr.Validate(len(pins)); err != nil {
		t.Fatal(err)
	}
	if tr.Wirelength() != 3 {
		t.Errorf("square MST = %v, want 3", tr.Wirelength())
	}
}

func TestMSTPanicsOnEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic")
		}
	}()
	MST(nil)
}

func TestRSMTImprovesCross(t *testing.T) {
	// A + shape: driver left, pins right/up/down — Steiner point at center
	// saves length vs MST.
	pins := []geom.Point{geom.Pt(-10, 0), geom.Pt(10, 0), geom.Pt(0, 10), geom.Pt(0, -10)}
	mst := MST(pins)
	st := RSMT(pins)
	if err := st.Validate(len(pins)); err != nil {
		t.Fatal(err)
	}
	if st.Wirelength() > mst.Wirelength()+1e-9 {
		t.Errorf("RSMT %.2f worse than MST %.2f", st.Wirelength(), mst.Wirelength())
	}
	if st.Wirelength() >= mst.Wirelength()-1e-9 {
		t.Errorf("RSMT did not improve the cross: %.2f vs %.2f", st.Wirelength(), mst.Wirelength())
	}
}

func TestRSMTNeverWorseThanMSTProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 60; trial++ {
		pins := randPins(rng, 2+rng.Intn(25))
		mst := MST(pins)
		st := RSMT(pins)
		if err := st.Validate(len(pins)); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if st.Wirelength() > mst.Wirelength()+1e-6 {
			t.Fatalf("trial %d: RSMT %.3f > MST %.3f", trial, st.Wirelength(), mst.Wirelength())
		}
		// Steiner lower bound: half-perimeter of the bounding box.
		if st.Wirelength() < geom.BBox(pins).HalfPerim()-1e-6 {
			t.Fatalf("trial %d: RSMT below HPWL lower bound", trial)
		}
	}
}

func TestSingleTrunk(t *testing.T) {
	pins := []geom.Point{geom.Pt(0, 5), geom.Pt(10, 0), geom.Pt(20, 10), geom.Pt(30, 5)}
	tr := SingleTrunk(pins)
	if err := tr.Validate(len(pins)); err != nil {
		t.Fatal(err)
	}
	if tr.Wirelength() <= 0 {
		t.Error("zero wirelength")
	}
	// Single pin net.
	solo := SingleTrunk(pins[:1])
	if err := solo.Validate(1); err != nil {
		t.Fatal(err)
	}
	if solo.Wirelength() != 0 {
		t.Error("single-pin net has wire")
	}
	// Vertical spread picks a vertical trunk; still valid.
	vp := []geom.Point{geom.Pt(0, 0), geom.Pt(1, 100), geom.Pt(2, 200)}
	vt := SingleTrunk(vp)
	if err := vt.Validate(len(vp)); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Error("no panic on empty")
		}
	}()
	SingleTrunk(nil)
}

func TestSingleTrunkReasonableLength(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 40; trial++ {
		pins := randPins(rng, 2+rng.Intn(20))
		st := SingleTrunk(pins)
		if err := st.Validate(len(pins)); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		mst := MST(pins)
		// Single trunk is a heuristic: allow headroom but catch blowups.
		if st.Wirelength() > 4*mst.Wirelength()+1e-9 {
			t.Fatalf("trial %d: trunk %.1f ≫ MST %.1f", trial, st.Wirelength(), mst.Wirelength())
		}
	}
}

func TestTreeHelpers(t *testing.T) {
	pins := []geom.Point{geom.Pt(0, 0), geom.Pt(10, 0), geom.Pt(20, 0)}
	tr := MST(pins)
	if tr.PinNode(2) < 0 {
		t.Error("pin 2 missing")
	}
	if tr.PinNode(9) != -1 {
		t.Error("absent pin found")
	}
	kids := tr.Children(0)
	if len(kids) != 1 {
		t.Errorf("children of root = %v", kids)
	}
}

func TestValidateCatchesBadTrees(t *testing.T) {
	bad := []*Tree{
		{},
		{Nodes: []Node{{Parent: 0, Pin: 0}}}, // root with parent
		{Nodes: []Node{{Parent: -1, Pin: 0}, {Parent: 5, Pin: 1}}},                       // bad parent
		{Nodes: []Node{{Parent: -1, Pin: 0}, {Parent: 0, Pin: 1, EdgeLen: -1}}},          // negative len
		{Nodes: []Node{{Parent: -1, Pin: 0}, {Parent: 0, Pin: 0}}},                       // dup pin
		{Nodes: []Node{{Parent: -1, Pin: 0}, {Parent: 0, Pin: 3}}},                       // pin out of range
		{Nodes: []Node{{Parent: -1, Pin: 0}, {Parent: 2, Pin: 1}, {Parent: 1, Pin: -1}}}, // cycle
	}
	for i, tr := range bad {
		if err := tr.Validate(2); err == nil {
			t.Errorf("bad tree %d passed", i)
		}
	}
}

func TestCongestionDeterminismAndRange(t *testing.T) {
	die := geom.NewRect(geom.Pt(0, 0), geom.Pt(100, 100))
	c1 := NewCongestion(die, 8, 8, 0.25, 42)
	c2 := NewCongestion(die, 8, 8, 0.25, 42)
	c3 := NewCongestion(die, 8, 8, 0.25, 43)
	same, diff := true, false
	for x := 5.0; x < 100; x += 10 {
		for y := 5.0; y < 100; y += 10 {
			p := geom.Pt(x, y)
			f := c1.Factor(p)
			if f < 1 || f > 1.25 {
				t.Fatalf("factor %v out of range", f)
			}
			if c2.Factor(p) != f {
				same = false
			}
			if c3.Factor(p) != f {
				diff = true
			}
		}
	}
	if !same {
		t.Error("same seed differs")
	}
	if !diff {
		t.Error("different seed identical everywhere")
	}
	// Out-of-die points clamp.
	if f := c1.Factor(geom.Pt(-50, 500)); f < 1 || f > 1.25 {
		t.Errorf("clamped factor = %v", f)
	}
	defer func() {
		if recover() == nil {
			t.Error("no panic on bad grid")
		}
	}()
	NewCongestion(die, 0, 5, 0.1, 1)
}

func TestAddPinDetour(t *testing.T) {
	pins := []geom.Point{geom.Pt(0, 0), geom.Pt(10, 0)}
	tr := MST(pins)
	w := tr.Wirelength()
	tr.AddPinDetour(1, 25)
	if tr.Wirelength() != w+25 {
		t.Errorf("detour not applied: %v", tr.Wirelength())
	}
	tr.AddPinDetour(1, -5) // ignored
	tr.AddPinDetour(0, 10) // root: ignored
	tr.AddPinDetour(7, 10) // absent: ignored
	if tr.Wirelength() != w+25 {
		t.Errorf("invalid detours changed length: %v", tr.Wirelength())
	}
}
