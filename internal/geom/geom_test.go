package geom

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEq(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestPointArithmetic(t *testing.T) {
	p := Pt(1, 2)
	q := Pt(3, -4)
	if got := p.Add(q); !got.Eq(Pt(4, -2)) {
		t.Errorf("Add = %v", got)
	}
	if got := p.Sub(q); !got.Eq(Pt(-2, 6)) {
		t.Errorf("Sub = %v", got)
	}
}

func TestManhattanAndEuclid(t *testing.T) {
	p, q := Pt(0, 0), Pt(3, 4)
	if d := p.Manhattan(q); !almostEq(d, 7) {
		t.Errorf("Manhattan = %v, want 7", d)
	}
	if d := p.Manhattan(p); d != 0 {
		t.Errorf("self distance = %v", d)
	}
}

func TestManhattanProperties(t *testing.T) {
	// Symmetry, non-negativity, triangle inequality.
	clamp := func(v float64) float64 {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return 0
		}
		return math.Mod(v, 1e6) // keep coordinates in a chip-scale range
	}
	f := func(ax, ay, bx, by, cx, cy float64) bool {
		a := Pt(clamp(ax), clamp(ay))
		b := Pt(clamp(bx), clamp(by))
		c := Pt(clamp(cx), clamp(cy))
		dab, dba := a.Manhattan(b), b.Manhattan(a)
		if dab != dba || dab < 0 {
			return false
		}
		return a.Manhattan(c) <= a.Manhattan(b)+b.Manhattan(c)+1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestRectBasics(t *testing.T) {
	r := NewRect(Pt(5, 1), Pt(1, 3))
	if !r.Lo.Eq(Pt(1, 1)) || !r.Hi.Eq(Pt(5, 3)) {
		t.Fatalf("NewRect normalization failed: %+v", r)
	}
	if !almostEq(r.W(), 4) || !almostEq(r.H(), 2) {
		t.Errorf("W/H = %v/%v", r.W(), r.H())
	}
	if !almostEq(r.Area(), 8) {
		t.Errorf("Area = %v", r.Area())
	}
	if !almostEq(r.HalfPerim(), 6) {
		t.Errorf("HalfPerim = %v", r.HalfPerim())
	}
	if !almostEq(r.AspectRatio(), 0.5) {
		t.Errorf("AspectRatio = %v", r.AspectRatio())
	}
	if !r.Center().Eq(Pt(3, 2)) {
		t.Errorf("Center = %v", r.Center())
	}
	if !r.Contains(Pt(1, 1)) || !r.Contains(Pt(3, 2)) || r.Contains(Pt(0, 2)) {
		t.Error("Contains misbehaves")
	}
}

func TestRectDegenerateAspect(t *testing.T) {
	r := NewRect(Pt(2, 2), Pt(2, 2))
	if ar := r.AspectRatio(); ar != 1 {
		t.Errorf("degenerate aspect = %v, want 1", ar)
	}
}

func TestRectClamp(t *testing.T) {
	r := NewRect(Pt(0, 0), Pt(10, 10))
	cases := []struct{ in, want Point }{
		{Pt(-5, 5), Pt(0, 5)},
		{Pt(15, 15), Pt(10, 10)},
		{Pt(3, 4), Pt(3, 4)},
	}
	for _, c := range cases {
		if got := r.Clamp(c.in); !got.Eq(c.want) {
			t.Errorf("Clamp(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestRectExpandUnionIntersects(t *testing.T) {
	r := NewRect(Pt(0, 0), Pt(2, 2))
	s := NewRect(Pt(3, 3), Pt(4, 4))
	u := r.Union(s)
	if !u.Lo.Eq(Pt(0, 0)) || !u.Hi.Eq(Pt(4, 4)) {
		t.Errorf("Union = %+v", u)
	}
}

func TestBBox(t *testing.T) {
	pts := []Point{Pt(1, 5), Pt(-2, 3), Pt(4, -1)}
	r := BBox(pts)
	if !r.Lo.Eq(Pt(-2, -1)) || !r.Hi.Eq(Pt(4, 5)) {
		t.Errorf("BBox = %+v", r)
	}
	defer func() {
		if recover() == nil {
			t.Error("BBox(empty) did not panic")
		}
	}()
	BBox(nil)
}

func TestBBoxContainsAllProperty(t *testing.T) {
	f := func(raw []float64) bool {
		if len(raw) < 2 {
			return true
		}
		pts := make([]Point, 0, len(raw)/2)
		for i := 0; i+1 < len(raw); i += 2 {
			pts = append(pts, Pt(raw[i], raw[i+1]))
		}
		r := BBox(pts)
		for _, p := range pts {
			if !r.Contains(p) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestMedianPoint(t *testing.T) {
	pts := []Point{Pt(0, 0), Pt(10, 2), Pt(4, 8)}
	m := MedianPoint(pts)
	if !m.Eq(Pt(4, 2)) {
		t.Errorf("MedianPoint = %v", m)
	}
	// Median minimizes the sum of Manhattan distances; check against a few
	// perturbations.
	sum := func(c Point) float64 {
		var s float64
		for _, p := range pts {
			s += c.Manhattan(p)
		}
		return s
	}
	base := sum(m)
	for _, d := range []Point{Pt(1, 0), Pt(-1, 0), Pt(0, 1), Pt(0, -1)} {
		if sum(m.Add(d)) < base-1e-9 {
			t.Errorf("median not optimal: moving by %v improves", d)
		}
	}
}

func TestMedianPointEven(t *testing.T) {
	pts := []Point{Pt(0, 0), Pt(2, 2)}
	if m := MedianPoint(pts); !m.Eq(Pt(1, 1)) {
		t.Errorf("MedianPoint even = %v", m)
	}
}

func TestMidpoint(t *testing.T) {
	if m := Midpoint(Pt(0, 0), Pt(2, 4)); !m.Eq(Pt(1, 2)) {
		t.Errorf("Midpoint = %v", m)
	}
}
