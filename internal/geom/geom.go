// Package geom provides the small set of planar geometry primitives used
// throughout the clock-network optimizer: points, rectangles and Manhattan
// (rectilinear) metrics. All coordinates are in micrometers.
package geom

import (
	"fmt"
	"math"
)

// Point is a location in the placement plane, in µm.
type Point struct {
	X, Y float64
}

// Pt is a convenience constructor.
func Pt(x, y float64) Point { return Point{X: x, Y: y} }

// Add returns p + q componentwise.
func (p Point) Add(q Point) Point { return Point{p.X + q.X, p.Y + q.Y} }

// Sub returns p - q componentwise.
func (p Point) Sub(q Point) Point { return Point{p.X - q.X, p.Y - q.Y} }

// Manhattan returns the rectilinear distance between p and q.
func (p Point) Manhattan(q Point) float64 {
	return math.Abs(p.X-q.X) + math.Abs(p.Y-q.Y)
}

// Eq reports whether p and q coincide exactly.
func (p Point) Eq(q Point) bool { return p.X == q.X && p.Y == q.Y }

// String implements fmt.Stringer.
func (p Point) String() string { return fmt.Sprintf("(%.3f,%.3f)", p.X, p.Y) }

// Midpoint returns the midpoint of p and q.
func Midpoint(p, q Point) Point { return Point{(p.X + q.X) / 2, (p.Y + q.Y) / 2} }

// Rect is an axis-aligned rectangle. Lo is the min corner, Hi the max corner.
type Rect struct {
	Lo, Hi Point
}

// NewRect returns the rectangle spanning the two corner points in any order.
func NewRect(a, b Point) Rect {
	return Rect{
		Lo: Point{math.Min(a.X, b.X), math.Min(a.Y, b.Y)},
		Hi: Point{math.Max(a.X, b.X), math.Max(a.Y, b.Y)},
	}
}

// W returns the rectangle width (x extent).
func (r Rect) W() float64 { return r.Hi.X - r.Lo.X }

// H returns the rectangle height (y extent).
func (r Rect) H() float64 { return r.Hi.Y - r.Lo.Y }

// Area returns the rectangle area in µm².
func (r Rect) Area() float64 { return r.W() * r.H() }

// HalfPerim returns the half-perimeter wirelength of the rectangle.
func (r Rect) HalfPerim() float64 { return r.W() + r.H() }

// AspectRatio returns min(W,H)/max(W,H) in [0,1]; a degenerate rectangle
// (zero max extent) has aspect ratio 1 by convention.
func (r Rect) AspectRatio() float64 {
	w, h := r.W(), r.H()
	mx := math.Max(w, h)
	if mx == 0 {
		return 1
	}
	return math.Min(w, h) / mx
}

// Center returns the rectangle center.
func (r Rect) Center() Point { return Midpoint(r.Lo, r.Hi) }

// Contains reports whether p lies within r (inclusive boundary).
func (r Rect) Contains(p Point) bool {
	return p.X >= r.Lo.X && p.X <= r.Hi.X && p.Y >= r.Lo.Y && p.Y <= r.Hi.Y
}

// Clamp returns the point of r closest to p.
func (r Rect) Clamp(p Point) Point {
	return Point{
		X: math.Min(math.Max(p.X, r.Lo.X), r.Hi.X),
		Y: math.Min(math.Max(p.Y, r.Lo.Y), r.Hi.Y),
	}
}

// Union returns the smallest rectangle covering both r and s.
func (r Rect) Union(s Rect) Rect {
	return Rect{
		Lo: Point{math.Min(r.Lo.X, s.Lo.X), math.Min(r.Lo.Y, s.Lo.Y)},
		Hi: Point{math.Max(r.Hi.X, s.Hi.X), math.Max(r.Hi.Y, s.Hi.Y)},
	}
}

// BBox returns the bounding box of a non-empty point set. It panics on an
// empty slice, since an empty bounding box has no meaningful value.
func BBox(pts []Point) Rect {
	if len(pts) == 0 {
		panic("geom: BBox of empty point set")
	}
	r := Rect{Lo: pts[0], Hi: pts[0]}
	for _, p := range pts[1:] {
		if p.X < r.Lo.X {
			r.Lo.X = p.X
		}
		if p.Y < r.Lo.Y {
			r.Lo.Y = p.Y
		}
		if p.X > r.Hi.X {
			r.Hi.X = p.X
		}
		if p.Y > r.Hi.Y {
			r.Hi.Y = p.Y
		}
	}
	return r
}

// MedianPoint returns the componentwise median of the point set, the
// Manhattan 1-median of the points (optimal meeting point under the
// rectilinear metric). It panics on an empty slice.
func MedianPoint(pts []Point) Point {
	if len(pts) == 0 {
		panic("geom: MedianPoint of empty point set")
	}
	xs := make([]float64, len(pts))
	ys := make([]float64, len(pts))
	for i, p := range pts {
		xs[i] = p.X
		ys[i] = p.Y
	}
	return Point{X: Median(xs), Y: Median(ys)}
}

// Median returns the median of a non-empty slice, the mean of the two
// middle values for an even count, and leaves v sorted ascending. The sort
// is a stable insertion sort, so among values that compare equal (−0 and
// +0) the one earlier in v stays earlier.
func Median(v []float64) float64 {
	// Insertion sort: point sets here are small (net fanouts).
	for i := 1; i < len(v); i++ {
		for j := i; j > 0 && v[j] < v[j-1]; j-- {
			v[j], v[j-1] = v[j-1], v[j]
		}
	}
	n := len(v)
	if n%2 == 1 {
		return v[n/2]
	}
	return (v[n/2-1] + v[n/2]) / 2
}
