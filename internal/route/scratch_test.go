package route

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"skewvar/internal/geom"
)

// builder pairs one Scratch builder with its reference.
type builder struct {
	name  string
	build func(s *Scratch, t *Tree, pins []geom.Point)
	ref   func(pins []geom.Point) *Tree
}

var builders = []builder{
	{"MST", (*Scratch).MST, refMST},
	{"RSMT", (*Scratch).RSMT, refRSMT},
	{"SingleTrunk", (*Scratch).SingleTrunk, refSingleTrunk},
}

// sameTree reports the first difference between two routes: node count,
// then per node the parent, the pin and the bits of every coordinate and
// edge length.
func sameTree(got, want *Tree) error {
	if len(got.Nodes) != len(want.Nodes) {
		return fmt.Errorf("%d nodes, reference %d", len(got.Nodes), len(want.Nodes))
	}
	for i, g := range got.Nodes {
		w := want.Nodes[i]
		switch {
		case g.Parent != w.Parent:
			return fmt.Errorf("node %d: parent %d, reference %d", i, g.Parent, w.Parent)
		case g.Pin != w.Pin:
			return fmt.Errorf("node %d: pin %d, reference %d", i, g.Pin, w.Pin)
		case math.Float64bits(g.P.X) != math.Float64bits(w.P.X),
			math.Float64bits(g.P.Y) != math.Float64bits(w.P.Y):
			return fmt.Errorf("node %d: at %v, reference %v", i, g.P, w.P)
		case math.Float64bits(g.EdgeLen) != math.Float64bits(w.EdgeLen):
			return fmt.Errorf("node %d: edge %v, reference %v", i, g.EdgeLen, w.EdgeLen)
		}
	}
	return nil
}

// checkSets builds every pin set in order with one Scratch and one
// destination tree per builder, and compares each build with its reference.
// Reusing both across sets of different sizes checks that no state of an
// earlier build leaks into a later one. It also checks that building into a
// second tree leaves the first one's nodes alone.
func checkSets(t *testing.T, sets ...[]geom.Point) {
	t.Helper()
	for _, b := range builders {
		var s Scratch
		var dst, other Tree
		for si, pins := range sets {
			b.build(&s, &dst, pins)
			if err := sameTree(&dst, b.ref(pins)); err != nil {
				t.Fatalf("%s, set %d of %d (%d pins %v): %v", b.name, si, len(sets), len(pins), pins, err)
			}
			b.build(&s, &other, sets[len(sets)-1-si])
			if err := sameTree(&dst, b.ref(pins)); err != nil {
				t.Fatalf("%s, set %d: a build into another tree changed this one: %v", b.name, si, err)
			}
		}
	}
}

func TestRouteMatchesReference(t *testing.T) {
	negZero := math.Copysign(0, -1)
	cases := map[string][]geom.Point{
		"one pin":      {geom.Pt(3, 4)},
		"two pins":     {geom.Pt(0, 0), geom.Pt(3, 4)},
		"three pins":   {geom.Pt(-10, 0), geom.Pt(10, 0), geom.Pt(0, 10)},
		"cross":        {geom.Pt(-10, 0), geom.Pt(10, 0), geom.Pt(0, 10), geom.Pt(0, -10)},
		"all coincide": {geom.Pt(5, 5), geom.Pt(5, 5), geom.Pt(5, 5), geom.Pt(5, 5)},
		"duplicates":   {geom.Pt(0, 0), geom.Pt(8, 2), geom.Pt(8, 2), geom.Pt(1, 9), geom.Pt(1, 9), geom.Pt(0, 0)},
		"collinear x":  {geom.Pt(0, 3), geom.Pt(20, 3), geom.Pt(5, 3), geom.Pt(12, 3), geom.Pt(-4, 3)},
		"collinear y":  {geom.Pt(7, 0), geom.Pt(7, -9), geom.Pt(7, 30), geom.Pt(7, 11)},
		"signed zeros": {geom.Pt(negZero, 0), geom.Pt(0, negZero), geom.Pt(negZero, negZero), geom.Pt(0, 0), geom.Pt(0, 5), geom.Pt(negZero, -5)},
		"zeros, odd":   {geom.Pt(0, negZero), geom.Pt(negZero, 0), geom.Pt(4, 0), geom.Pt(0, 4), geom.Pt(negZero, negZero)},
		// A Steiner point whose x (then y) median is a tie of +0 and −0:
		// the stable sort keeps the +0 of the earlier child.
		"steiner x tie": {geom.Pt(-5, 0), geom.Pt(0, 10), geom.Pt(negZero, -10)},
		"steiner y tie": {geom.Pt(0, -5), geom.Pt(10, 0), geom.Pt(-10, negZero)},
		"square":        {geom.Pt(0, 0), geom.Pt(1, 0), geom.Pt(0, 1), geom.Pt(1, 1)},
	}
	for name, pins := range cases {
		t.Run(name, func(t *testing.T) { checkSets(t, pins) })
	}
	rng := rand.New(rand.NewSource(11))
	var sets [][]geom.Point
	for _, n := range []int{30, 3, 1, 17, 2, 40, 5} {
		sets = append(sets, randPins(rng, n))
	}
	// Grid pins: many ties, shared coordinates and duplicate points.
	for _, n := range []int{12, 25, 4} {
		pins := make([]geom.Point, n)
		for i := range pins {
			pins[i] = geom.Pt(float64(rng.Intn(4))*10, float64(rng.Intn(4))*10)
		}
		sets = append(sets, pins)
	}
	// A/B/A: a large set, a small one, then the large one again.
	checkSets(t, append(append(sets, sets[0], sets[1], sets[0]), sets...)...)
}

// fuzzPins decodes one pin per byte pair: each byte is a signed grid step of
// 2.5 µm, and 0x80 stands for −0, so inputs hit ties, duplicate pins and
// both zeros often.
func fuzzPins(b []byte) []geom.Point {
	coord := func(v byte) float64 {
		if v == 0x80 {
			return math.Copysign(0, -1)
		}
		return float64(int8(v)) * 2.5
	}
	pins := make([]geom.Point, 0, len(b)/2)
	for i := 0; i+1 < len(b); i += 2 {
		pins = append(pins, geom.Pt(coord(b[i]), coord(b[i+1])))
	}
	return pins
}

func FuzzRouteMatchesReference(f *testing.F) {
	f.Add([]byte{0, 0, 4, 0, 0, 4}, []byte{1, 1})
	f.Add([]byte{0x80, 0, 0, 0x80, 0x80, 0x80, 0, 0}, []byte{3, 3, 3, 3, 3, 3})
	f.Add([]byte{10, 10, 20, 20, 10, 10, 30, 5, 2, 40, 2, 40}, []byte{0, 0, 7, 9, 100, 200, 3, 3})
	f.Add([]byte{0xfe, 0, 0, 4, 0x80, 0xfc}, []byte{0, 0xfe, 4, 0, 0xfc, 0x80}) // ±0 Steiner ties
	f.Fuzz(func(t *testing.T, a, b []byte) {
		pa, pb := fuzzPins(a), fuzzPins(b)
		if len(pa) == 0 || len(pb) == 0 || len(pa) > 64 || len(pb) > 64 {
			t.Skip()
		}
		checkSets(t, pa, pb, pa)
	})
}

func TestRouteBuildersZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	pins := randPins(rng, 24)
	for _, b := range builders {
		var s Scratch
		var dst Tree
		if allocs := testing.AllocsPerRun(20, func() { b.build(&s, &dst, pins) }); allocs != 0 {
			t.Errorf("warm %s makes %.1f allocations per build, want 0", b.name, allocs)
		}
	}
}
