package route

import (
	"math"

	"skewvar/internal/geom"
)

// The allocating route builders, kept as the test oracle: each builds a
// fresh tree, recomputes child lists with Tree.Children, and takes medians
// over freshly allocated coordinate slices. TestRouteMatchesReference and
// FuzzRouteMatchesReference hold MST, RSMT and SingleTrunk to them node for
// node, bit for bit.

func refMST(pins []geom.Point) *Tree {
	if len(pins) == 0 {
		panic("route: MST of empty pin set")
	}
	n := len(pins)
	t := &Tree{Nodes: make([]Node, 0, n)}
	t.Nodes = append(t.Nodes, Node{P: pins[0], Parent: -1, Pin: 0})
	inTree := make([]bool, n)
	inTree[0] = true
	best := make([]float64, n) // cheapest distance to the tree
	bestTo := make([]int, n)   // node index in t.Nodes realizing best
	for i := 1; i < n; i++ {
		best[i] = pins[i].Manhattan(pins[0])
		bestTo[i] = 0
	}
	for added := 1; added < n; added++ {
		pick, pickD := -1, math.Inf(1)
		for i := 1; i < n; i++ {
			if !inTree[i] && best[i] < pickD {
				pick, pickD = i, best[i]
			}
		}
		t.Nodes = append(t.Nodes, Node{P: pins[pick], Parent: bestTo[pick], EdgeLen: pickD, Pin: pick})
		inTree[pick] = true
		ni := len(t.Nodes) - 1
		for i := 1; i < n; i++ {
			if !inTree[i] {
				if d := pins[i].Manhattan(pins[pick]); d < best[i] {
					best[i], bestTo[i] = d, ni
				}
			}
		}
	}
	return t
}

func refRSMT(pins []geom.Point) *Tree {
	t := refMST(pins)
	if len(pins) < 3 {
		return t
	}
	improved := true
	for pass := 0; pass < 3 && improved; pass++ {
		improved = false
		for i := 0; i < len(t.Nodes); i++ {
			kids := t.Children(i)
			if len(kids) < 2 {
				continue
			}
			bestGain := 1e-9
			bestA, bestB := -1, -1
			var bestS geom.Point
			for x := 0; x < len(kids); x++ {
				for y := x + 1; y < len(kids); y++ {
					a, b := kids[x], kids[y]
					s := refMedianPoint([]geom.Point{t.Nodes[i].P, t.Nodes[a].P, t.Nodes[b].P})
					old := t.Nodes[a].EdgeLen + t.Nodes[b].EdgeLen
					nw := s.Manhattan(t.Nodes[i].P) + s.Manhattan(t.Nodes[a].P) + s.Manhattan(t.Nodes[b].P)
					if gain := old - nw; gain > bestGain {
						bestGain, bestA, bestB, bestS = gain, a, b, s
					}
				}
			}
			if bestA < 0 {
				continue
			}
			t.Nodes = append(t.Nodes, Node{
				P: bestS, Parent: i, EdgeLen: bestS.Manhattan(t.Nodes[i].P), Pin: -1,
			})
			si := len(t.Nodes) - 1
			t.Nodes[bestA].Parent = si
			t.Nodes[bestA].EdgeLen = bestS.Manhattan(t.Nodes[bestA].P)
			t.Nodes[bestB].Parent = si
			t.Nodes[bestB].EdgeLen = bestS.Manhattan(t.Nodes[bestB].P)
			improved = true
		}
	}
	return t
}

func refSingleTrunk(pins []geom.Point) *Tree {
	if len(pins) == 0 {
		panic("route: SingleTrunk of empty pin set")
	}
	t := &Tree{Nodes: []Node{{P: pins[0], Parent: -1, Pin: 0}}}
	if len(pins) == 1 {
		return t
	}
	bb := geom.BBox(pins)
	med := refMedianPoint(pins)
	horizontal := bb.W() >= bb.H()
	var driverTap geom.Point
	if horizontal {
		driverTap = geom.Pt(pins[0].X, med.Y)
	} else {
		driverTap = geom.Pt(med.X, pins[0].Y)
	}
	t.Nodes = append(t.Nodes, Node{P: driverTap, Parent: 0, EdgeLen: driverTap.Manhattan(pins[0]), Pin: -1})
	trunkRoot := 1
	for p := 1; p < len(pins); p++ {
		var tap geom.Point
		if horizontal {
			tap = geom.Pt(pins[p].X, med.Y)
		} else {
			tap = geom.Pt(med.X, pins[p].Y)
		}
		ti := len(t.Nodes)
		t.Nodes = append(t.Nodes, Node{P: tap, Parent: trunkRoot, EdgeLen: tap.Manhattan(driverTap), Pin: -1})
		t.Nodes = append(t.Nodes, Node{P: pins[p], Parent: ti, EdgeLen: pins[p].Manhattan(tap), Pin: p})
	}
	return t
}

// refMedianPoint is geom.MedianPoint with its allocating coordinate slices.
func refMedianPoint(pts []geom.Point) geom.Point {
	if len(pts) == 0 {
		panic("geom: MedianPoint of empty point set")
	}
	xs := make([]float64, len(pts))
	ys := make([]float64, len(pts))
	for i, p := range pts {
		xs[i] = p.X
		ys[i] = p.Y
	}
	return geom.Point{X: refMedian(xs), Y: refMedian(ys)}
}

func refMedian(v []float64) float64 {
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
