package sta

// The reference timer the differential suite (differential_test.go) holds
// Analyze and AnalyzeIncremental to, bit for bit. It is the timing
// algorithm written as plainly as possible: one corner at a time, every
// driven net rebuilt with rctree.Builder on every visit, drivers walked in
// Tree.Topo order. It keeps no cache, pools no memory, starts no
// goroutines and emits no spans, and it calls none of the kernel's walk,
// hash or cache helpers — only PairDelay and the rctree metrics, which
// define the timing model. Of the Timer it reads Tech and Cong.

import (
	"fmt"
	"math"

	"skewvar/internal/ctree"
	"skewvar/internal/geom"
	"skewvar/internal/rctree"
	"skewvar/internal/tech"
)

// ReferenceAnalyze is the reference full analysis of tr under tm's
// configuration.
func ReferenceAnalyze(tm *Timer, tr *ctree.Tree) *Analysis {
	a := refAnalysis(tm.Tech.NumCorners(), len(tr.Nodes))
	for k := 0; k < a.K; k++ {
		a.Arrive[k][tr.Source] = 0
		a.Slew[k][tr.Source] = DefaultSourceSlew
		for _, d := range refDrivers(tr) {
			refTimeNet(tm, tr, d, a, k)
		}
		a.MaxLat[k] = refMaxLat(tr, a.Arrive[k])
	}
	return a
}

// ReferenceAnalyzeIncremental is the reference incremental analysis,
// following the rule AnalyzeIncremental documents: copy the baseline,
// re-time the dirty nodes' nets in full, and per corner shift every other
// net by its driver's arrival delta while the driver's input slew stays
// within slewConvergedEps of the baseline and all its nodes are in the
// baseline; re-time it in full otherwise.
func ReferenceAnalyzeIncremental(tm *Timer, tr *ctree.Tree, base *Analysis, dirty []ctree.NodeID) *Analysis {
	recompute := map[ctree.NodeID]bool{}
	for _, d := range dirty {
		n := tr.Node(d)
		if n == nil {
			continue
		}
		if n.Kind == ctree.KindSource || n.Kind == ctree.KindBuffer {
			recompute[d] = true
		}
		if drv := tr.Driver(d); drv != ctree.NoNode {
			recompute[drv] = true
		}
	}
	a := refAnalysis(tm.Tech.NumCorners(), len(tr.Nodes))
	for k := 0; k < a.K; k++ {
		arr, slw := a.Arrive[k], a.Slew[k]
		var bArr, bSlw []float64
		if k < base.K {
			bArr, bSlw = base.Arrive[k], base.Slew[k]
		}
		copy(arr, bArr)
		copy(slw, bSlw)
		arr[tr.Source] = 0
		slw[tr.Source] = DefaultSourceSlew
		baseAt := func(id ctree.NodeID) (arrB, slewB float64, ok bool) {
			if int(id) >= len(bArr) {
				return 0, 0, false
			}
			return bArr[id], bSlw[id], !math.IsNaN(bArr[id])
		}
		for _, d := range refDrivers(tr) {
			full := recompute[d]
			var delta float64
			if !full {
				bA, bS, ok := baseAt(d)
				if !ok || math.Abs(slw[d]-bS) > slewConvergedEps {
					full = true
				} else {
					delta = arr[d] - bA
				}
			}
			if full {
				refTimeNet(tm, tr, d, a, k)
				continue
			}
			if delta == 0 {
				continue
			}
			ids, _, _, _ := refNet(tm, tr, d, k)
			shifted := true
			for _, id := range ids {
				bA, bS, ok := baseAt(id)
				if !ok {
					shifted = false
					break
				}
				arr[id], slw[id] = bA+delta, bS
			}
			if !shifted {
				refTimeNet(tm, tr, d, a, k)
			}
		}
		a.MaxLat[k] = refMaxLat(tr, arr)
	}
	return a
}

// refAnalysis allocates K corners of n node slots, every entry NaN.
func refAnalysis(K, n int) *Analysis {
	a := &Analysis{K: K, Arrive: make([][]float64, K), Slew: make([][]float64, K), MaxLat: make([]float64, K)}
	for k := 0; k < K; k++ {
		a.Arrive[k] = make([]float64, n)
		a.Slew[k] = make([]float64, n)
		for i := 0; i < n; i++ {
			a.Arrive[k][i] = math.NaN()
			a.Slew[k][i] = math.NaN()
		}
	}
	return a
}

// refDrivers lists the source and buffers in Tree.Topo order, so every
// driver's input arrival and slew are set before its net is timed.
func refDrivers(tr *ctree.Tree) []ctree.NodeID {
	var out []ctree.NodeID
	for _, id := range tr.Topo() {
		if k := tr.Node(id).Kind; k == ctree.KindSource || k == ctree.KindBuffer {
			out = append(out, id)
		}
	}
	return out
}

// refCell resolves a node's cell, panicking on an unknown name as Analyze
// does.
func refCell(tm *Timer, n *ctree.Node) *tech.Cell {
	cell := tm.Tech.CellByName(n.CellName)
	if cell == nil {
		panic(fmt.Sprintf("sta: unknown cell %q at node %d", n.CellName, n.ID))
	}
	return cell
}

// refNet builds the corner-k RC tree of the net driven by d, walking the
// clock tree through transparent taps, and returns the net's nodes in
// walk order with the driver's load and each node's first two moments.
func refNet(tm *Timer, tr *ctree.Tree, d ctree.NodeID, k int) (ids []ctree.NodeID, load float64, m1, m2 []float64) {
	rPer, cPer := tm.Tech.WireR(k), tm.Tech.WireC(k)
	b := rctree.NewBuilder(0)
	at := map[ctree.NodeID]int{d: 0} // RC index of each placed tree node
	type frame struct{ id, parent ctree.NodeID }
	var stack []frame
	for _, c := range tr.Node(d).Children {
		stack = append(stack, frame{c, d})
	}
	var ris []int
	for len(stack) > 0 {
		f := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		n := tr.Node(f.id)
		if n == nil {
			continue
		}
		p := tr.Node(f.parent)
		length := p.Loc.Manhattan(n.Loc)
		if tm.Cong != nil && length > 0 {
			length *= tm.Cong.Factor(geom.Midpoint(p.Loc, n.Loc))
		}
		length += n.Detour
		ri := b.AddWire(at[f.parent], length, rPer, cPer)
		at[f.id] = ri
		ids = append(ids, f.id)
		ris = append(ris, ri)
		switch n.Kind {
		case ctree.KindBuffer:
			b.AddLoad(ri, refCell(tm, n).InCap)
		case ctree.KindSink:
			b.AddLoad(ri, tm.Tech.SinkCap)
		case ctree.KindTap:
			for _, c := range n.Children {
				stack = append(stack, frame{c, f.id})
			}
		}
	}
	rc := b.Done()
	all1, all2 := rc.Moments()
	for _, ri := range ris {
		m1 = append(m1, all1[ri])
		m2 = append(m2, all2[ri])
	}
	return ids, rc.TotalCap(), m1, m2
}

// refTimeNet times the net driven by d at corner k: the driver's pair
// delay into the net's load, then each node's wire delay and PERI slew.
func refTimeNet(tm *Timer, tr *ctree.Tree, d ctree.NodeID, a *Analysis, k int) {
	ids, load, m1, m2 := refNet(tm, tr, d, k)
	dly, outSlew := PairDelay(tm.Tech, refCell(tm, tr.Node(d)), k, a.Slew[k][d], load)
	arrIn := a.Arrive[k][d]
	for i, id := range ids {
		a.Arrive[k][id] = arrIn + dly + rctree.D2M(m1[i], m2[i])
		a.Slew[k][id] = rctree.PERISlew(outSlew, rctree.StepSlew(m1[i], m2[i]))
	}
}

// refMaxLat is the largest sink arrival, 0 when no sink is timed.
func refMaxLat(tr *ctree.Tree, arr []float64) float64 {
	var m float64
	for _, s := range tr.Sinks() {
		if v := arr[s]; !math.IsNaN(v) && v > m {
			m = v
		}
	}
	return m
}
