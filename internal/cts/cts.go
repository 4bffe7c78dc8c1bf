// Package cts is the baseline clock-tree synthesizer standing in for the
// commercial tool (Synopsys ICC) that produces the paper's "original clock
// tree". It follows a best-practices recipe:
//
//  1. load- and fanout-bounded leaf clustering of the sinks;
//  2. recursive geometric bisection topology above the leaf level;
//  3. repeater (inverter-pair) insertion on long edges to meet slew/cap
//     design rules;
//  4. skew balancing by wire snaking toward a skew target, either at the
//     nominal corner (MCSM) or across all corners (MCMM) — the two scenarios
//     the paper sweeps before picking its starting point;
//  5. a greedy per-buffer sizing pass (incremental-timing driven), followed
//     by a balancing touch-up;
//  6. placement legalization.
//
// The output deliberately exhibits cross-corner skew variation (balancing
// wire vs. gate delay mixes differ per sink) — the input condition of the
// optimization framework.
package cts

import (
	"fmt"
	"math"
	"sort"

	"skewvar/internal/ctree"
	"skewvar/internal/geom"
	"skewvar/internal/legalize"
	"skewvar/internal/route"
	"skewvar/internal/sta"
)

// Fixed parameters of the synthesis recipe.
const (
	sourceCell            = "CKINVX16" // cell of the root driver
	bufferCell            = "CKINVX8"  // cell for topology/repeater buffers
	leafCell              = "CKINVX4"  // cell for leaf-cluster drivers
	maxLeafFanout         = 20         // sinks per leaf cluster
	repeatDist    float64 = 130        // max unbuffered edge length, µm
)

// Options tunes synthesis. Zero values select documented defaults.
type Options struct {
	TargetSkewPS float64 // balancing skew target (default 0, per paper §5.1)
	MCMM         bool    // balance across all corners instead of nominal
	BalanceIters int     // balancing passes (default 7)
}

func (o *Options) setDefaults() {
	if o.BalanceIters == 0 {
		o.BalanceIters = 7
	}
}

// Synthesize builds a balanced, buffered, legalized clock tree over the
// sinks. The timer supplies the technology and the signoff view used for
// balancing.
func Synthesize(tm *sta.Timer, die geom.Rect, src geom.Point, sinks []geom.Point, opt Options) (*ctree.Tree, error) {
	if len(sinks) == 0 {
		return nil, fmt.Errorf("cts: no sinks")
	}
	opt.setDefaults()
	for _, cn := range []string{sourceCell, bufferCell, leafCell} {
		if tm.Tech.CellByName(cn) == nil {
			return nil, fmt.Errorf("cts: unknown cell %q", cn)
		}
	}
	tr := ctree.NewTree(src, sourceCell)

	// 1. Leaf clustering.
	idx := make([]int, len(sinks))
	for i := range idx {
		idx[i] = i
	}
	clusters := clusterSinks(tm, sinks, idx)

	// 2. Topology above the leaves by recursive bisection.
	centers := make([]geom.Point, len(clusters))
	for i, cl := range clusters {
		pts := make([]geom.Point, len(cl))
		for j, si := range cl {
			pts[j] = sinks[si]
		}
		centers[i] = geom.MedianPoint(pts)
	}
	order := make([]int, len(clusters))
	for i := range order {
		order[i] = i
	}
	buildTop(tr, tr.Source, clusters, centers, order, sinks)

	// 3. Steiner-route multi-fanout nets (tap insertion) and break long
	// edges with repeaters.
	SteinerizeNets(tr)
	insertRepeaters(tr)

	// 4. Skew balancing by snaking, a greedy per-buffer sizing pass (as a
	// commercial CTS would size drivers), then a balancing touch-up.
	balance(tm, tr, opt)
	sizingPass(tm, tr, opt)
	touchUp := opt
	touchUp.BalanceIters = (opt.BalanceIters + 1) / 2
	balance(tm, tr, touchUp)

	// 5. Legalization.
	lg := legalize.New(die, tm.Tech.SiteW, tm.Tech.RowH)
	lg.Legalize(tr)

	if err := tr.Validate(); err != nil {
		return nil, fmt.Errorf("cts: produced invalid tree: %w", err)
	}
	return tr, nil
}

// clusterSinks recursively bisects the sink set until each cluster satisfies
// the fanout bound and an estimated-load bound.
func clusterSinks(tm *sta.Timer, sinks []geom.Point, idx []int) [][]int {
	if len(idx) == 0 {
		return nil
	}
	loadOK := func(ids []int) bool {
		if len(ids) > maxLeafFanout {
			return false
		}
		pts := make([]geom.Point, len(ids))
		for i, si := range ids {
			pts[i] = sinks[si]
		}
		bb := geom.BBox(pts)
		k := tm.Tech.Nominal
		est := float64(len(ids))*tm.Tech.SinkCap + 1.3*bb.HalfPerim()*tm.Tech.WireC(k)
		// Keep headroom for balancing snakes added later.
		return est <= 0.55*tm.Tech.MaxLoad
	}
	if len(idx) == 1 || loadOK(idx) {
		return [][]int{append([]int(nil), idx...)}
	}
	// Split along the longer bbox axis at the median.
	pts := make([]geom.Point, len(idx))
	for i, si := range idx {
		pts[i] = sinks[si]
	}
	bb := geom.BBox(pts)
	byX := bb.W() >= bb.H()
	sorted := append([]int(nil), idx...)
	sort.Slice(sorted, func(a, b int) bool {
		if byX {
			return sinks[sorted[a]].X < sinks[sorted[b]].X
		}
		return sinks[sorted[a]].Y < sinks[sorted[b]].Y
	})
	mid := len(sorted) / 2
	out := clusterSinks(tm, sinks, sorted[:mid])
	return append(out, clusterSinks(tm, sinks, sorted[mid:])...)
}

// buildTop creates the buffer hierarchy over the leaf clusters by recursive
// geometric bisection, attaching leaf drivers and their sinks at the bottom.
func buildTop(tr *ctree.Tree, parent ctree.NodeID, clusters [][]int, centers []geom.Point, subset []int, sinks []geom.Point) {
	if len(subset) == 1 {
		ci := subset[0]
		leaf := tr.AddNode(ctree.KindBuffer, centers[ci], leafCell, parent)
		for _, si := range clusters[ci] {
			s := tr.AddNode(ctree.KindSink, sinks[si], "", leaf.ID)
			s.Name = fmt.Sprintf("ff%d", si)
		}
		return
	}
	pts := make([]geom.Point, len(subset))
	for i, ci := range subset {
		pts[i] = centers[ci]
	}
	med := geom.MedianPoint(pts)
	buf := tr.AddNode(ctree.KindBuffer, med, bufferCell, parent)
	bb := geom.BBox(pts)
	byX := bb.W() >= bb.H()
	sorted := append([]int(nil), subset...)
	sort.Slice(sorted, func(a, b int) bool {
		if byX {
			return centers[sorted[a]].X < centers[sorted[b]].X
		}
		return centers[sorted[a]].Y < centers[sorted[b]].Y
	})
	mid := len(sorted) / 2
	buildTop(tr, buf.ID, clusters, centers, sorted[:mid], sinks)
	buildTop(tr, buf.ID, clusters, centers, sorted[mid:], sinks)
}

// SteinerizeNets replaces the star connection of every node with three or
// more children by a rectilinear Steiner topology: Steiner points become
// transparent tap nodes, so the timer sees the shared-trunk wiring a real
// router produces instead of per-pin star wires.
func SteinerizeNets(tr *ctree.Tree) {
	var drivers []ctree.NodeID
	for _, id := range tr.Topo() {
		if n := tr.Node(id); len(n.Children) >= 3 {
			drivers = append(drivers, id)
		}
	}
	for _, d := range drivers {
		steinerize(tr, d)
	}
}

func steinerize(tr *ctree.Tree, d ctree.NodeID) {
	n := tr.Node(d)
	kids := append([]ctree.NodeID(nil), n.Children...)
	pins := make([]geom.Point, 0, len(kids)+1)
	pins = append(pins, n.Loc)
	for _, c := range kids {
		pins = append(pins, tr.Node(c).Loc)
	}
	rt := route.RSMT(pins)
	// Detach the children; they will be re-attached per the route topology.
	n.Children = nil
	nodeOf := make(map[int]ctree.NodeID, len(rt.Nodes))
	nodeOf[0] = d
	// BFS from the route root so parents are materialized first.
	queue := rt.Children(0)
	for len(queue) > 0 {
		ri := queue[0]
		queue = queue[1:]
		rn := rt.Nodes[ri]
		parent := nodeOf[rn.Parent]
		if rn.Pin >= 1 {
			c := tr.Node(kids[rn.Pin-1])
			attach := parent
			if len(rt.Children(ri)) > 0 {
				// The route passes through this pin: downstream wires belong
				// to the same net, so hang them (and the pin) off a
				// co-located tap rather than the pin's own output.
				tap := tr.AddNode(ctree.KindTap, rn.P, "", parent)
				attach = tap.ID
				nodeOf[ri] = tap.ID
			} else {
				nodeOf[ri] = c.ID
			}
			c.Parent = attach
			tr.Node(attach).Children = append(tr.Node(attach).Children, c.ID)
		} else {
			tap := tr.AddNode(ctree.KindTap, rn.P, "", parent)
			nodeOf[ri] = tap.ID
		}
		queue = append(queue, rt.Children(ri)...)
	}
}

// insertRepeaters breaks driving edges longer than repeatDist with evenly
// spaced inverter pairs.
func insertRepeaters(tr *ctree.Tree) {
	// Snapshot IDs first: we mutate the tree while walking.
	var edges []ctree.NodeID // child end of each candidate edge
	for _, id := range tr.Topo() {
		n := tr.Node(id)
		if n.Kind == ctree.KindSource {
			continue
		}
		if n.Kind == ctree.KindBuffer || n.Kind == ctree.KindTap {
			edges = append(edges, id)
		}
	}
	for _, child := range edges {
		n := tr.Node(child)
		p := tr.Node(n.Parent)
		dist := p.Loc.Manhattan(n.Loc)
		if dist <= repeatDist {
			continue
		}
		k := int(math.Ceil(dist/repeatDist)) - 1
		// Rebuild the edge: parent → r1 → … → rk → child.
		cur := p.ID
		// Detach child from parent.
		for i, c := range p.Children {
			if c == child {
				p.Children = append(p.Children[:i], p.Children[i+1:]...)
				break
			}
		}
		for i := 1; i <= k; i++ {
			f := float64(i) / float64(k+1)
			loc := geom.Pt(p.Loc.X+(n.Loc.X-p.Loc.X)*f, p.Loc.Y+(n.Loc.Y-p.Loc.Y)*f)
			r := tr.AddNode(ctree.KindBuffer, loc, bufferCell, cur)
			cur = r.ID
		}
		n.Parent = cur
		tr.Node(cur).Children = append(tr.Node(cur).Children, child)
	}
}

// balanceMetric returns the per-sink balancing metric: nominal latency for
// MCSM, or the mean of per-corner latencies normalized by each corner's mean
// for MCMM.
func balanceMetric(a *sta.Analysis, sinks []ctree.NodeID, mcmm bool) map[ctree.NodeID]float64 {
	m := make(map[ctree.NodeID]float64, len(sinks))
	if !mcmm {
		for _, s := range sinks {
			m[s] = a.Latency(0, s)
		}
		return m
	}
	means := make([]float64, a.K)
	for k := 0; k < a.K; k++ {
		for _, s := range sinks {
			means[k] += a.Latency(k, s)
		}
		means[k] /= float64(len(sinks))
	}
	for _, s := range sinks {
		var v float64
		for k := 0; k < a.K; k++ {
			if means[k] > 0 {
				v += a.Latency(k, s) / means[k]
			}
		}
		m[s] = v / float64(a.K) * means[0] // rescale into c0 picoseconds
	}
	return m
}

// balance adds snaking detours until the balancing metric spread is within
// the target. Per-sink needs are measured against the slowest sink using
// empirically probed slopes; the part of a subtree's need common to all its
// sinks is hoisted to the subtree root edge (so wire is distributed across
// levels instead of overloading leaf nets), every application is clipped to
// the driving net's capacitance budget, and the best tree seen is kept
// (slope estimates can overshoot at upper levels).
func balance(tm *sta.Timer, tr *ctree.Tree, opt Options) {
	sinks := tr.Sinks()
	if len(sinks) < 2 {
		return
	}
	const probeUM = 30.0
	k := tm.Tech.Nominal
	spreadOf := func(m map[ctree.NodeID]float64) float64 {
		maxM, minM := math.Inf(-1), math.Inf(1)
		for _, v := range m {
			maxM = math.Max(maxM, v)
			minM = math.Min(minM, v)
		}
		return maxM - minM
	}
	var best *ctree.Tree
	bestSpread := math.Inf(1)
	for iter := 0; iter < opt.BalanceIters; iter++ {
		a := tm.Analyze(tr)
		metric := balanceMetric(a, sinks, opt.MCMM)
		spread := spreadOf(metric)
		if spread < bestSpread {
			bestSpread = spread
			best = tr.Clone()
		}
		if spread <= math.Max(opt.TargetSkewPS, 1) {
			break
		}
		maxM := math.Inf(-1)
		for _, v := range metric {
			maxM = math.Max(maxM, v)
		}
		// Probe: uniform +probeUM on every sink measures per-sink slope.
		probe := tr.Clone()
		for _, s := range sinks {
			probe.Node(s).Detour += probeUM
		}
		ap := tm.Analyze(probe)
		mp := balanceMetric(ap, sinks, opt.MCMM)
		need := make(map[ctree.NodeID]float64, len(sinks))
		for _, s := range sinks {
			slope := (mp[s] - metric[s]) / probeUM
			if slope < 1e-4 {
				slope = 1e-4
			}
			if n := (maxM - metric[s]) / slope * 0.7; n > 0 {
				need[s] = math.Min(n, 250)
			}
		}
		// First satisfy as much need as possible at the sink edges
		// themselves (leaf nets usually have capacitance headroom), then
		// hoist only the remainder.
		sinkIDs := append([]ctree.NodeID(nil), sinks...)
		sort.Slice(sinkIDs, func(a, b int) bool { return sinkIDs[a] < sinkIDs[b] })
		for _, sID := range sinkIDs {
			ext := need[sID]
			if ext <= 1 {
				continue
			}
			drv := tr.Driver(sID)
			if drv == ctree.NoNode {
				continue
			}
			budget := (0.92*tm.Tech.MaxLoad - tm.NetLoad(tr, drv, k)) / tm.Tech.WireC(k)
			if budget < 0 {
				budget = 0
			}
			take := math.Min(ext, budget)
			tr.Node(sID).Detour += take
			need[sID] -= take
		}
		// Hoist the common part of each subtree's remaining need onto the
		// subtree root edge (children before parents). The hoisted amount
		// is scaled down: wire higher in the tree carries more downstream
		// capacitance per µm, so its delay slope is steeper than the
		// sink-measured one.
		topo := tr.Topo()
		for i := len(topo) - 1; i >= 0; i-- {
			id := topo[i]
			n := tr.Node(id)
			if id == tr.Source || n.Kind == ctree.KindSink || len(n.Children) == 0 {
				continue
			}
			common := math.Inf(1)
			for _, c := range n.Children {
				common = math.Min(common, need[c])
			}
			if common > 0 && !math.IsInf(common, 1) {
				need[id] += 0.6 * common
				for _, c := range n.Children {
					need[c] -= common
				}
			}
		}
		// Apply in deterministic ID order (the budget clip reads evolving
		// net loads), bounded by the driving net's capacitance budget.
		ids := make([]ctree.NodeID, 0, len(need))
		for id := range need {
			ids = append(ids, id)
		}
		sort.Slice(ids, func(a, b int) bool { return ids[a] < ids[b] })
		for _, id := range ids {
			ext := need[id]
			if ext <= 1 || id == tr.Source {
				continue
			}
			if drv := tr.Driver(id); drv != ctree.NoNode {
				budget := (0.92*tm.Tech.MaxLoad - tm.NetLoad(tr, drv, k)) / tm.Tech.WireC(k)
				if budget < 0 {
					budget = 0
				}
				ext = math.Min(ext, budget)
			}
			tr.Node(id).Detour += ext
		}
	}
	// Keep the best tree seen (a final iteration may have overshot).
	a := tm.Analyze(tr)
	if spreadOf(balanceMetric(a, sinks, opt.MCMM)) > bestSpread && best != nil {
		*tr = *best
	}
}

// sizingPass greedily re-sizes each buffer (topo order) to the drive that
// minimizes the balancing-metric spread while keeping design rules, using
// incremental re-timing for each candidate.
func sizingPass(tm *sta.Timer, tr *ctree.Tree, opt Options) {
	sinks := tr.Sinks()
	if len(sinks) < 2 {
		return
	}
	spreadOf := func(a *sta.Analysis) float64 {
		m := balanceMetric(a, sinks, opt.MCMM)
		maxM, minM := math.Inf(-1), math.Inf(1)
		for _, v := range m {
			maxM = math.Max(maxM, v)
			minM = math.Min(minM, v)
		}
		return maxM - minM
	}
	cur := tm.Analyze(tr)
	curSpread := spreadOf(cur)
	k := tm.Tech.Nominal
	for _, id := range tr.Topo() {
		n := tr.Node(id)
		if n == nil || n.Kind != ctree.KindBuffer {
			continue
		}
		orig := n.CellName
		bestCell, bestSpread, bestA := orig, curSpread, cur
		for _, cand := range tm.Tech.Cells {
			if cand.Name == orig {
				continue
			}
			n.CellName = cand.Name
			// Design rules: the driver's net load changes with our input
			// cap; our own net load is unchanged but our drive must keep
			// slew legal — both covered by the load check plus the spread
			// evaluation itself.
			if drv := tr.Driver(id); drv != ctree.NoNode {
				if tm.NetLoad(tr, drv, k) > tm.Tech.MaxLoad {
					continue
				}
			}
			a2 := tm.AnalyzeIncremental(tr, cur, []ctree.NodeID{id})
			if s := spreadOf(a2); s < bestSpread-1e-9 {
				bestCell, bestSpread, bestA = cand.Name, s, a2
			}
		}
		n.CellName = bestCell
		if bestCell != orig {
			cur, curSpread = bestA, bestSpread
		}
	}
}
