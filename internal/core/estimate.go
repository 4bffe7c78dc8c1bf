// Package core implements the paper's contribution: the global-local
// optimization framework for simultaneous multi-mode multi-corner clock
// skew variation reduction.
//
//   - Global optimization (global.go): the LP of Eqs. (4)–(11) over arc delay
//     changes, solved per criticality block with a U-sweep, realized by the
//     Algorithm-1 LP-guided ECO.
//   - Local optimization (local.go): the Algorithm-2 iterative flow over the
//     Table-2 move set, guided by machine-learning delta-latency predictors
//     and verified by the golden timer.
//   - Predictors (estimate.go, dataset.go, predictor.go): the four analytic
//     stage-delay estimators ({FLUTE-like RSMT, single-trunk} × {Elmore,
//     D2M}), the stage estimator that encodes them as delta features for
//     both training and move scoring, training-set generation on
//     artificial testcases, and per-corner ANN/SVR/HSM residual models.
package core

import (
	"math"
	"slices"
	"sync"

	"skewvar/internal/ctree"
	"skewvar/internal/geom"
	"skewvar/internal/rctree"
	"skewvar/internal/route"
	"skewvar/internal/sta"
	"skewvar/internal/tech"
)

// EstMode selects one analytic stage-delay estimator.
type EstMode int

// The four analytic estimators of §4.2.
const (
	RSMTElmore EstMode = iota
	RSMTD2M
	TrunkElmore
	TrunkD2M
	NumEstModes
)

// String implements fmt.Stringer.
func (m EstMode) String() string {
	switch m {
	case RSMTElmore:
		return "RSMT+Elmore"
	case RSMTD2M:
		return "RSMT+D2M"
	case TrunkElmore:
		return "Trunk+Elmore"
	case TrunkD2M:
		return "Trunk+D2M"
	}
	return "EstMode(?)"
}

// Feature layout of the delta-latency models. Indices 0–3 are the four
// analytic estimates of the stage-delay *change* ({RSMT, single-trunk} ×
// {Elmore, D2M}; EstMode indexes them); 4–7 are the corresponding absolute
// post-move estimates; the rest is net context (§4.2's fanout count,
// bounding-box area and aspect ratio), the driver input slew and drive
// strength folded in by the Liberty slew-update step, and the pre-move
// golden stage delay, which any incremental flow reads from its timing
// database.
const (
	FeatPostBase  = 4
	FeatFanout    = 8
	FeatArea      = 9
	FeatAR        = 10
	FeatSlew      = 11
	FeatDrive     = 12
	FeatGoldenPre = 13
	// NumFeatures is the model input width.
	NumFeatures = 14
)

// numStageFeatures is the width of the per-net building block produced by
// StageFeatures: 4 absolute estimates + fanout, bbox area, AR, slew, drive.
const numStageFeatures = 9

// StageFeatures computes the per-net building block for the stage "driving
// node d → fanout pin" at every corner: row k uses slews[k] as the driver
// input slew (taken from the latest golden analysis at prediction time).
// The RSMT and single-trunk routes are corner-independent, so each is built
// once and converted to an RC tree per corner.
//
// The estimators deliberately see less than the golden timer: they route
// the net fresh with RSMT / single-trunk topologies over pin locations
// (ignoring the CTS tap embedding) and know nothing about router congestion
// — that estimation gap is what the trained models absorb.
func StageFeatures(t *tech.Tech, tr *ctree.Tree, d, pin ctree.NodeID, slews []float64) [][]float64 {
	dn := tr.Node(d)
	cell := t.CellByName(dn.CellName)
	pins := tr.FanoutPins(d)
	locs := make([]geom.Point, 0, len(pins)+1)
	locs = append(locs, dn.Loc)
	pinIdx := -1
	for i, p := range pins {
		locs = append(locs, tr.Node(p).Loc)
		if p == pin {
			pinIdx = i + 1
		}
	}
	feats := zeroRows(len(slews), numStageFeatures)
	if pinIdx < 0 || cell == nil {
		return feats
	}
	routes := [2]*route.Tree{route.RSMT(locs), route.SingleTrunk(locs)}
	for _, rt := range routes {
		// Estimator knows intended snaking detours (they are in the design
		// database) but not congestion.
		for i, p := range pins {
			rt.AddPinDetour(i+1, tr.Node(p).Detour)
		}
	}
	bb := geom.BBox(locs)
	for k, f := range feats {
		for topo, rt := range routes {
			rc, pinNode := routeToRC(t, tr, rt, pins, k)
			gate, _ := sta.PairDelayTable(t, cell, k, slews[k], rc.TotalCap())
			m1, m2 := rc.Moments()
			ri := pinNode[pinIdx]
			f[2*topo] = gate + m1[ri]                       // Elmore
			f[2*topo+1] = gate + rctree.D2M(m1[ri], m2[ri]) // D2M
		}
		f[4] = float64(len(pins))
		f[5] = bb.Area()
		f[6] = bb.AspectRatio()
		f[7] = slews[k]
		f[8] = cell.InCap // proxy for drive strength
	}
	return feats
}

// zeroRows returns n zeroed rows of the given width over one backing array;
// each row's capacity ends at its width, so appending to one never
// overwrites the next.
func zeroRows(n, width int) [][]float64 {
	buf := make([]float64, n*width)
	out := make([][]float64, n)
	for i := range out {
		out[i] = buf[i*width : (i+1)*width : (i+1)*width]
	}
	return out
}

// routeToRC converts a routing tree into an RC tree at corner k, attaching
// pin loads. It returns the RC and the rc-node index per route pin index.
func routeToRC(t *tech.Tech, tr *ctree.Tree, rt *route.Tree, pins []ctree.NodeID, k int) (*rctree.RC, map[int]int) {
	b := rctree.NewBuilder(0)
	rcOf := map[int]int{0: 0}
	pinNode := map[int]int{0: 0}
	// BFS so parents are materialized first.
	queue := rt.Children(0)
	for len(queue) > 0 {
		ri := queue[0]
		queue = queue[1:]
		rn := rt.Nodes[ri]
		end := b.AddWire(rcOf[rn.Parent], rn.EdgeLen, t.WireR(k), t.WireC(k))
		rcOf[ri] = end
		if rn.Pin >= 1 {
			pinNode[rn.Pin] = end
			pn := tr.Node(pins[rn.Pin-1])
			switch pn.Kind {
			case ctree.KindBuffer:
				if c := t.CellByName(pn.CellName); c != nil {
					b.AddLoad(end, c.InCap)
				}
			case ctree.KindSink:
				b.AddLoad(end, t.SinkCap)
			}
		}
		queue = append(queue, rt.Children(ri)...)
	}
	return b.Done(), pinNode
}

// GoldenStageDelay returns the golden-timer stage delay (ps) from driving
// node d's input to the given fanout pin at corner k, out of an analysis of
// the same tree.
func GoldenStageDelay(a *sta.Analysis, d, pin ctree.NodeID, k int) float64 {
	top := a.Arrive[k][d]
	if math.IsNaN(top) {
		top = 0
	}
	return a.Arrive[k][pin] - top
}

// stageEstimator computes the delta-latency model features of stages
// against one pre-move tree and its golden analysis; training-set
// generation and move scoring both go through it. It is safe for
// concurrent use. Pre-move estimates are cached per stage, since many
// candidate moves touch the same stages.
type stageEstimator struct {
	t   *tech.Tech
	pre *ctree.Tree
	a   *sta.Analysis

	mu       sync.Mutex
	preCache map[[2]ctree.NodeID][][]float64
}

func newStageEstimator(t *tech.Tech, pre *ctree.Tree, a *sta.Analysis) *stageEstimator {
	return &stageEstimator{t: t, pre: pre, a: a, preCache: map[[2]ctree.NodeID][][]float64{}}
}

// estimate runs StageFeatures on tr with the pre-move golden slews at
// driver d; where the analysis holds no slew for d (NaN), the default
// source slew stands in.
func (e *stageEstimator) estimate(tr *ctree.Tree, d, pin ctree.NodeID) [][]float64 {
	slews := make([]float64, e.a.K)
	for k := range slews {
		slews[k] = e.a.Slew[k][d]
		if math.IsNaN(slews[k]) {
			slews[k] = sta.DefaultSourceSlew
		}
	}
	return StageFeatures(e.t, tr, d, pin, slews)
}

// preEstimates returns the per-corner pre-move estimates of the stage
// "d → pin": the same analytic pipeline when the stage exists before the
// move; otherwise (Type-III surgery creates brand-new stages) the golden
// pre-move stage delay in every mode, so the estimated delta is measured
// against the true old path.
func (e *stageEstimator) preEstimates(d, pin ctree.NodeID) [][]float64 {
	key := [2]ctree.NodeID{d, pin}
	e.mu.Lock()
	v, ok := e.preCache[key]
	e.mu.Unlock()
	if ok {
		return v
	}
	if slices.Contains(e.pre.FanoutPins(d), pin) {
		v = e.estimate(e.pre, d, pin)
	} else {
		v = zeroRows(e.a.K, int(NumEstModes))
		for k, r := range v {
			g := GoldenStageDelay(e.a, d, pin, k)
			for m := range r {
				r[m] = g
			}
		}
	}
	e.mu.Lock()
	e.preCache[key] = v
	e.mu.Unlock()
	return v
}

// features returns one delta-latency feature row per corner (the layout
// above) for the stage "d → pin" of the post-move tree: the four analytic
// estimates of the stage-delay change, the post-move estimates and net
// context, and the golden pre-move stage delay.
func (e *stageEstimator) features(post *ctree.Tree, d, pin ctree.NodeID) [][]float64 {
	fPost := e.estimate(post, d, pin)
	pre := e.preEstimates(d, pin)
	out := zeroRows(e.a.K, NumFeatures)
	for k, row := range out {
		for m := range NumEstModes {
			row[m] = fPost[k][m] - pre[k][m]
			row[FeatPostBase+m] = fPost[k][m]
		}
		copy(row[FeatFanout:], fPost[k][NumEstModes:]) // fanout, bbox area, AR, slew, drive
		row[FeatGoldenPre] = GoldenStageDelay(e.a, d, pin, k)
	}
	return out
}

// GoldenStageDelta returns the golden change of the stage "d → pin" between
// two analyses of the pre- and post-move trees.
func GoldenStageDelta(pre, post *sta.Analysis, d, pin ctree.NodeID, k int) float64 {
	return GoldenStageDelay(post, d, pin, k) - GoldenStageDelay(pre, d, pin, k)
}
