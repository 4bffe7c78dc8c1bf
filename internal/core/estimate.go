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

// numStageFeatures is the width of the per-stage building block produced
// by StageFeatures: 4 absolute estimates + fanout, bbox area, AR, slew,
// drive.
const numStageFeatures = 9

// StageFeatures computes the per-stage building block of every stage
// "driving node d → pins[i]" at every corner, where pins are d's fanout
// pins in tr.FanoutPins order: row (i, k) uses slews[k] as the driver
// input slew (taken from the latest golden analysis at prediction time)
// and is appended to dst as numStageFeatures values at offset
// (i*K+k)*numStageFeatures, K = len(slews). A driver without a known cell
// gets zero rows.
//
// A net's estimate has a wire part and a gate part. The wire part is what
// the driver's cell does not change: the RSMT and single-trunk routes are
// corner- and pin-independent, so each is built and laid out as an RC tree
// once, replayed per corner, and one moment computation per corner serves
// every pin. The gate part is the inverter pair's delay at each route's
// total cap. Its first inverter sees only its input slew, so its table
// lookups are made once per corner and serve both routes.
//
// The estimators deliberately see less than the golden timer: they route
// the net fresh with RSMT / single-trunk topologies over pin locations
// (ignoring the CTS tap embedding) and know nothing about router congestion
// — that estimation gap is what the trained models absorb.
func StageFeatures(t *tech.Tech, tr *ctree.Tree, d ctree.NodeID, pins []ctree.NodeID, slews []float64, dst []float64) []float64 {
	sc := estScratchPool.Get().(*estScratch)
	dst = sc.stageFeatures(t, tr, d, pins, slews, &sc.wire, dst)
	estScratchPool.Put(sc)
	return dst
}

// estScratch is the pooled working set of one net estimate: the two
// routes and their builders' scratch, the route child lists and BFS queue,
// the RC layout, a net's wire part, and the post-move estimator's slew and
// stage-row buffers. Nothing in it outlives the call that took it from the
// pool.
type estScratch struct {
	locs        []geom.Point
	routes      [numRoutes]route.Tree
	rs          route.Scratch
	head, next  []int32   // route child lists: first child, next sibling
	queue, rcOf []int32   // BFS queue; RC node of each route node
	pinRC       []int32   // RC node of each route pin i+1
	loads       []float64 // the load of each pin i, NaN for none
	rc          rctree.Flat
	wire        netWire
	slews       []float64
	stage       []float64
}

var estScratchPool = sync.Pool{New: func() interface{} { return new(estScratch) }}

// numRoutes is the number of route topologies an estimate lays out: RSMT,
// then single trunk. Each gives one Elmore and one D2M EstMode.
const numRoutes = 2

// netWire is the wire part of one net's estimate, at K corners over n
// pins: what a new cell on the driver leaves as it is.
type netWire struct {
	area, ar float64   // the pins' bounding box, driver included
	cap      []float64 // per route and corner, at topo*K+k: the RC tree's total cap
	// Per pin and corner, at (i*K+k)*NumEstModes+m: EstMode m's wire delay
	// from the driver to pin i, m1 for Elmore and D2M for D2M.
	delay []float64
}

// stageFeatures is StageFeatures over caller-owned scratch; it leaves the
// net's wire part in w.
func (sc *estScratch) stageFeatures(t *tech.Tech, tr *ctree.Tree, d ctree.NodeID, pins []ctree.NodeID, slews []float64, w *netWire, dst []float64) []float64 {
	if len(pins) == 0 {
		return dst
	}
	cell := t.CellByName(tr.Node(d).CellName)
	if cell == nil {
		return zeroStageRows(dst, len(pins), len(slews))
	}
	sc.estimateWire(t, tr, d, pins, len(slews), w)
	return gateFeatures(t, cell, len(pins), slews, w, dst)
}

// zeroStageRows appends n pins' zero rows at K corners to dst.
func zeroStageRows(dst []float64, n, K int) []float64 {
	n0 := len(dst)
	dst = slices.Grow(dst, n*K*numStageFeatures)[:n0+n*K*numStageFeatures]
	clear(dst[n0:])
	return dst
}

// estimateWire computes the wire part of d's net over pins at K corners
// into w.
func (sc *estScratch) estimateWire(t *tech.Tech, tr *ctree.Tree, d ctree.NodeID, pins []ctree.NodeID, K int, w *netWire) {
	sc.locs = append(sc.locs[:0], tr.Node(d).Loc)
	sc.loads = sc.loads[:0]
	for _, p := range pins {
		pn := tr.Node(p)
		sc.locs = append(sc.locs, pn.Loc)
		sc.loads = append(sc.loads, pinLoad(t, pn))
	}
	sc.rs.RSMT(&sc.routes[0], sc.locs)
	sc.rs.SingleTrunk(&sc.routes[1], sc.locs)
	bb := geom.BBox(sc.locs)
	w.area, w.ar = bb.Area(), bb.AspectRatio()
	w.cap = slices.Grow(w.cap[:0], numRoutes*K)[:numRoutes*K]
	w.delay = slices.Grow(w.delay[:0], len(pins)*K*int(NumEstModes))[:len(pins)*K*int(NumEstModes)]
	for topo := range sc.routes {
		rt := &sc.routes[topo]
		// Estimator knows intended snaking detours (they are in the design
		// database) but not congestion.
		for i, p := range pins {
			rt.AddPinDetour(i+1, tr.Node(p).Detour)
		}
		sc.layout(t, rt)
		for k := 0; k < K; k++ {
			if k > 0 {
				sc.rc.Replay(t.WireR(k), t.WireC(k))
			}
			w.cap[topo*K+k] = sc.rc.TotalCap()
			m1, m2 := sc.rc.Moments()
			for i, ri := range sc.pinRC {
				at := (i*K+k)*int(NumEstModes) + 2*topo
				w.delay[at] = m1[ri]
				w.delay[at+1] = rctree.D2M(m1[ri], m2[ri])
			}
		}
	}
}

// gateFeatures appends the stage rows of a net of n pins whose driver has
// the given cell and wire part w, at the K = len(slews) corners: each
// route's inverter-pair delay at its total cap, plus each pin's wire
// delays, and the net context.
func gateFeatures(t *tech.Tech, cell *tech.Cell, n int, slews []float64, w *netWire, dst []float64) []float64 {
	K := len(slews)
	n0 := len(dst)
	dst = slices.Grow(dst, n*K*numStageFeatures)[:n0+n*K*numStageFeatures]
	out := dst[n0:]
	for k := 0; k < K; k++ {
		d1, s1 := sta.PairFirstStageTable(t, cell, k, slews[k])
		for topo := 0; topo < numRoutes; topo++ {
			gate := d1 + cell.TableDelayPS(k, s1, w.cap[topo*K+k])
			for i := 0; i < n; i++ {
				at := (i*K+k)*int(NumEstModes) + 2*topo
				f := out[(i*K+k)*numStageFeatures:]
				f[2*topo] = gate + w.delay[at]     // Elmore
				f[2*topo+1] = gate + w.delay[at+1] // D2M
			}
		}
	}
	for i := 0; i < n; i++ {
		for k := 0; k < K; k++ {
			f := out[(i*K+k)*numStageFeatures:]
			f[4] = float64(n)
			f[5] = w.area
			f[6] = w.ar
			f[7] = slews[k]
			f[8] = cell.InCap // proxy for drive strength
		}
	}
	return dst
}

// pinLoad returns the load a fanout pin puts on its net: a buffer's input
// cap, the sink cap, or NaN for none (a buffer of unknown cell).
func pinLoad(t *tech.Tech, pn *ctree.Node) float64 {
	switch pn.Kind {
	case ctree.KindBuffer:
		if c := t.CellByName(pn.CellName); c != nil {
			return c.InCap
		}
	case ctree.KindSink:
		return t.SinkCap
	}
	return math.NaN()
}

// layout lays route rt out on sc.rc at corner 0's wire R/C, attaching the
// pin loads of sc.loads, and records each route pin's RC node in
// sc.pinRC. The walk is a BFS from the driver visiting children in
// ascending route-node index, so parents are materialized first and the RC
// node order is fixed by the route alone.
func (sc *estScratch) layout(t *tech.Tech, rt *route.Tree) {
	n := len(rt.Nodes)
	sc.head = slices.Grow(sc.head[:0], n)[:n]
	sc.next = slices.Grow(sc.next[:0], n)[:n]
	sc.rcOf = slices.Grow(sc.rcOf[:0], n)[:n]
	sc.pinRC = slices.Grow(sc.pinRC[:0], len(sc.loads))[:len(sc.loads)]
	for i := range sc.head {
		sc.head[i] = -1
	}
	clear(sc.pinRC)
	// Prepending in descending index leaves each child list ascending.
	for j := n - 1; j >= 1; j-- {
		p := rt.Nodes[j].Parent
		sc.next[j] = sc.head[p]
		sc.head[p] = int32(j)
	}
	f := &sc.rc
	f.Reset(0)
	sc.rcOf[0] = 0
	rPer, cPer := t.WireR(0), t.WireC(0)
	q := sc.queue[:0]
	for c := sc.head[0]; c >= 0; c = sc.next[c] {
		q = append(q, c)
	}
	for qi := 0; qi < len(q); qi++ {
		ri := q[qi]
		rn := &rt.Nodes[ri]
		end := f.AddWire(int(sc.rcOf[rn.Parent]), rn.EdgeLen, rPer, cPer)
		sc.rcOf[ri] = int32(end)
		if rn.Pin >= 1 {
			sc.pinRC[rn.Pin-1] = int32(end)
			if l := sc.loads[rn.Pin-1]; !math.IsNaN(l) {
				f.AddLoad(end, l)
			}
		}
		for c := sc.head[ri]; c >= 0; c = sc.next[c] {
			q = append(q, c)
		}
	}
	sc.queue = q
}

// GoldenStageDelay returns the golden-timer stage delay (ps) from driving
// node d's input to the given fanout pin at corner k, out of an analysis of
// the same tree.
func GoldenStageDelay(a *sta.Analysis, d, pin ctree.NodeID, k int) float64 {
	return a.Delay(k, d, pin)
}

// stageEstimator computes the delta-latency model features of stages
// against one pre-move tree and its golden analysis; training-set
// generation and move scoring both go through it, one net at a time. It is
// safe for concurrent use. Pre-move estimates are cached per net, since
// many candidate moves touch the same nets.
type stageEstimator struct {
	t   *tech.Tech
	pre *ctree.Tree
	a   *sta.Analysis

	mu       sync.Mutex
	preCache map[ctree.NodeID]*preNet
}

// preNet is the cached pre-move estimate of one net: the driver's fanout
// pins in the pre-move tree, their StageFeatures rows, and the net's wire
// part (nil slices when the driver's cell is unknown). Concurrent features
// calls share it read-only.
type preNet struct {
	pins  []ctree.NodeID
	feats []float64
	wire  netWire
}

func newStageEstimator(t *tech.Tech, pre *ctree.Tree, a *sta.Analysis) *stageEstimator {
	return &stageEstimator{t: t, pre: pre, a: a, preCache: map[ctree.NodeID]*preNet{}}
}

// slewsAt fills slews with the pre-move golden slews at driver d; where
// the analysis holds no slew for d (NaN), the default source slew stands
// in.
func (e *stageEstimator) slewsAt(d ctree.NodeID, slews []float64) []float64 {
	slews = slices.Grow(slews[:0], e.a.K)[:e.a.K]
	for k := range slews {
		slews[k] = e.a.Slew[k][d]
		if math.IsNaN(slews[k]) {
			slews[k] = sta.DefaultSourceSlew
		}
	}
	return slews
}

// preEstimates returns the pre-move estimate of d's net, computing every
// pin's rows on the first request for any of them, on scratch sc whose
// slews are d's.
func (e *stageEstimator) preEstimates(d ctree.NodeID, sc *estScratch) *preNet {
	e.mu.Lock()
	v, ok := e.preCache[d]
	e.mu.Unlock()
	if ok {
		return v
	}
	v = &preNet{pins: e.pre.FanoutPins(d)}
	v.feats = sc.stageFeatures(e.t, e.pre, d, v.pins, sc.slews, &v.wire, nil)
	e.mu.Lock()
	e.preCache[d] = v
	e.mu.Unlock()
	return v
}

// features appends one delta-latency feature row (the layout above) per
// stage "net.d → net.pins[i]" of the post-move tree and corner k, at
// offset (i*K+k)*NumFeatures, where the pins are d's fanout pins there:
// the four analytic estimates of the stage-delay change, the post-move
// estimates and net context, and the golden pre-move stage delay.
//
// A net the move only resizes keeps its pins and their places, so its
// post-move estimate is the pre-move net's wire part under the new cell's
// gate part; a net whose pins differ from the pre-move net's is estimated
// afresh all the same.
//
// The change is measured against the same analytic pipeline on the
// pre-move tree when the stage exists before the move; otherwise (Type-III
// surgery creates brand-new stages) against the golden pre-move stage
// delay in every mode, so the estimated delta is measured against the true
// old path.
func (e *stageEstimator) features(post *ctree.Tree, net netStages, dst []float64) []float64 {
	K := e.a.K
	d, pins := net.d, net.pins
	sc := estScratchPool.Get().(*estScratch)
	sc.slews = e.slewsAt(d, sc.slews)
	pre := e.preEstimates(d, sc)
	var cell *tech.Cell
	if net.resized && pre.wire.cap != nil && slices.Equal(pins, pre.pins) {
		cell = e.t.CellByName(post.Node(d).CellName)
	}
	if cell != nil {
		sc.stage = gateFeatures(e.t, cell, len(pins), sc.slews, &pre.wire, sc.stage[:0])
	} else {
		sc.stage = sc.stageFeatures(e.t, post, d, pins, sc.slews, &sc.wire, sc.stage[:0])
	}
	n0 := len(dst)
	dst = slices.Grow(dst, len(pins)*K*NumFeatures)[:n0+len(pins)*K*NumFeatures]
	for i, pin := range pins {
		pi := slices.Index(pre.pins, pin)
		for k := 0; k < K; k++ {
			row := dst[n0+(i*K+k)*NumFeatures : n0+(i*K+k+1)*NumFeatures]
			fPost := sc.stage[(i*K+k)*numStageFeatures : (i*K+k+1)*numStageFeatures]
			golden := GoldenStageDelay(e.a, d, pin, k)
			for m := range NumEstModes {
				preM := golden
				if pi >= 0 {
					preM = pre.feats[(pi*K+k)*numStageFeatures+int(m)]
				}
				row[m] = fPost[m] - preM
				row[FeatPostBase+m] = fPost[m]
			}
			copy(row[FeatFanout:], fPost[NumEstModes:]) // fanout, bbox area, AR, slew, drive
			row[FeatGoldenPre] = golden
		}
	}
	estScratchPool.Put(sc)
	return dst
}

// featureRow returns the NumFeatures-wide row of stage i at corner k out
// of features' output for a net, capped so appending to it cannot write
// into the next row.
func featureRow(feats []float64, i, k, K int) []float64 {
	lo := (i*K + k) * NumFeatures
	return feats[lo : lo+NumFeatures : lo+NumFeatures]
}

// GoldenStageDelta returns the golden change of the stage "d → pin" between
// two analyses of the pre- and post-move trees.
func GoldenStageDelta(pre, post *sta.Analysis, d, pin ctree.NodeID, k int) float64 {
	return GoldenStageDelay(post, d, pin, k) - GoldenStageDelay(pre, d, pin, k)
}
