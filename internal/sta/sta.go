// Package sta is the golden timer of the reproduction: a multi-corner
// static timing analyzer for clock trees. It combines NLDM table
// interpolation for gate delays/slews (see internal/tech), distributed RC
// wire models with the D2M delay metric (see internal/rctree), and PERI slew
// propagation. It also computes the paper's objective: normalized
// clock-skew variation across corners between sequentially adjacent sink
// pairs (§3, Eqs. (1)–(3)).
//
// The paper uses Synopsys PrimeTime as the signoff oracle; every acceptance
// decision in the optimization flow consults this timer in the same role.
package sta

import (
	"math"
	"sync"
	"sync/atomic"

	"skewvar/internal/ctree"
	"skewvar/internal/obs"
	"skewvar/internal/route"
	"skewvar/internal/tech"
)

// InternalPairWireUM is the wire length between the two inverters of a pair.
const InternalPairWireUM = 2.0

// DefaultSourceSlew is the input slew (ps) presented at the clock source.
const DefaultSourceSlew = 30.0

// Timer is a reusable analysis context. The zero value is not usable; build
// with New.
//
// A timer memoizes each driven net's all-corner electrical view across
// analyses in a NetCache keyed by the net's topology hash (see flat.go),
// so trees may be edited freely between calls. Each analysis is one serial
// pass on the calling goroutine. All methods are safe for concurrent use —
// concurrent move trials and serve jobs call one timer, or timers sharing
// one SharedCache — as long as Tech, Cong, Obs and SharedCache are not
// reassigned mid-analysis. Wires are timed with the D2M metric, and the
// source is driven with DefaultSourceSlew.
type Timer struct {
	Tech *tech.Tech
	Cong *route.Congestion // nil → ideal (uncongested) routes

	// Workers has no effect: every analysis runs serially on its caller's
	// goroutine. The field remains for code that still assigns it.
	Workers int

	// Obs, when non-nil, receives analysis spans (sta.analyze /
	// sta.analyze_inc with per-corner children) and analysis counters.
	// Leave nil to make instrumentation free: the hot paths branch on
	// the field before building any attributes.
	Obs *obs.Recorder

	// SharedCache, when non-nil, replaces the timer-owned net cache so
	// identical nets are reused across timers — e.g. across serve jobs
	// resubmitting the same design. The cache checks Tech/Cong identity
	// itself; timers with different technology views must not share one.
	SharedCache *NetCache

	// Net-cache traffic counters (see cache.go). They live on the Timer,
	// not the cache, because the cache object is dropped on technology
	// change, overflow, and FlushNetCache. Schedule-dependent under
	// concurrent trials — report them in metrics, never in traces.
	cacheHits   atomic.Int64
	cacheMisses atomic.Int64
	cacheEvicts atomic.Int64

	cacheMu sync.Mutex
	fcache  *NetCache // lazily created net cache when SharedCache is nil
}

// New returns a timer over the given technology: ideal routes, no
// recorder, and a timer-owned net cache.
func New(t *tech.Tech) *Timer {
	return &Timer{Tech: t}
}

// Analysis holds per-corner arrival times and slews for every live node of
// the analyzed tree. Index arrays are sized to the tree's node table;
// entries for removed nodes are NaN.
type Analysis struct {
	K      int         // number of corners
	Arrive [][]float64 // [corner][nodeID] arrival (ps) at the node's input
	Slew   [][]float64 // [corner][nodeID] input slew (ps) at pins
	MaxLat []float64   // per corner, max sink latency

	// Pooled backing storage (see getAnalysis). nil for an Analysis built
	// outside this package — Release is then a no-op.
	buf  []float64
	rows [][]float64
}

// PairDelay returns the golden delay and output slew of an inverter-pair
// buffer (two gate stages through the short internal wire), evaluated with
// the signoff-accurate gate model.
func PairDelay(t *tech.Tech, cell *tech.Cell, k int, slewIn, loadFF float64) (delay, outSlew float64) {
	internalC := InternalPairWireUM * t.WireC(k)
	load1 := cell.InCap + internalC
	d1 := cell.DelayPS(k, slewIn, load1)
	s1 := cell.OutSlewPS(k, slewIn, load1)
	d2 := cell.DelayPS(k, s1, loadFF)
	s2 := cell.OutSlewPS(k, s1, loadFF)
	return d1 + d2, s2
}

// PairFirstStageTable returns the delay and output slew of an
// inverter-pair buffer's first inverter, which drives the second through
// the short internal wire. It is the estimator-side counterpart of
// PairDelay's first stage: it uses NLDM bilinear interpolation, as a
// Liberty-consuming tool would, and so carries the characterization-grid
// interpolation error relative to the golden model. The stage sees neither
// the net nor its load, so one lookup per (cell, corner, input slew)
// serves every net load: the pair's delay adds the second inverter's,
// cell.TableDelayPS(k, outSlew, load).
func PairFirstStageTable(t *tech.Tech, cell *tech.Cell, k int, slewIn float64) (delay, outSlew float64) {
	internalC := InternalPairWireUM * t.WireC(k)
	load1 := cell.InCap + internalC
	return cell.TableDelayPS(k, slewIn, load1), cell.TableOutSlewPS(k, slewIn, load1)
}

// drivingNode is one source/buffer node with its cell pre-resolved, so
// propagation never touches the cell map and an unknown cell panics before
// any net is timed.
type drivingNode struct {
	id   ctree.NodeID
	cell *tech.Cell
}

// Analyze runs a full multi-corner timing pass over the tree and returns
// the per-corner arrivals, slews, and maximum sink latencies. Each driven
// net's all-corner electrical view is resolved through the hash-keyed net
// cache and propagated from pooled storage — call Release on the result
// when done to keep the warm path allocation-free (optional; unreleased
// analyses are ordinary garbage).
func (tm *Timer) Analyze(tr *ctree.Tree) *Analysis {
	return tm.analyze(tr, nil, nil)
}

// Latency returns the arrival time of a sink at corner k.
func (a *Analysis) Latency(k int, sink ctree.NodeID) float64 { return a.Arrive[k][sink] }

// Skew returns latency(x) − latency(y) at corner k (launch minus capture).
func (a *Analysis) Skew(k int, x, y ctree.NodeID) float64 {
	return a.Arrive[k][x] - a.Arrive[k][y]
}

// Delay returns the delay from node from's input to node to's at corner k,
// arrival(to) − arrival(from), with a NaN arrival at from (a node this
// analysis did not time) read as 0.
func (a *Analysis) Delay(k int, from, to ctree.NodeID) float64 {
	top := a.Arrive[k][from]
	if math.IsNaN(top) {
		top = 0
	}
	return a.Arrive[k][to] - top
}

// MaxAbsSkew returns the local skew at corner k: the maximum |skew| over the
// given sequentially adjacent pairs.
func MaxAbsSkew(a *Analysis, k int, pairs []ctree.SinkPair) float64 {
	var m float64
	for _, p := range pairs {
		if s := math.Abs(a.Skew(k, p.A, p.B)); s > m {
			m = s
		}
	}
	return m
}

// Alphas computes the per-corner normalization factors αk (α0 = 1): the
// average skew-magnitude ratio between the nominal corner and corner k over
// all pairs, per §3 of the paper. Corners with vanishing total skew fall
// back to 1.
func Alphas(a *Analysis, pairs []ctree.SinkPair) []float64 {
	al := make([]float64, a.K)
	var sum0 float64
	for _, p := range pairs {
		sum0 += math.Abs(a.Skew(0, p.A, p.B))
	}
	for k := 0; k < a.K; k++ {
		var sk float64
		for _, p := range pairs {
			sk += math.Abs(a.Skew(k, p.A, p.B))
		}
		if sk < 1e-12 || sum0 < 1e-12 {
			al[k] = 1
		} else {
			al[k] = sum0 / sk
		}
	}
	al[0] = 1
	return al
}

// PairVariation returns V_{i,i'}: the maximum over all corner pairs of the
// normalized skew variation |αk·skew_k − αk'·skew_k'| (Eqs. (1)–(2)).
func PairVariation(a *Analysis, alphas []float64, p ctree.SinkPair) float64 {
	var v float64
	for k := 0; k < a.K; k++ {
		sk := alphas[k] * a.Skew(k, p.A, p.B)
		for k2 := k + 1; k2 < a.K; k2++ {
			s2 := alphas[k2] * a.Skew(k2, p.A, p.B)
			if d := math.Abs(sk - s2); d > v {
				v = d
			}
		}
	}
	return v
}

// SumVariation returns Σ V_{i,i'} over the pairs — the paper's objective
// (reported in ns in Table 5; this returns ps).
func SumVariation(a *Analysis, alphas []float64, pairs []ctree.SinkPair) float64 {
	var s float64
	for _, p := range pairs {
		s += PairVariation(a, alphas, p)
	}
	return s
}

// SkewRatios returns skew_k/skew_0 for each pair whose nominal skew
// magnitude exceeds minSkew — the Figure 9 distribution data.
func SkewRatios(a *Analysis, k int, pairs []ctree.SinkPair, minSkew float64) []float64 {
	var out []float64
	for _, p := range pairs {
		s0 := a.Skew(0, p.A, p.B)
		if math.Abs(s0) < minSkew {
			continue
		}
		out = append(out, a.Skew(k, p.A, p.B)/s0)
	}
	return out
}

// ArcDelays returns, for every arc of the segmentation, the per-corner arc
// delay D_j^ck = arrival(bottom) − arrival(top) (the LP's base delays).
func ArcDelays(a *Analysis, seg *ctree.Segmentation) [][]float64 {
	out := make([][]float64, len(seg.Arcs))
	for i, arc := range seg.Arcs {
		row := make([]float64, a.K)
		for k := 0; k < a.K; k++ {
			row[k] = a.Delay(k, arc.Top, arc.Bottom)
		}
		out[i] = row
	}
	return out
}

// Violations counts max-load and max-slew design-rule violations at the
// nominal corner — used to assert the optimization "does not create any
// maximum transition or maximum capacitance violations" (paper §5.2).
func (tm *Timer) Violations(tr *ctree.Tree) (capViol, slewViol int) {
	a := tm.Analyze(tr)
	k := tm.Tech.Nominal
	cache := tm.flatcache()
	sc := getFlatScratch()
	for _, dr := range tm.appendDrivingNodes(tr, sc) {
		if tm.resolveFlatEval(cache, tr, dr.id, sc).totalCap[k] > tm.Tech.MaxLoad {
			capViol++
		}
	}
	putFlatScratch(sc)
	for _, s := range tr.Sinks() {
		if a.Slew[k][s] > tm.Tech.MaxSlew {
			slewViol++
		}
	}
	return capViol, slewViol
}

// NetLoad returns the total capacitive load (wire + pins) of the net driven
// by node d at corner k. Exposed for the CTS buffer-insertion rules and the
// ECO engine.
func (tm *Timer) NetLoad(tr *ctree.Tree, d ctree.NodeID, k int) float64 {
	return tm.flatNetLoad(tr, d, k)
}

// SkewGuard returns the acceptance ceiling for a local-skew value under the
// "no degradation" constraint: the baseline plus a guard band of 1.5% (min
// 2ps) that absorbs ECO realization and legalization noise. The paper
// reports its no-degradation result at whole-picosecond table precision on
// skews an order of magnitude larger; this band is the equivalent tolerance
// at reproduction scale.
func SkewGuard(base float64) float64 {
	g := 0.015 * base
	if g < 2 {
		g = 2
	}
	return base + g
}
