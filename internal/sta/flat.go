package sta

// The flat kernel behind Analyze and AnalyzeIncremental. The differential
// suite (differential_test.go) holds it bitwise equal to a plain per-corner
// reference timer (reference_test.go). Its layout:
//
//   - Net electrical views are built once per (driver, net) for ALL
//     corners in one pass over a pooled struct-of-arrays rctree.Flat:
//     the topology walk, congestion factors, and segment lengths are
//     corner-independent, so corners beyond the first only replay the
//     recorded R/C program and rerun the moment recursions.
//   - Views are cached in a NetCache keyed by the FNV-1a topology hash
//     alone, so identical nets share one entry across drivers, analyses,
//     and — via Timer.SharedCache — across serve jobs (the SwiftCTS-style
//     cross-design reuse). The hash digests everything the build reads,
//     so hash equality implies view equality; stale entries are simply
//     never looked up again.
//   - All per-analysis working memory (driver lists, hash stacks, sink
//     lists, the Analysis itself) comes from sync.Pools and is reset,
//     not reallocated: the warm path runs at ~zero allocations
//     (alloc_test.go pins this).
//
// Propagation is one serial, driver-major pass (analyze): each (driver,
// net) pair is timed at every corner before the next. The timer starts no
// goroutines; concurrent callers share only the cache's immutable views.

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"skewvar/internal/ctree"
	"skewvar/internal/geom"
	"skewvar/internal/obs"
	"skewvar/internal/rctree"
	"skewvar/internal/route"
	"skewvar/internal/tech"
)

// flatNetEval is the all-corner electrical view of one net: the driver
// load per corner and the first two impulse-response moments at every
// net node, corner-major (m1[k*S+i] belongs to ids[i] at corner k).
// Entries are immutable after construction and safely shared across
// goroutines, drivers, analyses, and jobs.
type flatNetEval struct {
	ids      []ctree.NodeID
	totalCap []float64 // [K]
	m1, m2   []float64 // [K*len(ids)]
}

// NetCache is a bounded, hash-keyed store of net electrical views,
// shareable across Timers: attach one to Timer.SharedCache so repeated
// designs (e.g. identical serve jobs) skip cold net builds entirely.
// The key is the net's topology hash, which digests everything the
// build reads from the tree — equal hash ⇒ equal view — so entries
// never go stale; edits simply hash elsewhere. Correctness never
// depends on retention: on overflow the map is dropped whole.
//
// The technology and congestion identities the views were built against
// are part of the cache state (they feed the electrics but not the
// hash); a lookup under a different identity resets the cache first.
type NetCache struct {
	mu   sync.RWMutex
	m    map[uint64]*flatNetEval
	tech *tech.Tech
	cong *route.Congestion
}

// NewNetCache returns an empty shareable net cache.
func NewNetCache() *NetCache {
	return &NetCache{m: make(map[uint64]*flatNetEval)}
}

// ensure resets the cache when the technology or congestion identity it
// was built against has changed.
func (c *NetCache) ensure(t *tech.Tech, cg *route.Congestion) {
	c.mu.Lock()
	if c.m == nil || c.tech != t || c.cong != cg {
		c.m = make(map[uint64]*flatNetEval)
		c.tech, c.cong = t, cg
	}
	c.mu.Unlock()
}

func (c *NetCache) get(h uint64) *flatNetEval {
	c.mu.RLock()
	ev := c.m[h]
	c.mu.RUnlock()
	return ev
}

func (c *NetCache) put(h uint64, ev *flatNetEval, evicts *atomic.Int64) {
	c.mu.Lock()
	if len(c.m) >= maxCachedNets {
		c.m = make(map[uint64]*flatNetEval)
		evicts.Add(1)
	}
	c.m[h] = ev
	c.mu.Unlock()
}

// flush drops every entry, keeping the identity binding.
func (c *NetCache) flush() {
	c.mu.Lock()
	c.m = make(map[uint64]*flatNetEval)
	c.mu.Unlock()
}

// Len returns the number of cached net views.
func (c *NetCache) Len() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.m)
}

// flatcache returns the timer's net cache: the shared one when attached,
// else a lazily created timer-owned one.
func (tm *Timer) flatcache() *NetCache {
	c := tm.SharedCache
	if c == nil {
		tm.cacheMu.Lock()
		if tm.fcache == nil {
			tm.fcache = NewNetCache()
		}
		c = tm.fcache
		tm.cacheMu.Unlock()
	}
	c.ensure(tm.Tech, tm.Cong)
	return c
}

// hashItem is one frame of the topology-hash walk.
type hashItem struct{ id, parent ctree.NodeID }

// flatNetHash digests everything buildFlatNetEval reads from the tree for
// the net driven by d, over the same transparent-tap traversal: the driver
// location that anchors the first wire, then each net node's parent, id,
// kind, location, detour and buffer cell. Any edit that changes what the
// build would produce changes the digest. The stack is caller-owned, so a
// warm lookup allocates nothing.
func flatNetHash(tr *ctree.Tree, d ctree.NodeID, stack []hashItem) (uint64, []hashItem) {
	h := newFNV()
	dn := tr.Node(d)
	h.f64(dn.Loc.X)
	h.f64(dn.Loc.Y)
	stack = stack[:0]
	for _, c := range dn.Children {
		stack = append(stack, hashItem{c, d})
	}
	for len(stack) > 0 {
		it := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		n := tr.Node(it.id)
		if n == nil {
			h.byte(0) // removed-node slot, skipped by the builder too
			continue
		}
		h.u64(uint64(uint32(it.parent)))
		h.u64(uint64(uint32(it.id)))
		h.byte(byte(n.Kind))
		h.f64(n.Loc.X)
		h.f64(n.Loc.Y)
		h.f64(n.Detour)
		if n.Kind == ctree.KindBuffer {
			h.str(n.CellName)
		}
		if n.Kind == ctree.KindTap {
			for _, c := range n.Children {
				stack = append(stack, hashItem{c, it.id})
			}
		}
	}
	return uint64(h), stack
}

// flatScratch is the pooled per-analysis working set.
type flatScratch struct {
	drivers []drivingNode
	sinks   []ctree.NodeID
	nets    []ctree.NodeID // net-node walk output (arrival-offset path)
	nstack  []ctree.NodeID // tree DFS stack
	hstack  []hashItem
}

var flatScratchPool = sync.Pool{New: func() interface{} { return new(flatScratch) }}

func getFlatScratch() *flatScratch { return flatScratchPool.Get().(*flatScratch) }

func putFlatScratch(sc *flatScratch) {
	sc.drivers = sc.drivers[:0]
	sc.sinks = sc.sinks[:0]
	sc.nets = sc.nets[:0]
	flatScratchPool.Put(sc)
}

// buildItem is one frame of the net-build walk. Carrying the parent's RC
// index in the frame avoids a NodeID→index map.
type buildItem struct {
	id, parent ctree.NodeID
	parentRC   int32
}

// buildScratch is the pooled working set of a cache-miss net build.
type buildScratch struct {
	stack []buildItem
	rc    rctree.Flat
}

var buildScratchPool = sync.Pool{New: func() interface{} { return new(buildScratch) }}

// buildFlatNetEval constructs the all-corner view of the net driven by
// d. The walk builds corner 0 directly, and the Flat records the
// corner-independent program (segment lengths, pin loads); corners
// 1..K-1 replay it with their own wire RC, skipping the walk, the
// congestion lookups, and all allocation.
func (tm *Timer) buildFlatNetEval(tr *ctree.Tree, d ctree.NodeID, bs *buildScratch) *flatNetEval {
	K := tm.Tech.NumCorners()
	dn := tr.Node(d)
	f := &bs.rc
	f.Reset(0)
	bs.stack = bs.stack[:0]
	var ids []ctree.NodeID
	for _, c := range dn.Children {
		bs.stack = append(bs.stack, buildItem{c, d, 0})
	}
	rPer0, cPer0 := tm.Tech.WireR(0), tm.Tech.WireC(0)
	for len(bs.stack) > 0 {
		it := bs.stack[len(bs.stack)-1]
		bs.stack = bs.stack[:len(bs.stack)-1]
		n := tr.Node(it.id)
		if n == nil {
			continue
		}
		p := tr.Node(it.parent)
		length := p.Loc.Manhattan(n.Loc)
		if tm.Cong != nil && length > 0 {
			length *= tm.Cong.Factor(geom.Midpoint(p.Loc, n.Loc))
		}
		length += n.Detour
		ni := f.AddWire(int(it.parentRC), length, rPer0, cPer0)
		ids = append(ids, it.id)
		switch n.Kind {
		case ctree.KindBuffer:
			cell := tm.Tech.CellByName(n.CellName)
			if cell == nil {
				panic(fmt.Sprintf("sta: unknown cell %q at node %d", n.CellName, n.ID))
			}
			f.AddLoad(ni, cell.InCap)
		case ctree.KindSink:
			f.AddLoad(ni, tm.Tech.SinkCap)
		case ctree.KindTap:
			for _, c := range n.Children {
				bs.stack = append(bs.stack, buildItem{c, it.id, int32(ni)})
			}
		}
	}
	S := len(ids)
	ev := &flatNetEval{
		ids:      ids,
		totalCap: make([]float64, K),
		m1:       make([]float64, K*S),
		m2:       make([]float64, K*S),
	}
	for k := 0; k < K; k++ {
		if k > 0 {
			f.Replay(tm.Tech.WireR(k), tm.Tech.WireC(k))
		}
		ev.totalCap[k] = f.TotalCap()
		m1, m2 := f.Moments()
		for i := 0; i < S; i++ {
			// Walk step i created π-section nodes 2i+1 (near) and 2i+2
			// (far); ids[i] sits at the far end.
			ri := 2*i + 2
			ev.m1[k*S+i] = m1[ri]
			ev.m2[k*S+i] = m2[ri]
		}
	}
	return ev
}

// resolveFlatEval returns the net's all-corner view: a cache hit when
// the topology hash is known, one batched build otherwise. Concurrent
// misses on the same net may build duplicate (identical) views; the
// counters are schedule-dependent under such races, the values never.
func (tm *Timer) resolveFlatEval(cache *NetCache, tr *ctree.Tree, d ctree.NodeID, sc *flatScratch) *flatNetEval {
	var h uint64
	h, sc.hstack = flatNetHash(tr, d, sc.hstack)
	if ev := cache.get(h); ev != nil {
		tm.cacheHits.Add(1)
		return ev
	}
	tm.cacheMisses.Add(1)
	bs := buildScratchPool.Get().(*buildScratch)
	ev := tm.buildFlatNetEval(tr, d, bs)
	buildScratchPool.Put(bs)
	cache.put(h, ev, &tm.cacheEvicts)
	return ev
}

// appendDrivingNodes lists the tree's source and buffers, cells resolved,
// in topological (preorder DFS) order into pooled scratch: a buffer's
// input arrival and slew are ready when it is reached. No allocation once
// warm.
func (tm *Timer) appendDrivingNodes(tr *ctree.Tree, sc *flatScratch) []drivingNode {
	sc.nstack = append(sc.nstack[:0], tr.Source)
	out := sc.drivers[:0]
	for len(sc.nstack) > 0 {
		id := sc.nstack[len(sc.nstack)-1]
		sc.nstack = sc.nstack[:len(sc.nstack)-1]
		node := tr.Node(id)
		for i := len(node.Children) - 1; i >= 0; i-- {
			sc.nstack = append(sc.nstack, node.Children[i])
		}
		if node.Kind != ctree.KindSource && node.Kind != ctree.KindBuffer {
			continue
		}
		cell := tm.Tech.CellByName(node.CellName)
		if cell == nil {
			panic(fmt.Sprintf("sta: unknown cell %q at node %d", node.CellName, id))
		}
		out = append(out, drivingNode{id: id, cell: cell})
	}
	sc.drivers = out
	return out
}

// appendSinks is Tree.Sinks into caller-owned storage.
func appendSinks(tr *ctree.Tree, out []ctree.NodeID) []ctree.NodeID {
	for _, n := range tr.Nodes {
		if n != nil && n.Kind == ctree.KindSink {
			out = append(out, n.ID)
		}
	}
	return out
}

// appendNetNodes appends every node of the net driven by id, walking
// through transparent taps and excluding the driver, to caller-owned
// storage.
func appendNetNodes(tr *ctree.Tree, id ctree.NodeID, out, stack []ctree.NodeID) (nets, st []ctree.NodeID) {
	n := tr.Node(id)
	stack = append(stack, n.Children...)
	for len(stack) > 0 {
		cur := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		c := tr.Node(cur)
		if c == nil {
			continue
		}
		out = append(out, cur)
		if c.Kind == ctree.KindTap {
			stack = append(stack, c.Children...)
		}
	}
	return out, stack
}

// maxSinkLat returns the largest timed sink arrival, 0 when none is timed.
func maxSinkLat(arr []float64, sinks []ctree.NodeID) float64 {
	var m float64
	for _, s := range sinks {
		if v := arr[s]; !math.IsNaN(v) && v > m {
			m = v
		}
	}
	return m
}

// propagateNet writes one net's arrivals and slews at corner k from the
// view's corner-k moment rows.
func propagateNet(ev *flatNetEval, a *Analysis, k int, arrIn, dly, outSlew float64) {
	S := len(ev.ids)
	m1s := ev.m1[k*S : (k+1)*S]
	m2s := ev.m2[k*S : (k+1)*S]
	arr, slw := a.Arrive[k], a.Slew[k]
	for i, nid := range ev.ids {
		m1, m2 := m1s[i], m2s[i]
		arr[nid] = arrIn + dly + rctree.D2M(m1, m2)
		slw[nid] = rctree.PERISlew(outSlew, rctree.StepSlew(m1, m2))
	}
}

// timeNetFlat times one driver's net at corner k over a resolved view:
// the pair delay into the net's load, then propagateNet.
func (tm *Timer) timeNetFlat(dr *drivingNode, ev *flatNetEval, a *Analysis, k int) {
	slewIn := a.Slew[k][dr.id]
	dly, outSlew := PairDelay(tm.Tech, dr.cell, k, slewIn, ev.totalCap[k])
	propagateNet(ev, a, k, a.Arrive[k][dr.id], dly, outSlew)
}

// baseAt reads node id's corner-k baseline arrival and slew; ok is false
// when the baseline has no timed entry for the node.
func baseAt(base *Analysis, k int, id ctree.NodeID) (arr, slew float64, ok bool) {
	if k >= base.K || int(id) >= len(base.Arrive[k]) {
		return 0, 0, false
	}
	arr, slew = base.Arrive[k][id], base.Slew[k][id]
	return arr, slew, !math.IsNaN(arr)
}

// shiftNet writes the listed net nodes' corner-k baseline slews and their
// baseline arrivals shifted by delta. It returns false at the first node
// the baseline has no entry for; the caller then times the net in full,
// which overwrites every node shiftNet wrote.
func shiftNet(nets []ctree.NodeID, base, a *Analysis, k int, delta float64) bool {
	arr, slw := a.Arrive[k], a.Slew[k]
	for _, nid := range nets {
		bA, bS, ok := baseAt(base, k, nid)
		if !ok {
			return false
		}
		arr[nid] = bA + delta
		slw[nid] = bS
	}
	return true
}

// analyze is Analyze (base nil) and AnalyzeIncremental: one serial pass
// that walks the drivers in topological order and times each (driver,
// net) pair at every corner before the next driver.
//
// Each corner's rows start as a copy of the baseline's (NaN where there is
// none) with the source seeded. A driver with no baseline, or one that is
// dirty or drives a dirty node, is timed in full at every corner. Any
// other driver is decided per corner: when its input slew is within
// slewConvergedEps of the baseline, its net keeps the baseline slews and
// shifts by the driver's arrival delta; otherwise, or when a net node is
// missing from the baseline, the net is timed in full. A net's all-corner
// view is resolved through the cache at most once per analysis, and its
// nodes are listed at most once. Corner k's rows depend only on corner k's
// rows, so the driver-major order gives the bits a corner-by-corner pass
// would.
func (tm *Timer) analyze(tr *ctree.Tree, base *Analysis, dirty []ctree.NodeID) *Analysis {
	K := tm.Tech.NumCorners()
	n := len(tr.Nodes)
	// Drivers re-timed in full whatever their slews: dirty sources and
	// buffers, and the drivers of dirty nodes. Nil when nothing is dirty,
	// so a full analysis makes no map.
	var recompute map[ctree.NodeID]bool
	if len(dirty) > 0 {
		recompute = make(map[ctree.NodeID]bool, 2*len(dirty))
	}
	for _, d := range dirty {
		node := tr.Node(d)
		if node == nil {
			continue
		}
		if node.Kind == ctree.KindSource || node.Kind == ctree.KindBuffer {
			recompute[d] = true
		}
		if drv := tr.Driver(d); drv != ctree.NoNode {
			recompute[drv] = true
		}
	}
	sc := getFlatScratch()
	drivers := tm.appendDrivingNodes(tr, sc)
	sc.sinks = appendSinks(tr, sc.sinks[:0])
	cache := tm.flatcache()
	a := getAnalysis(K, n)
	var sp *obs.Span
	if tm.Obs != nil {
		if base == nil {
			sp = tm.Obs.StartSpan("sta.analyze", obs.I("corners", K), obs.I("drivers", len(drivers)))
			tm.Obs.Counter("sta.analyses").Inc()
		} else {
			sp = tm.Obs.StartSpan("sta.analyze_inc", obs.I("corners", K), obs.I("dirty", len(dirty)))
			tm.Obs.Counter("sta.analyses_incremental").Inc()
		}
	}
	for k := 0; k < K; k++ {
		arr, slw := a.Arrive[k], a.Slew[k]
		copied := 0
		if base != nil && k < base.K {
			copied = copy(arr, base.Arrive[k])
			copy(slw, base.Slew[k][:copied])
		}
		for i := copied; i < n; i++ {
			arr[i] = math.NaN()
			slw[i] = math.NaN()
		}
		arr[tr.Source] = 0
		slw[tr.Source] = DefaultSourceSlew
	}

	for di := range drivers {
		dr := &drivers[di]
		id := dr.id
		forced := base == nil || recompute[id]
		var ev *flatNetEval
		listed := false
		for k := 0; k < K; k++ {
			full := forced
			if !full {
				bA, bS, ok := baseAt(base, k, id)
				if !ok || math.Abs(a.Slew[k][id]-bS) > slewConvergedEps {
					full = true
				} else if delta := a.Arrive[k][id] - bA; delta != 0 {
					// Arrival-offset path: the driver's input slew is
					// unchanged, so every stage delay in its net is the
					// baseline's and the net shifts by the arrival delta.
					if !listed {
						sc.nets, sc.nstack = appendNetNodes(tr, id, sc.nets[:0], sc.nstack[:0])
						listed = true
					}
					full = !shiftNet(sc.nets, base, a, k, delta)
				}
			}
			if full {
				if ev == nil {
					ev = tm.resolveFlatEval(cache, tr, id, sc)
				}
				tm.timeNetFlat(dr, ev, a, k)
			}
		}
	}

	for k := 0; k < K; k++ {
		var csp *obs.Span
		if sp != nil {
			csp = sp.StartChild("sta.corner", obs.I("corner", k))
		}
		a.MaxLat[k] = maxSinkLat(a.Arrive[k], sc.sinks)
		csp.End()
	}
	sp.End()
	putFlatScratch(sc)
	return a
}

// analysisPool recycles Analysis values with their backing arrays; one
// contiguous float64 block carries every corner's arrival row, slew row,
// and the MaxLat vector.
var analysisPool = sync.Pool{New: func() interface{} { return new(Analysis) }}

// getAnalysis returns a pooled Analysis for K corners over n node slots.
// Rows are full-capacity sub-slices of one buffer, so releasing the
// Analysis releases everything. Rows are NOT cleared here — every caller
// NaN-initializes or baseline-copies each corner before reading.
func getAnalysis(K, n int) *Analysis {
	a := analysisPool.Get().(*Analysis)
	need := K * (2*n + 1)
	if cap(a.buf) < need {
		a.buf = make([]float64, need)
	}
	a.buf = a.buf[:need]
	if cap(a.rows) < 2*K {
		a.rows = make([][]float64, 2*K)
	}
	a.rows = a.rows[:2*K]
	a.K = K
	a.Arrive = a.rows[:K:K]
	a.Slew = a.rows[K : 2*K : 2*K]
	for k := 0; k < K; k++ {
		a.Arrive[k] = a.buf[k*n : (k+1)*n : (k+1)*n]
		a.Slew[k] = a.buf[(K+k)*n : (K+k+1)*n : (K+k+1)*n]
	}
	a.MaxLat = a.buf[2*K*n : 2*K*n+K : 2*K*n+K]
	for k := range a.MaxLat {
		a.MaxLat[k] = 0
	}
	return a
}

// Release returns the Analysis's backing memory to the timer's pool.
// Optional: an unreleased Analysis is ordinary garbage. After Release
// the Analysis and every slice read from it are invalid. No-op for an
// Analysis built outside this package.
func (a *Analysis) Release() {
	if a.buf == nil {
		return
	}
	a.Arrive, a.Slew, a.MaxLat = nil, nil, nil
	analysisPool.Put(a)
}

// flatNetLoad resolves d's net view through the net cache and returns its
// corner-k load.
func (tm *Timer) flatNetLoad(tr *ctree.Tree, d ctree.NodeID, k int) float64 {
	cache := tm.flatcache()
	sc := getFlatScratch()
	ev := tm.resolveFlatEval(cache, tr, d, sc)
	putFlatScratch(sc)
	return ev.totalCap[k]
}
