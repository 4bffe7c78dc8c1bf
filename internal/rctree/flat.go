package rctree

// Flat is the struct-of-arrays counterpart of RC + Builder for the hot
// analysis paths: one value per column, no per-node objects, and every
// working array (topological order, depth/counting-sort scratch, moment
// accumulators, the recorded program) retained across Reset so a pooled
// Flat reaches a steady state with zero allocations per net.
//
// The numerical contract is strict bit-identity with the pointer-based
// implementation: AddWire/AddLoad perform the same floating-point
// operations in the same order as Builder, Topo produces the identical
// permutation as RC.topo (stable ascending depth), and Moments/TotalCap
// replicate RC.Moments/RC.TotalCap operation for operation. The
// differential fuzz test in flat_test.go enforces this.
//
// A Flat records what its Reset/AddWire/AddLoad calls did — the root cap,
// each π section's length and each pin load, in call order — so Replay
// can refill Res/Cap for another per-µm R/C without repeating the walk
// that produced the calls. This file is the only place that knows the op
// order the refill must follow.
//
// A Flat is built front to back: node 0 is the driving point and every
// AddWire appends segments whose parent index is strictly smaller than
// their own, so depths can be derived in one forward sweep.
type Flat struct {
	Parent []int32
	Res    []float64 // kΩ
	Cap    []float64 // fF

	// The recorded program: the root cap, the π-section length (µm) per
	// node (seg[0] unused), and the AddLoad calls in call order.
	rootCap float64
	seg     []float64
	loads   []flatLoad

	// Scratch, reused across Reset. order is valid while orderOK holds;
	// AddWire and Reset invalidate it, Moments/Topo rebuild it on demand.
	orderOK bool
	order   []int32
	depth   []int32
	count   []int32
	dc, b   []float64
	m1, m2  []float64
}

// flatLoad is one recorded AddLoad call: capFF lumped at node, made when
// the tree held `before` nodes.
type flatLoad struct {
	before, node int32
	capFF        float64
}

// Reset re-initializes the tree to a single driving point carrying
// rootCap, keeping every backing array's capacity.
func (f *Flat) Reset(rootCap float64) {
	f.Parent = append(f.Parent[:0], -1)
	f.Res = append(f.Res[:0], 0)
	f.Cap = append(f.Cap[:0], rootCap)
	f.rootCap = rootCap
	f.seg = append(f.seg[:0], 0)
	f.loads = f.loads[:0]
	f.orderOK = false
}

// Len returns the number of RC nodes.
func (f *Flat) Len() int { return len(f.Parent) }

// AddWire attaches a wire of the given length (µm) and per-µm RC to
// parent, split into WireSegments π sections, and returns the far-end
// node index — the same construction, in the same floating-point order,
// as Builder.AddWire.
func (f *Flat) AddWire(parent int, lengthUM, rPerUM, cPerUM float64) int {
	if lengthUM < 0 {
		panic("rctree: negative wire length")
	}
	segLen := lengthUM / float64(WireSegments)
	cur := parent
	for s := 0; s < WireSegments; s++ {
		idx := len(f.Parent)
		f.Parent = append(f.Parent, int32(cur))
		f.Res = append(f.Res, 0)
		f.Cap = append(f.Cap, 0)
		f.seg = append(f.seg, segLen)
		f.section(idx, rPerUM, cPerUM)
		cur = idx
	}
	f.orderOK = false
	return cur
}

// section fills π section i from its recorded length with Builder.AddWire's
// statements: the section's R and C, then half the C moved to the near
// end.
func (f *Flat) section(i int, rPerUM, cPerUM float64) {
	segLen := f.seg[i]
	f.Res[i] = segLen * rPerUM
	f.Cap[i] = segLen * cPerUM
	half := segLen * cPerUM / 2
	f.Cap[i] -= half
	f.Cap[f.Parent[i]] += half
}

// AddLoad lumps extra pin capacitance at a node.
func (f *Flat) AddLoad(node int, capFF float64) {
	f.Cap[node] += capFF
	f.loads = append(f.loads, flatLoad{before: int32(len(f.Parent)), node: int32(node), capFF: capFF})
}

// Replay refills Res and Cap as if every recorded AddWire call had been
// made with rPerUM and cPerUM instead: the root cap, then each π section
// and each pin load in the order of the original calls, so the result is
// bitwise what a fresh build at the new R/C produces. The topology, and
// with it the cached Topo order, stays.
func (f *Flat) Replay(rPerUM, cPerUM float64) {
	f.Cap[0] = f.rootCap
	li := 0
	for i := 1; i < len(f.Parent); i++ {
		for ; li < len(f.loads) && int(f.loads[li].before) <= i; li++ {
			f.Cap[f.loads[li].node] += f.loads[li].capFF
		}
		f.section(i, rPerUM, cPerUM)
	}
	for ; li < len(f.loads); li++ {
		f.Cap[f.loads[li].node] += f.loads[li].capFF
	}
}

// TotalCap returns the sum of all node capacitances in index order.
func (f *Flat) TotalCap() float64 {
	var t float64
	for _, c := range f.Cap {
		t += c
	}
	return t
}

// Topo returns node indices ordered parents-first: a stable ascending
// sort by depth, the identical permutation RC.topo's stable insertion
// sort produces, computed here with a counting sort over depths. The
// order is cached until the topology changes; refilling Res/Cap in
// place (the per-corner replay path) keeps it valid.
func (f *Flat) Topo() []int32 {
	if f.orderOK {
		return f.order
	}
	n := len(f.Parent)
	f.depth = growI32(f.depth, n)
	depth := f.depth
	depth[0] = 0
	maxd := int32(0)
	for i := 1; i < n; i++ {
		d := depth[f.Parent[i]] + 1
		depth[i] = d
		if d > maxd {
			maxd = d
		}
	}
	f.count = growI32(f.count, int(maxd)+1)
	count := f.count
	for i := range count {
		count[i] = 0
	}
	for i := 0; i < n; i++ {
		count[depth[i]]++
	}
	// Prefix sums → first slot per depth bucket.
	var sum int32
	for d := range count {
		c := count[d]
		count[d] = sum
		sum += c
	}
	f.order = growI32(f.order, n)
	order := f.order
	for i := 0; i < n; i++ {
		d := depth[i]
		order[count[d]] = int32(i)
		count[d]++
	}
	f.orderOK = true
	return order
}

// Moments returns the first two impulse-response moments at every node,
// exactly as RC.Moments computes them. The returned slices are owned by
// the Flat and valid until the next Moments/Reset call.
func (f *Flat) Moments() (m1, m2 []float64) {
	order := f.Topo()
	n := len(f.Parent)
	f.dc = growF64(f.dc, n)
	dc := f.dc
	copy(dc, f.Cap)
	for i := len(order) - 1; i >= 0; i-- {
		v := order[i]
		if p := f.Parent[v]; p >= 0 {
			dc[p] += dc[v]
		}
	}
	f.m1 = growF64(f.m1, n)
	m1 = f.m1
	m1[0] = 0
	for _, v := range order {
		if p := f.Parent[v]; p >= 0 {
			m1[v] = m1[p] + f.Res[v]*dc[v]
		}
	}
	// Downstream Σ C_k·m1_k per node.
	f.b = growF64(f.b, n)
	b := f.b
	for i := range b {
		b[i] = f.Cap[i] * m1[i]
	}
	for i := len(order) - 1; i >= 0; i-- {
		v := order[i]
		if p := f.Parent[v]; p >= 0 {
			b[p] += b[v]
		}
	}
	f.m2 = growF64(f.m2, n)
	m2 = f.m2
	m2[0] = 0
	for _, v := range order {
		if p := f.Parent[v]; p >= 0 {
			m2[v] = m2[p] + f.Res[v]*b[v]
		}
	}
	return m1, m2
}

func growI32(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	return s[:n]
}

func growF64(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}
