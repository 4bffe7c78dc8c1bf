package rctree

// Flat is the struct-of-arrays counterpart of RC + Builder for the hot
// analysis paths: one value per column, no per-node objects, and every
// working array (moment accumulators, the recorded program) retained
// across Reset so a pooled Flat reaches a steady state with zero
// allocations per net.
//
// The numerical contract is strict bit-identity with the pointer-based
// implementation: AddWire/AddLoad perform the same floating-point
// operations in the same order as Builder, and Moments/TotalCap replicate
// RC.Moments/RC.TotalCap operation for operation. The differential fuzz
// test in flat_test.go enforces this.
//
// A Flat records what its Reset/AddWire/AddLoad calls did — the root cap,
// each π section's length and each pin load, in call order — so Replay
// can refill Res/Cap for another per-µm R/C without repeating the walk
// that produced the calls. This file is the only place that knows the op
// order the refill must follow.
//
// A Flat is built front to back: node 0 is the driving point and every
// AddWire appends segments whose parent index is strictly smaller than
// their own, so index order is already parents-first and the moment
// sweeps run over it directly.
type Flat struct {
	Parent []int32
	Res    []float64 // kΩ
	Cap    []float64 // fF

	// The recorded program: the root cap, the π-section length (µm) per
	// node (seg[0] unused), and the AddLoad calls in call order.
	rootCap float64
	seg     []float64
	loads   []flatLoad

	// Moment scratch, reused across Reset.
	dc, b  []float64
	m1, m2 []float64
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
// bitwise what a fresh build at the new R/C produces. The topology
// stays.
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

// Moments returns the first two impulse-response moments at every node,
// exactly as RC.Moments computes them. Index order is parents-first, so
// no sort is needed: a reverse index sweep adds each node's children in
// descending index order, after their own subtrees — the order of
// RC.Moments' reverse stable-depth sweep — and a forward sweep sets every
// parent before its children. The returned slices are owned by the Flat
// and valid until the next Moments/Reset call.
func (f *Flat) Moments() (m1, m2 []float64) {
	n := len(f.Parent)
	par := f.Parent
	f.dc = growF64(f.dc, n)
	dc := f.dc
	copy(dc, f.Cap)
	for v := n - 1; v >= 1; v-- {
		dc[par[v]] += dc[v]
	}
	// m1, and with it each node's own term of the downstream Σ C_k·m1_k.
	f.m1 = growF64(f.m1, n)
	f.b = growF64(f.b, n)
	m1, b := f.m1, f.b
	m1[0] = 0
	b[0] = f.Cap[0] * m1[0]
	for v := 1; v < n; v++ {
		m1[v] = m1[par[v]] + f.Res[v]*dc[v]
		b[v] = f.Cap[v] * m1[v]
	}
	for v := n - 1; v >= 1; v-- {
		b[par[v]] += b[v]
	}
	f.m2 = growF64(f.m2, n)
	m2 = f.m2
	m2[0] = 0
	for v := 1; v < n; v++ {
		m2[v] = m2[par[v]] + f.Res[v]*b[v]
	}
	return m1, m2
}

func growF64(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}
