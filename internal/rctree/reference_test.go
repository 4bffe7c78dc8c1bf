package rctree

import "sort"

// refTree is the oracle Flat is held to: a parent-linked RC tree that
// knows nothing of Flat's recorded program or its index-order sweeps.
// Node 0 is the driving point; parent[0] is -1.
type refTree struct {
	parent []int
	res    []float64 // kΩ
	cap    []float64 // fF
}

// newRefTree starts a tree with the driving point carrying rootCap.
func newRefTree(rootCap float64) *refTree {
	return &refTree{parent: []int{-1}, res: []float64{0}, cap: []float64{rootCap}}
}

// AddWire attaches a wire of the given length (µm) and per-µm RC to
// parent, split into WireSegments π sections, and returns the far-end
// node index. Each section takes its R and C, then half the C moves to
// its near end.
func (t *refTree) AddWire(parent int, lengthUM, rPerUM, cPerUM float64) int {
	segLen := lengthUM / float64(WireSegments)
	cur := parent
	for s := 0; s < WireSegments; s++ {
		idx := len(t.parent)
		t.parent = append(t.parent, cur)
		t.res = append(t.res, segLen*rPerUM)
		t.cap = append(t.cap, segLen*cPerUM)
		half := segLen * cPerUM / 2
		t.cap[idx] -= half
		t.cap[cur] += half
		cur = idx
	}
	return cur
}

// AddLoad lumps extra pin capacitance at a node.
func (t *refTree) AddLoad(node int, capFF float64) {
	t.cap[node] += capFF
}

// TotalCap returns the sum of all node capacitances.
func (t *refTree) TotalCap() float64 {
	var s float64
	for _, c := range t.cap {
		s += c
	}
	return s
}

// order returns the node indices sorted stably by depth, each depth
// counted by walking the parent links to the root: parents come before
// their children whatever the index order.
func (t *refTree) order() []int {
	n := len(t.parent)
	depth := make([]int, n)
	for i := 1; i < n; i++ {
		for cur := i; cur != 0; cur = t.parent[cur] {
			depth[i]++
		}
	}
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return depth[order[a]] < depth[order[b]] })
	return order
}

// Moments returns the first two impulse-response moments at every node.
// Downstream sums sweep the depth order in reverse, so each node is
// complete before it is added to its parent; the moments sweep it
// forward, so each parent is set before its children.
func (t *refTree) Moments() (m1, m2 []float64) {
	order := t.order()
	n := len(t.parent)
	dc := append([]float64(nil), t.cap...)
	for i := n - 1; i >= 0; i-- {
		if v := order[i]; t.parent[v] >= 0 {
			dc[t.parent[v]] += dc[v]
		}
	}
	m1 = make([]float64, n)
	for _, v := range order {
		if p := t.parent[v]; p >= 0 {
			m1[v] = m1[p] + t.res[v]*dc[v]
		}
	}
	// Downstream Σ C_k·m1_k per node.
	b := make([]float64, n)
	for i := range b {
		b[i] = t.cap[i] * m1[i]
	}
	for i := n - 1; i >= 0; i-- {
		if v := order[i]; t.parent[v] >= 0 {
			b[t.parent[v]] += b[v]
		}
	}
	m2 = make([]float64, n)
	for _, v := range order {
		if p := t.parent[v]; p >= 0 {
			m2[v] = m2[p] + t.res[v]*b[v]
		}
	}
	return m1, m2
}
