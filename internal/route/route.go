// Package route builds per-net clock routing topologies. Two estimation
// topologies mirror the paper's delta-latency features: a rectilinear
// Steiner minimal tree heuristic (standing in for FLUTE [3]) and a
// single-trunk Steiner tree. The "actual" post-ECO route is the RSMT
// topology perturbed by a deterministic congestion map and per-pin snaking
// detours — the discrepancy between estimated and actual routes is exactly
// what the machine-learning predictors are trained to absorb.
//
// All trees are rooted at the driver pin (pins[0]). Edge geometry beyond
// Manhattan length is immaterial to the RC models downstream (uniform RC per
// µm), so edges carry lengths, not polylines.
package route

import (
	"fmt"
	"math"
	"slices"

	"skewvar/internal/geom"
)

// Node is one vertex of a routing tree.
type Node struct {
	P       geom.Point
	Parent  int     // index into Tree.Nodes; -1 for the root
	EdgeLen float64 // routed length of the edge to Parent, µm
	Pin     int     // index into the input pin list, or -1 for a Steiner point
}

// Tree is a rooted routing topology over a pin set.
type Tree struct {
	Nodes []Node // Nodes[0] is the root (driver pin)
}

// Wirelength returns the total routed length.
func (t *Tree) Wirelength() float64 {
	var w float64
	for _, n := range t.Nodes {
		w += n.EdgeLen
	}
	return w
}

// PinNode returns the index of the node carrying pin p, or -1.
func (t *Tree) PinNode(p int) int {
	for i, n := range t.Nodes {
		if n.Pin == p {
			return i
		}
	}
	return -1
}

// Children returns the child node indices of node i.
func (t *Tree) Children(i int) []int {
	return t.appendChildren(nil, i)
}

// appendChildren appends the child node indices of node i to dst, in
// ascending order, and returns the extended slice.
func (t *Tree) appendChildren(dst []int, i int) []int {
	for j, n := range t.Nodes {
		if n.Parent == i {
			dst = append(dst, j)
		}
	}
	return dst
}

// Validate checks that the tree is rooted, connected and acyclic, and that
// every input pin appears exactly once.
func (t *Tree) Validate(numPins int) error {
	if len(t.Nodes) == 0 {
		return fmt.Errorf("route: empty tree")
	}
	if t.Nodes[0].Parent != -1 || t.Nodes[0].Pin != 0 {
		return fmt.Errorf("route: node 0 must be the root driver pin")
	}
	seen := make([]int, numPins)
	for i, n := range t.Nodes {
		if i > 0 {
			if n.Parent < 0 || n.Parent >= len(t.Nodes) {
				return fmt.Errorf("route: node %d has bad parent %d", i, n.Parent)
			}
			if n.EdgeLen < 0 {
				return fmt.Errorf("route: node %d has negative edge length", i)
			}
		}
		if n.Pin >= 0 {
			if n.Pin >= numPins {
				return fmt.Errorf("route: node %d references pin %d of %d", i, n.Pin, numPins)
			}
			seen[n.Pin]++
		}
	}
	for p, c := range seen {
		if c != 1 {
			return fmt.Errorf("route: pin %d appears %d times", p, c)
		}
	}
	// Acyclicity / reachability: walk each node to the root.
	for i := range t.Nodes {
		steps := 0
		for cur := i; cur != 0; cur = t.Nodes[cur].Parent {
			steps++
			if steps > len(t.Nodes) {
				return fmt.Errorf("route: cycle reaching node %d", i)
			}
		}
	}
	return nil
}

// Scratch is the reusable working set of the route builders: Prim's
// per-pin state, the child list the Steiner pass refines, and the single
// trunk's median buffers. The zero value is ready to use. A Scratch serves
// one build at a time, and nothing a build returns points into it.
type Scratch struct {
	inTree []bool
	best   []float64 // Prim: cheapest distance of each pin to the tree
	bestTo []int     // Prim: node index realizing best
	kids   []int     // the child list of the node being refined
	xs, ys []float64 // median coordinate buffers
}

// MST builds the rectilinear minimum spanning tree over the pins using
// Prim's algorithm, rooted at pins[0].
func MST(pins []geom.Point) *Tree {
	t := new(Tree)
	new(Scratch).MST(t, pins)
	return t
}

// MST builds MST(pins) into t, replacing its nodes and reusing their
// storage.
func (s *Scratch) MST(t *Tree, pins []geom.Point) {
	if len(pins) == 0 {
		panic("route: MST of empty pin set")
	}
	n := len(pins)
	t.Nodes = append(t.Nodes[:0], Node{P: pins[0], Parent: -1, Pin: 0})
	s.inTree = slices.Grow(s.inTree[:0], n)[:n]
	s.best = slices.Grow(s.best[:0], n)[:n]
	s.bestTo = slices.Grow(s.bestTo[:0], n)[:n]
	clear(s.inTree)
	s.inTree[0] = true
	for i := 1; i < n; i++ {
		s.best[i] = pins[i].Manhattan(pins[0])
		s.bestTo[i] = 0
	}
	for added := 1; added < n; added++ {
		pick, pickD := -1, math.Inf(1)
		for i := 1; i < n; i++ {
			if !s.inTree[i] && s.best[i] < pickD {
				pick, pickD = i, s.best[i]
			}
		}
		t.Nodes = append(t.Nodes, Node{P: pins[pick], Parent: s.bestTo[pick], EdgeLen: pickD, Pin: pick})
		s.inTree[pick] = true
		ni := len(t.Nodes) - 1
		for i := 1; i < n; i++ {
			if !s.inTree[i] {
				if d := pins[i].Manhattan(pins[pick]); d < s.best[i] {
					s.best[i], s.bestTo[i] = d, ni
				}
			}
		}
	}
}

// RSMT builds a rectilinear Steiner tree heuristic (FLUTE stand-in): the
// Prim MST refined by a greedy Steiner-point pass. For every node with two
// or more children, the pass tries to reconnect child pairs through the
// Manhattan median of (parent, childA, childB); improvements are kept.
func RSMT(pins []geom.Point) *Tree {
	t := new(Tree)
	new(Scratch).RSMT(t, pins)
	return t
}

// RSMT builds RSMT(pins) into t, replacing its nodes and reusing their
// storage.
func (s *Scratch) RSMT(t *Tree, pins []geom.Point) {
	s.MST(t, pins)
	if len(pins) < 3 {
		return
	}
	improved := true
	for pass := 0; pass < 3 && improved; pass++ {
		improved = false
		for i := 0; i < len(t.Nodes); i++ {
			s.kids = t.appendChildren(s.kids[:0], i)
			kids := s.kids
			if len(kids) < 2 {
				continue
			}
			// Try the best pair under this parent.
			bestGain := 1e-9
			bestA, bestB := -1, -1
			var bestS geom.Point
			for x := 0; x < len(kids); x++ {
				for y := x + 1; y < len(kids); y++ {
					a, b := kids[x], kids[y]
					pi, pa, pb := t.Nodes[i].P, t.Nodes[a].P, t.Nodes[b].P
					xs, ys := [3]float64{pi.X, pa.X, pb.X}, [3]float64{pi.Y, pa.Y, pb.Y}
					st := geom.Pt(geom.Median(xs[:]), geom.Median(ys[:]))
					old := t.Nodes[a].EdgeLen + t.Nodes[b].EdgeLen
					nw := st.Manhattan(pi) + st.Manhattan(pa) + st.Manhattan(pb)
					if gain := old - nw; gain > bestGain {
						bestGain, bestA, bestB, bestS = gain, a, b, st
					}
				}
			}
			if bestA < 0 {
				continue
			}
			// Insert Steiner node and rewire.
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
}

// SingleTrunk builds a single-trunk Steiner tree: a trunk through the median
// of the pin coordinates along the longer bounding-box axis, with
// perpendicular branches to every pin. This is the second route estimator of
// the paper's delta-latency model.
func SingleTrunk(pins []geom.Point) *Tree {
	t := new(Tree)
	new(Scratch).SingleTrunk(t, pins)
	return t
}

// SingleTrunk builds SingleTrunk(pins) into t, replacing its nodes and
// reusing their storage.
func (s *Scratch) SingleTrunk(t *Tree, pins []geom.Point) {
	if len(pins) == 0 {
		panic("route: SingleTrunk of empty pin set")
	}
	t.Nodes = append(t.Nodes[:0], Node{P: pins[0], Parent: -1, Pin: 0})
	if len(pins) == 1 {
		return
	}
	bb := geom.BBox(pins)
	s.xs, s.ys = s.xs[:0], s.ys[:0]
	for _, p := range pins {
		s.xs = append(s.xs, p.X)
		s.ys = append(s.ys, p.Y)
	}
	med := geom.Pt(geom.Median(s.xs), geom.Median(s.ys))
	horizontal := bb.W() >= bb.H()
	// Trunk tap for the driver.
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
		// Trunk segment from driver tap to this pin's tap, then the branch.
		ti := len(t.Nodes)
		t.Nodes = append(t.Nodes, Node{P: tap, Parent: trunkRoot, EdgeLen: tap.Manhattan(driverTap), Pin: -1})
		t.Nodes = append(t.Nodes, Node{P: pins[p], Parent: ti, EdgeLen: pins[p].Manhattan(tap), Pin: p})
	}
}

// Congestion is a deterministic routing-congestion field over the die: the
// "actual" ECO router stretches edges by the local factor, modelling the
// detours a commercial router takes around congested regions. Factors are a
// pure function of (seed, grid cell), so the whole flow is reproducible.
type Congestion struct {
	Die    geom.Rect
	Nx, Ny int
	f      []float64
}

// NewCongestion builds an nx×ny congestion grid with factors in
// [1, 1+amplitude], generated from the seed.
func NewCongestion(die geom.Rect, nx, ny int, amplitude float64, seed uint64) *Congestion {
	if nx <= 0 || ny <= 0 {
		panic("route: congestion grid must be positive")
	}
	c := &Congestion{Die: die, Nx: nx, Ny: ny, f: make([]float64, nx*ny)}
	s := seed
	for i := range c.f {
		// SplitMix64 — deterministic, stdlib-free, portable.
		s += 0x9e3779b97f4a7c15
		z := s
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		z ^= z >> 31
		u := float64(z>>11) / float64(1<<53)
		c.f[i] = 1 + amplitude*u
	}
	return c
}

// Factor returns the congestion stretch factor at a point (clamped to the
// die).
func (c *Congestion) Factor(p geom.Point) float64 {
	q := c.Die.Clamp(p)
	w, h := c.Die.W(), c.Die.H()
	if w <= 0 || h <= 0 {
		return 1
	}
	i := int((q.X - c.Die.Lo.X) / w * float64(c.Nx))
	j := int((q.Y - c.Die.Lo.Y) / h * float64(c.Ny))
	if i >= c.Nx {
		i = c.Nx - 1
	}
	if j >= c.Ny {
		j = c.Ny - 1
	}
	return c.f[j*c.Nx+i]
}

// AddPinDetour stretches the edge reaching the given pin by extra µm
// (U-shape snaking inserted by the ECO). It is a no-op for the root pin or
// an absent pin.
func (t *Tree) AddPinDetour(pin int, extra float64) {
	if extra <= 0 {
		return
	}
	i := t.PinNode(pin)
	if i <= 0 {
		return
	}
	t.Nodes[i].EdgeLen += extra
}
