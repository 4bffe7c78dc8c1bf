package ctree

// Arc is a tree segment without branching — the unit s_j of the paper's LP
// formulation. It runs from a top anchor (source or branching node) down to
// a bottom anchor (branching node, sink, or childless node), with a chain of
// single-child buffers/taps strictly in between. The ECO engine rebuilds an
// arc's interior (inverter pairs + detours) to realize an LP delay target.
type Arc struct {
	Index    int
	Top      NodeID   // driver-side anchor (excluded from the interior)
	Bottom   NodeID   // load-side anchor
	Interior []NodeID // chain nodes between Top and Bottom, top→bottom order
}

// Segmentation is the arc decomposition of a tree at a moment in time. It is
// invalidated by any structural edit; re-run Segment afterwards.
type Segmentation struct {
	Arcs []*Arc
	// arcOfBottom maps a bottom anchor node to the arc that ends at it.
	arcOfBottom map[NodeID]int
}

// isAnchor reports whether a node terminates arcs: the source, any node with
// more than one child, any childless node, and any sink.
func isAnchor(t *Tree, id NodeID) bool {
	n := t.Node(id)
	if n == nil {
		return false
	}
	return n.Kind == KindSource || n.Kind == KindSink || len(n.Children) != 1
}

// Segment decomposes the tree into arcs. Arc order is deterministic
// (preorder of bottom anchors).
func Segment(t *Tree) *Segmentation {
	s := &Segmentation{arcOfBottom: make(map[NodeID]int)}
	for _, id := range t.Topo() {
		if !isAnchor(t, id) {
			continue
		}
		n := t.Node(id)
		for _, child := range n.Children {
			arc := &Arc{Index: len(s.Arcs), Top: id}
			cur := child
			for !isAnchor(t, cur) {
				arc.Interior = append(arc.Interior, cur)
				cur = t.Node(cur).Children[0]
			}
			arc.Bottom = cur
			s.Arcs = append(s.Arcs, arc)
			s.arcOfBottom[cur] = arc.Index
		}
	}
	return s
}

// PathArcs returns the arc indices on the path from the source to the given
// sink, source-side first. It errors if the node is not an anchor reachable
// through the segmentation (e.g. after a structural edit).
func (s *Segmentation) PathArcs(t *Tree, sink NodeID) ([]int, error) {
	var rev []int
	cur := sink
	for cur != t.Source {
		ai, ok := s.arcOfBottom[cur]
		if !ok {
			return nil, invalid("node %d is not an arc bottom; stale segmentation?", cur)
		}
		rev = append(rev, ai)
		cur = s.Arcs[ai].Top
	}
	// Reverse in place.
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev, nil
}

// Check verifies the segmentation is consistent with the tree: arcs tile the
// tree exactly (every live non-source node appears in exactly one arc as
// interior or bottom).
func (s *Segmentation) Check(t *Tree) error {
	seen := make(map[NodeID]int)
	for _, a := range s.Arcs {
		for _, id := range a.Interior {
			seen[id]++
		}
		seen[a.Bottom]++
	}
	for _, n := range t.Nodes {
		if n == nil || n.ID == t.Source {
			continue
		}
		if seen[n.ID] != 1 {
			return invalid("node %d covered %d times by segmentation", n.ID, seen[n.ID])
		}
	}
	total := 0
	for _, c := range seen {
		total += c
	}
	if total != t.NumNodes()-1 {
		return invalid("segmentation covers %d nodes, tree has %d non-source nodes", total, t.NumNodes()-1)
	}
	return nil
}
