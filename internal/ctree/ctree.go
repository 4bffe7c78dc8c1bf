// Package ctree models routed clock trees: the node/topology structure the
// whole framework operates on, plus arc segmentation (the "tree segment
// without branching" unit s_j of the paper's LP formulation) and the local
// structural operators (buffer sizing, displacement, driver reassignment).
//
// A Buffer node represents one clock *inverter pair* (paper §4.1, footnote
// 3): the two inverters share a size and are placed together, so the pair is
// non-inverting and polarity is correct by construction.
package ctree

import (
	"fmt"
	"sort"

	"skewvar/internal/geom"
	"skewvar/internal/resilience"
)

// invalid builds a ctree-prefixed error wrapping the invalid-design
// sentinel: structural violations reported across the package boundary must
// classify with errors.Is(err, resilience.ErrInvalidDesign) at the flow
// boundaries (the errwrap invariant, docs/ANALYSIS.md).
func invalid(format string, args ...interface{}) error {
	return fmt.Errorf("ctree: "+format+": %w", append(args, resilience.ErrInvalidDesign)...)
}

// NodeID identifies a node within one Tree. IDs are dense indices into the
// tree's node table and remain stable across edits (removed nodes leave nil
// slots).
type NodeID int32

// NoNode is the nil node reference.
const NoNode NodeID = -1

// Kind discriminates tree node roles.
type Kind uint8

// Node kinds.
const (
	KindSource Kind = iota // clock root driver
	KindBuffer             // inserted inverter pair
	KindSink               // flip-flop clock pin
	KindTap                // Steiner/branch point with no cell
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case KindSource:
		return "source"
	case KindBuffer:
		return "buffer"
	case KindSink:
		return "sink"
	case KindTap:
		return "tap"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Node is one vertex of the clock tree.
type Node struct {
	ID       NodeID
	Kind     Kind
	Loc      geom.Point
	CellName string // inverter-pair cell for Source/Buffer; "" otherwise
	Parent   NodeID // NoNode for the source
	Children []NodeID
	Detour   float64 // extra routed wirelength (µm) from parent beyond the estimated route, e.g. U-shape snaking
	Name     string  // optional instance name (sinks)
}

// Tree is a routed clock tree.
type Tree struct {
	Nodes  []*Node // indexed by NodeID; removed nodes are nil
	Source NodeID
}

// NewTree creates a tree with only a source node at the given location,
// driven by the named cell.
func NewTree(loc geom.Point, sourceCell string) *Tree {
	t := &Tree{Source: 0}
	t.Nodes = append(t.Nodes, &Node{
		ID:       0,
		Kind:     KindSource,
		Loc:      loc,
		CellName: sourceCell,
		Parent:   NoNode,
	})
	return t
}

// Node returns the node with the given id, or nil if removed/out of range.
func (t *Tree) Node(id NodeID) *Node {
	if id < 0 || int(id) >= len(t.Nodes) {
		return nil
	}
	return t.Nodes[id]
}

// AddNode appends a new node under parent and returns it. Kind source cannot
// be added (a tree has exactly one source, created by NewTree).
func (t *Tree) AddNode(kind Kind, loc geom.Point, cell string, parent NodeID) *Node {
	if kind == KindSource {
		panic("ctree: cannot add a second source")
	}
	p := t.Node(parent)
	if p == nil {
		panic(fmt.Sprintf("ctree: AddNode under missing parent %d", parent))
	}
	n := &Node{
		ID:       NodeID(len(t.Nodes)),
		Kind:     kind,
		Loc:      loc,
		CellName: cell,
		Parent:   parent,
	}
	t.Nodes = append(t.Nodes, n)
	p.Children = append(p.Children, n.ID)
	return n
}

// RemoveNode deletes a degree-≤1 interior node (buffer or tap), splicing its
// single child (if any) to its parent. Sinks and the source cannot be
// removed.
func (t *Tree) RemoveNode(id NodeID) error {
	n := t.Node(id)
	if n == nil {
		return invalid("remove of missing node %d", id)
	}
	switch n.Kind {
	case KindSource, KindSink:
		return invalid("cannot remove %s node %d", n.Kind, id)
	}
	if len(n.Children) > 1 {
		return invalid("node %d has %d children; only chain nodes are removable", id, len(n.Children))
	}
	p := t.Node(n.Parent)
	if p == nil {
		return invalid("node %d has no parent", id)
	}
	// Unlink from parent.
	for i, c := range p.Children {
		if c == id {
			p.Children = append(p.Children[:i], p.Children[i+1:]...)
			break
		}
	}
	if len(n.Children) == 1 {
		child := t.Node(n.Children[0])
		child.Parent = p.ID
		child.Detour += n.Detour // preserve inserted snaking along the chain
		p.Children = append(p.Children, child.ID)
	}
	t.Nodes[id] = nil
	return nil
}

// ReassignParent detaches node id from its current parent and attaches it
// under newParent (the Type-III "tree surgery" move). It rejects moves that
// would create a cycle or orphan the tree.
func (t *Tree) ReassignParent(id, newParent NodeID) error {
	n := t.Node(id)
	np := t.Node(newParent)
	if n == nil || np == nil {
		return invalid("reassign with missing node (%d → %d)", id, newParent)
	}
	if n.Kind == KindSource {
		return invalid("cannot reassign the source")
	}
	if id == newParent {
		return invalid("cannot parent node %d to itself", id)
	}
	// Reject if newParent is in the subtree of id (cycle).
	for cur := newParent; cur != NoNode; cur = t.Node(cur).Parent {
		if cur == id {
			return invalid("reassigning %d under its own subtree node %d", id, newParent)
		}
	}
	old := t.Node(n.Parent)
	if old != nil {
		for i, c := range old.Children {
			if c == id {
				old.Children = append(old.Children[:i], old.Children[i+1:]...)
				break
			}
		}
	}
	n.Parent = newParent
	n.Detour = 0 // the new connection is routed fresh
	np.Children = append(np.Children, id)
	return nil
}

// Clone returns a deep copy of the tree.
func (t *Tree) Clone() *Tree {
	c := &Tree{Source: t.Source, Nodes: make([]*Node, len(t.Nodes))}
	for i, n := range t.Nodes {
		if n == nil {
			continue
		}
		cp := *n
		cp.Children = append([]NodeID(nil), n.Children...)
		c.Nodes[i] = &cp
	}
	return c
}

// CloneShared returns a copy-on-write clone for a local edit: the node table
// is fresh, but node objects are shared with the original except for the
// listed mutable nodes (and the source, whose Children an insertion under
// the root would touch), which are deep-copied. Callers must list every node
// the edit will mutate in place — including the parent of any node they
// append, since AddNode grows the parent's Children. Shared nodes must be
// treated as read-only.
//
// A clone deep-copies O(move) nodes, but it still copies the whole
// O(design) node table of pointers. Trials racing on the same base tree
// only ever read the shared nodes.
func (t *Tree) CloneShared(mutable ...NodeID) *Tree {
	c := &Tree{Source: t.Source, Nodes: make([]*Node, len(t.Nodes))}
	copy(c.Nodes, t.Nodes)
	deep := func(id NodeID) {
		n := t.Node(id)
		if n == nil {
			return
		}
		cp := *n
		cp.Children = append([]NodeID(nil), n.Children...)
		c.Nodes[id] = &cp
	}
	deep(t.Source)
	for _, id := range mutable {
		if id != NoNode && id != t.Source {
			deep(id)
		}
	}
	return c
}

// Undo rolls back a local edit in place, in O(edit) instead of the O(design)
// of a Clone. Save records the listed nodes (their slots, values and
// Children) and the node-table length; Restore puts them back and drops
// every node appended since. The contract is CloneShared's: list every node
// the edit mutates in place, including the parent of any node it appends or
// removes. An Undo is reusable; each Save replaces the previous record.
type Undo struct {
	n     int      // node-table length at Save
	ids   []NodeID // saved slots, in Save order
	nodes []*Node  // slot contents at Save (nil for an empty slot)
	vals  []Node   // node values at Save
	kids  []NodeID // every saved node's Children, concatenated
}

// Save records the listed nodes of t.
func (u *Undo) Save(t *Tree, ids ...NodeID) {
	u.n = len(t.Nodes)
	u.ids, u.nodes, u.vals, u.kids = u.ids[:0], u.nodes[:0], u.vals[:0], u.kids[:0]
	for _, id := range ids {
		n := t.Node(id)
		u.ids = append(u.ids, id)
		u.nodes = append(u.nodes, n)
		if n == nil {
			u.vals = append(u.vals, Node{})
			continue
		}
		u.vals = append(u.vals, *n)
		u.kids = append(u.kids, n.Children...)
	}
}

// Restore returns t to its state at the last Save. Each saved node gets
// back its slot, its value and its own Children array with the saved
// contents, so no two nodes ever share a Children array.
func (u *Undo) Restore(t *Tree) {
	clear(t.Nodes[u.n:])
	t.Nodes = t.Nodes[:u.n]
	off := 0
	for i, id := range u.ids {
		n := u.nodes[i]
		if int(id) >= 0 && int(id) < u.n {
			t.Nodes[id] = n
		}
		if n == nil {
			continue
		}
		*n = u.vals[i]
		off += copy(n.Children, u.kids[off:off+len(n.Children)])
	}
}

// Sinks returns all sink node IDs in ascending ID order.
func (t *Tree) Sinks() []NodeID {
	var out []NodeID
	for _, n := range t.Nodes {
		if n != nil && n.Kind == KindSink {
			out = append(out, n.ID)
		}
	}
	return out
}

// Buffers returns all buffer node IDs in ascending ID order.
func (t *Tree) Buffers() []NodeID {
	var out []NodeID
	for _, n := range t.Nodes {
		if n != nil && n.Kind == KindBuffer {
			out = append(out, n.ID)
		}
	}
	return out
}

// NumNodes returns the count of live nodes.
func (t *Tree) NumNodes() int {
	c := 0
	for _, n := range t.Nodes {
		if n != nil {
			c++
		}
	}
	return c
}

// Topo returns the live node IDs in preorder (parents before children).
func (t *Tree) Topo() []NodeID {
	out := make([]NodeID, 0, len(t.Nodes))
	stack := []NodeID{t.Source}
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		out = append(out, id)
		n := t.Node(id)
		for i := len(n.Children) - 1; i >= 0; i-- {
			stack = append(stack, n.Children[i])
		}
	}
	return out
}

// PathToRoot returns node ids from the given node up to and including the
// source.
func (t *Tree) PathToRoot(id NodeID) []NodeID {
	var out []NodeID
	for cur := id; cur != NoNode; {
		n := t.Node(cur)
		if n == nil {
			break
		}
		out = append(out, cur)
		cur = n.Parent
	}
	return out
}

// Level returns the number of buffer stages (inverter pairs, including the
// source driver) on the path from the source to the node's parent — the
// "level" used to find same-level candidate drivers for Type-III moves.
func (t *Tree) Level(id NodeID) int {
	lvl := 0
	n := t.Node(id)
	if n == nil {
		return 0
	}
	for cur := n.Parent; cur != NoNode; {
		p := t.Node(cur)
		if p == nil {
			break
		}
		if p.Kind == KindBuffer || p.Kind == KindSource {
			lvl++
		}
		cur = p.Parent
	}
	return lvl
}

// Driver returns the nearest ancestor (inclusive of parent) that actively
// drives the node: a buffer or the source. Tap nodes are electrically
// transparent.
func (t *Tree) Driver(id NodeID) NodeID {
	n := t.Node(id)
	if n == nil {
		return NoNode
	}
	for cur := n.Parent; cur != NoNode; {
		p := t.Node(cur)
		if p == nil {
			return NoNode
		}
		if p.Kind == KindBuffer || p.Kind == KindSource {
			return cur
		}
		cur = p.Parent
	}
	return NoNode
}

// FanoutPins returns the transitive non-driving frontier below a driving
// node: every buffer input pin or sink pin reached from id without passing
// through another buffer. This is the electrical net driven by node id.
func (t *Tree) FanoutPins(id NodeID) []NodeID {
	return t.AppendFanoutPins(nil, id)
}

// AppendFanoutPins appends FanoutPins(id) to dst and returns the extended
// slice. The walk visits each node's children last to first and descends
// into a tap before moving on to its earlier siblings.
func (t *Tree) AppendFanoutPins(dst []NodeID, id NodeID) []NodeID {
	n := t.Node(id)
	if n == nil {
		return dst
	}
	for i := len(n.Children) - 1; i >= 0; i-- {
		cur := n.Children[i]
		c := t.Node(cur)
		if c == nil {
			continue
		}
		switch c.Kind {
		case KindBuffer, KindSink:
			dst = append(dst, cur)
		case KindTap:
			dst = t.AppendFanoutPins(dst, cur)
		}
	}
	return dst
}

// SubtreeSinks returns every sink at or below the given node.
func (t *Tree) SubtreeSinks(id NodeID) []NodeID {
	var out []NodeID
	stack := []NodeID{id}
	for len(stack) > 0 {
		cur := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		n := t.Node(cur)
		if n == nil {
			continue
		}
		if n.Kind == KindSink {
			out = append(out, cur)
		}
		stack = append(stack, n.Children...)
	}
	return out
}

// Validate checks structural invariants: one source at the recorded id,
// parent/child cross-consistency, acyclicity, sinks as leaves, every live
// node reachable from the source, and buffer/source nodes carrying a cell.
func (t *Tree) Validate() error {
	src := t.Node(t.Source)
	if src == nil || src.Kind != KindSource {
		return invalid("bad source node %d", t.Source)
	}
	if src.Parent != NoNode {
		return invalid("source has a parent")
	}
	seen := make(map[NodeID]bool)
	order := t.Topo()
	for _, id := range order {
		if seen[id] {
			return invalid("node %d visited twice (cycle or duplicate child link)", id)
		}
		seen[id] = true
		n := t.Node(id)
		if n == nil {
			return invalid("child link to removed node %d", id)
		}
		if n.ID != id {
			return invalid("node %d has mismatched ID %d", id, n.ID)
		}
		if n.Kind == KindSink && len(n.Children) > 0 {
			return invalid("sink %d has children", id)
		}
		if (n.Kind == KindBuffer || n.Kind == KindSource) && n.CellName == "" {
			return invalid("driving node %d has no cell", id)
		}
		if n.Detour < 0 {
			return invalid("node %d has negative detour", id)
		}
		for _, c := range n.Children {
			ch := t.Node(c)
			if ch == nil {
				return invalid("node %d links to removed child %d", id, c)
			}
			if ch.Parent != id {
				return invalid("child %d of %d has parent %d", c, id, ch.Parent)
			}
		}
		if n.Kind != KindSource {
			if n.Parent == NoNode || t.Node(n.Parent) == nil {
				return invalid("node %d has missing parent", id)
			}
		}
	}
	for _, n := range t.Nodes {
		if n != nil && !seen[n.ID] {
			return invalid("node %d unreachable from source", n.ID)
		}
	}
	return nil
}

// SinkPair is a sequentially adjacent (launch, capture) flip-flop pair with
// a valid datapath between the two sinks. Crit ranks pairs by timing
// criticality (higher = more critical), standing in for the paper's
// setup/hold slack ranking used to pick the top-N pairs.
type SinkPair struct {
	A, B NodeID
	Crit float64
}

// Design is a testcase: the clock tree plus the context needed by the
// optimizer and the report harness.
type Design struct {
	Name        string
	Tree        *Tree
	Pairs       []SinkPair
	Die         geom.Rect
	NumCells    int     // total placed instances incl. datapath logic (Table 4)
	Util        float64 // pre-placement utilization (Table 4)
	CornerNames []string
}

// TopPairs returns the n most critical sink pairs (all pairs if n ≤ 0 or
// n ≥ len). The underlying slice is not modified.
func (d *Design) TopPairs(n int) []SinkPair {
	ps := append([]SinkPair(nil), d.Pairs...)
	sort.SliceStable(ps, func(i, j int) bool { return ps[i].Crit > ps[j].Crit })
	if n <= 0 || n >= len(ps) {
		return ps
	}
	return ps[:n]
}

// Clone deep-copies the design (tree and pair list).
func (d *Design) Clone() *Design {
	c := *d
	c.Tree = d.Tree.Clone()
	c.Pairs = append([]SinkPair(nil), d.Pairs...)
	c.CornerNames = append([]string(nil), d.CornerNames...)
	return &c
}
