package eco

import (
	"math"
	"slices"
	"testing"

	"skewvar/internal/ctree"
	"skewvar/internal/geom"
)

// requireSameTree fails unless got equals want: the same node-table length,
// every field of every node, and Children in the same order.
func requireSameTree(t *testing.T, what string, want, got *ctree.Tree) {
	t.Helper()
	if got.Source != want.Source || len(got.Nodes) != len(want.Nodes) {
		t.Fatalf("%s: source %d, %d slots; want source %d, %d slots",
			what, got.Source, len(got.Nodes), want.Source, len(want.Nodes))
	}
	for i, w := range want.Nodes {
		g := got.Nodes[i]
		if (g == nil) != (w == nil) {
			t.Fatalf("%s: slot %d is %v, want %v", what, i, g, w)
		}
		if w == nil {
			continue
		}
		if g.ID != w.ID || g.Kind != w.Kind || g.Loc != w.Loc || g.CellName != w.CellName ||
			g.Parent != w.Parent || math.Float64bits(g.Detour) != math.Float64bits(w.Detour) ||
			g.Name != w.Name || !slices.Equal(g.Children, w.Children) {
			t.Fatalf("%s: node %d is %+v, want %+v", what, i, *g, *w)
		}
	}
}

// branchTree builds
//
//	source ── b1 ── b2 ── tap ─┬─ b3 ── s1
//	                           └─ s2
//
// with snaking on every edge below the source, so its arcs are
// source→tap (b1, b2 interior), tap→s1 (b3) and tap→s2.
func branchTree() *ctree.Tree {
	tr := ctree.NewTree(geom.Pt(0, 500), "CKINVX16")
	b1 := tr.AddNode(ctree.KindBuffer, geom.Pt(150, 500), "CKINVX4", tr.Source)
	b1.Detour = 40
	b2 := tr.AddNode(ctree.KindBuffer, geom.Pt(300, 500), "CKINVX4", b1.ID)
	b2.Detour = 25
	tap := tr.AddNode(ctree.KindTap, geom.Pt(450, 500), "", b2.ID)
	tap.Detour = 15
	b3 := tr.AddNode(ctree.KindBuffer, geom.Pt(450, 700), "CKINVX2", tap.ID)
	b3.Detour = 10
	s1 := tr.AddNode(ctree.KindSink, geom.Pt(450, 900), "", b3.ID)
	s1.Detour = 5
	tr.AddNode(ctree.KindSink, geom.Pt(650, 500), "", tap.ID).Detour = 8
	return tr
}

// TestUndoRestoresArcEdit saves an arc's nodes (Top, interior, Bottom),
// edits the arc, and restores: the tree must equal a Clone taken before
// the edit. The same edit made again on both trees must then give equal
// trees, which it would not if a restored node shared its Children array.
func TestUndoRestoresArcEdit(t *testing.T) {
	th, ch, lg := env(t)
	r := NewRebuilder(th, ch, lg)
	rebuild := func(pairs int) func(*ctree.Tree, *ctree.Arc) error {
		return func(tr *ctree.Tree, arc *ctree.Arc) error {
			_, err := r.RebuildArc(tr, arc, &Solution{CellIdx: 2, SpacingUM: 450 / float64(pairs+1), Pairs: pairs, DetourUM: 30})
			return err
		}
	}
	trim := func(extra float64) func(*ctree.Tree, *ctree.Arc) error {
		return func(tr *ctree.Tree, arc *ctree.Arc) error {
			_, err := r.ApplyTrim(tr, arc, extra)
			return err
		}
	}
	cases := []struct {
		name string
		arc  int
		edit func(*ctree.Tree, *ctree.Arc) error
	}{
		{"rebuild 0 pairs", 0, rebuild(0)},
		{"rebuild 1 pair", 0, rebuild(1)},
		{"rebuild 4 pairs", 0, rebuild(4)},
		{"rebuild branch arc 3 pairs", 1, rebuild(3)},
		{"trim +30", 1, trim(30)},
		{"trim -70", 0, trim(-70)},
	}
	for _, c := range cases {
		tr := branchTree()
		arc := ctree.Segment(tr).Arcs[c.arc]
		ref := tr.Clone()
		var u ctree.Undo
		u.Save(tr, slices.Concat([]ctree.NodeID{arc.Top}, arc.Interior, []ctree.NodeID{arc.Bottom})...)
		if err := c.edit(tr, arc); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		u.Restore(tr)
		requireSameTree(t, c.name+", restored", ref, tr)
		if err := c.edit(tr, arc); err != nil {
			t.Fatalf("%s, again: %v", c.name, err)
		}
		if err := c.edit(ref, arc); err != nil {
			t.Fatalf("%s, on the clone: %v", c.name, err)
		}
		requireSameTree(t, c.name+", edited again", ref, tr)
		if err := tr.Validate(); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
	}
}
