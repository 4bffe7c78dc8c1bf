package ctree

import (
	"math/rand"
	"slices"
	"testing"

	"skewvar/internal/geom"
)

// buildSmall constructs:
//
//	source ── b1 ── tap ─┬─ b2 ── s1
//	                     └─ b3 ─┬─ s2
//	                            └─ s3
func buildSmall(t *testing.T) (*Tree, map[string]NodeID) {
	t.Helper()
	tr := NewTree(geom.Pt(0, 0), "CKINVX8")
	ids := map[string]NodeID{}
	b1 := tr.AddNode(KindBuffer, geom.Pt(10, 0), "CKINVX4", tr.Source)
	tap := tr.AddNode(KindTap, geom.Pt(20, 0), "", b1.ID)
	b2 := tr.AddNode(KindBuffer, geom.Pt(30, 10), "CKINVX2", tap.ID)
	s1 := tr.AddNode(KindSink, geom.Pt(40, 10), "", b2.ID)
	s1.Name = "ff1"
	b3 := tr.AddNode(KindBuffer, geom.Pt(30, -10), "CKINVX2", tap.ID)
	s2 := tr.AddNode(KindSink, geom.Pt(40, -10), "", b3.ID)
	s3 := tr.AddNode(KindSink, geom.Pt(40, -20), "", b3.ID)
	ids["b1"], ids["tap"], ids["b2"], ids["s1"] = b1.ID, tap.ID, b2.ID, s1.ID
	ids["b3"], ids["s2"], ids["s3"] = b3.ID, s2.ID, s3.ID
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	return tr, ids
}

func TestKindString(t *testing.T) {
	for k, want := range map[Kind]string{
		KindSource: "source", KindBuffer: "buffer", KindSink: "sink", KindTap: "tap",
	} {
		if k.String() != want {
			t.Errorf("%d.String() = %q", k, k.String())
		}
	}
	if Kind(77).String() == "" {
		t.Error("unknown kind string empty")
	}
}

func TestBuildAndQueries(t *testing.T) {
	tr, ids := buildSmall(t)
	if got := tr.NumNodes(); got != 8 {
		t.Errorf("NumNodes = %d", got)
	}
	if s := tr.Sinks(); len(s) != 3 {
		t.Errorf("Sinks = %v", s)
	}
	if b := tr.Buffers(); len(b) != 3 {
		t.Errorf("Buffers = %v", b)
	}
	topo := tr.Topo()
	if len(topo) != 8 || topo[0] != tr.Source {
		t.Errorf("Topo = %v", topo)
	}
	pos := make(map[NodeID]int)
	for i, id := range topo {
		pos[id] = i
	}
	for _, id := range topo {
		n := tr.Node(id)
		if n.Parent != NoNode && pos[n.Parent] > pos[id] {
			t.Errorf("topo order violates parent-first for %d", id)
		}
	}
	path := tr.PathToRoot(ids["s3"])
	if len(path) != 5 || path[0] != ids["s3"] || path[len(path)-1] != tr.Source {
		t.Errorf("PathToRoot = %v", path)
	}
	if tr.Node(999) != nil || tr.Node(-2) != nil {
		t.Error("out-of-range Node lookup not nil")
	}
}

func TestDriverAndFanout(t *testing.T) {
	tr, ids := buildSmall(t)
	if d := tr.Driver(ids["b2"]); d != ids["b1"] {
		t.Errorf("Driver(b2) = %d, want b1 (tap is transparent)", d)
	}
	if d := tr.Driver(ids["b1"]); d != tr.Source {
		t.Errorf("Driver(b1) = %d", d)
	}
	if d := tr.Driver(tr.Source); d != NoNode {
		t.Errorf("Driver(source) = %d", d)
	}
	pins := tr.FanoutPins(ids["b1"])
	if len(pins) != 2 {
		t.Fatalf("FanoutPins(b1) = %v, want {b2,b3} through the tap", pins)
	}
	got := map[NodeID]bool{pins[0]: true, pins[1]: true}
	if !got[ids["b2"]] || !got[ids["b3"]] {
		t.Errorf("FanoutPins(b1) = %v", pins)
	}
	if pins := tr.FanoutPins(ids["b3"]); len(pins) != 2 {
		t.Errorf("FanoutPins(b3) = %v", pins)
	}
	if tr.FanoutPins(NoNode) != nil {
		t.Error("FanoutPins of missing node not nil")
	}
}

func TestLevel(t *testing.T) {
	tr, ids := buildSmall(t)
	// s1's path: b2, tap, b1, source → 3 driving stages above it.
	if l := tr.Level(ids["s1"]); l != 3 {
		t.Errorf("Level(s1) = %d, want 3", l)
	}
	if l := tr.Level(ids["b2"]); l != 2 {
		t.Errorf("Level(b2) = %d, want 2 (b1 + source)", l)
	}
	if l := tr.Level(tr.Source); l != 0 {
		t.Errorf("Level(source) = %d", l)
	}
}

func TestSubtreeSinks(t *testing.T) {
	tr, ids := buildSmall(t)
	if s := tr.SubtreeSinks(ids["b3"]); len(s) != 2 {
		t.Errorf("SubtreeSinks(b3) = %v", s)
	}
	if s := tr.SubtreeSinks(tr.Source); len(s) != 3 {
		t.Errorf("SubtreeSinks(source) = %v", s)
	}
}

func TestRemoveNode(t *testing.T) {
	tr, ids := buildSmall(t)
	tr.Node(ids["b2"]).Detour = 5
	if err := tr.RemoveNode(ids["b2"]); err != nil {
		t.Fatal(err)
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	s1 := tr.Node(ids["s1"])
	if s1.Parent != ids["tap"] {
		t.Errorf("s1 parent = %d, want tap", s1.Parent)
	}
	if s1.Detour != 5 {
		t.Errorf("detour not preserved on splice: %v", s1.Detour)
	}
	if tr.Node(ids["b2"]) != nil {
		t.Error("removed node still present")
	}
	// Illegal removals.
	if err := tr.RemoveNode(ids["s1"]); err == nil {
		t.Error("removed a sink")
	}
	if err := tr.RemoveNode(tr.Source); err == nil {
		t.Error("removed the source")
	}
	if err := tr.RemoveNode(ids["b3"]); err == nil {
		t.Error("removed a branching node")
	}
	if err := tr.RemoveNode(ids["b2"]); err == nil {
		t.Error("double remove")
	}
}

func TestReassignParent(t *testing.T) {
	tr, ids := buildSmall(t)
	// Move s1 from b2 to b3 (classic surgery).
	if err := tr.ReassignParent(ids["s1"], ids["b3"]); err != nil {
		t.Fatal(err)
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	if tr.Node(ids["s1"]).Parent != ids["b3"] {
		t.Error("reassign did not take")
	}
	if len(tr.Node(ids["b2"]).Children) != 0 {
		t.Error("old parent still lists child")
	}
	// Illegal surgeries.
	if err := tr.ReassignParent(tr.Source, ids["b1"]); err == nil {
		t.Error("reassigned source")
	}
	if err := tr.ReassignParent(ids["b1"], ids["s2"]); err != nil {
		// Attaching under a sink is structurally odd but cycles are the
		// real hazard; validate must catch sink-with-children.
		t.Logf("reassign under sink rejected: %v", err)
	} else if err := tr.Validate(); err == nil {
		t.Error("sink with children passed validation")
	}
	tr2, ids2 := buildSmall(t)
	if err := tr2.ReassignParent(ids2["b1"], ids2["b2"]); err == nil {
		t.Error("cycle-creating reassign accepted")
	}
	if err := tr2.ReassignParent(ids2["b1"], ids2["b1"]); err == nil {
		t.Error("self-parenting accepted")
	}
	if err := tr2.ReassignParent(NodeID(99), ids2["b1"]); err == nil {
		t.Error("missing node accepted")
	}
}

func TestCloneIndependence(t *testing.T) {
	tr, ids := buildSmall(t)
	cp := tr.Clone()
	cp.Node(ids["b2"]).Loc = geom.Pt(999, 999)
	cp.AddNode(KindBuffer, geom.Pt(1, 1), "CKINVX1", cp.Source)
	if tr.Node(ids["b2"]).Loc.X == 999 {
		t.Error("clone shares node storage")
	}
	if tr.NumNodes() == cp.NumNodes() {
		t.Error("clone shares node slice")
	}
	if err := cp.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestCloneShared(t *testing.T) {
	tr, ids := buildSmall(t)
	cp := tr.CloneShared(ids["b2"], ids["s1"])
	// Listed nodes (and the source) are deep copies; everything else shares
	// the original node objects.
	for _, id := range []NodeID{ids["b2"], ids["s1"], tr.Source} {
		if cp.Node(id) == tr.Node(id) {
			t.Errorf("node %d listed as mutable but shared", id)
		}
	}
	for _, id := range []NodeID{ids["b1"], ids["tap"], ids["b3"], ids["s2"], ids["s3"]} {
		if cp.Node(id) != tr.Node(id) {
			t.Errorf("unlisted node %d was deep-copied", id)
		}
	}
	// Mutating a listed node never reaches the original.
	cp.Node(ids["b2"]).Loc = geom.Pt(999, 999)
	cp.Node(ids["b2"]).CellName = "CKINVX8"
	cp.Node(ids["s1"]).Detour = 42
	if tr.Node(ids["b2"]).Loc.X == 999 || tr.Node(ids["b2"]).CellName == "CKINVX8" ||
		tr.Node(ids["s1"]).Detour == 42 {
		t.Error("mutation of a listed node leaked into the original")
	}
	// Appending under a listed parent grows only the clone's table.
	cp.AddNode(KindSink, geom.Pt(50, 10), "", ids["b2"])
	if tr.NumNodes() == cp.NumNodes() {
		t.Error("clone shares the node table")
	}
	if len(tr.Node(ids["b2"]).Children) != 1 {
		t.Error("append under a listed parent mutated the original")
	}
	if err := cp.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
}

// Property: CloneShared with the full mutation set of a surgery edit behaves
// exactly like a deep Clone for the edit, while the original stays bitwise
// intact.
func TestCloneSharedSurgeryMatchesClone(t *testing.T) {
	tr, ids := buildSmall(t)
	snapshot := tr.Clone()
	// Move s1 from b2 to b3: mutates s1 (Parent/Detour), b2 (Children splice),
	// b3 (Children append).
	cs := tr.CloneShared(ids["s1"], ids["b2"], ids["b3"])
	deep := tr.Clone()
	if err := cs.ReassignParent(ids["s1"], ids["b3"]); err != nil {
		t.Fatal(err)
	}
	if err := deep.ReassignParent(ids["s1"], ids["b3"]); err != nil {
		t.Fatal(err)
	}
	if err := cs.Validate(); err != nil {
		t.Fatalf("shared clone invalid after surgery: %v", err)
	}
	for i := range deep.Nodes {
		a, b := cs.Nodes[i], deep.Nodes[i]
		if a.Parent != b.Parent || a.Detour != b.Detour ||
			a.CellName != b.CellName || len(a.Children) != len(b.Children) {
			t.Fatalf("node %d differs between CloneShared and Clone after surgery", i)
		}
	}
	for i := range tr.Nodes {
		a, b := tr.Nodes[i], snapshot.Nodes[i]
		if a.Parent != b.Parent || a.Detour != b.Detour ||
			a.CellName != b.CellName || len(a.Children) != len(b.Children) {
			t.Fatalf("original node %d mutated through the shared clone", i)
		}
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	tr, ids := buildSmall(t)
	tr.Node(ids["b1"]).Parent = ids["s1"] // break cross-link
	if err := tr.Validate(); err == nil {
		t.Error("corrupt parent link not caught")
	}
	tr2, ids2 := buildSmall(t)
	tr2.Node(ids2["b2"]).CellName = ""
	if err := tr2.Validate(); err == nil {
		t.Error("cell-less buffer not caught")
	}
	tr3, ids3 := buildSmall(t)
	tr3.Node(ids3["s1"]).Detour = -1
	if err := tr3.Validate(); err == nil {
		t.Error("negative detour not caught")
	}
	tr4, _ := buildSmall(t)
	orphan := &Node{ID: NodeID(len(tr4.Nodes)), Kind: KindBuffer, CellName: "X", Parent: 0}
	tr4.Nodes = append(tr4.Nodes, orphan) // not linked as a child
	if err := tr4.Validate(); err == nil {
		t.Error("unreachable node not caught")
	}
}

func TestAddNodePanics(t *testing.T) {
	tr, _ := buildSmall(t)
	for _, f := range []func(){
		func() { tr.AddNode(KindSource, geom.Pt(0, 0), "X", tr.Source) },
		func() { tr.AddNode(KindBuffer, geom.Pt(0, 0), "X", NodeID(1000)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestSegmentation(t *testing.T) {
	tr, ids := buildSmall(t)
	seg := Segment(tr)
	if err := seg.Check(tr); err != nil {
		t.Fatal(err)
	}
	// Expected arcs: source→(b1,tap)→tap? Anchors: source, tap (2 children),
	// b3 (2 children), sinks. Arcs: source-[b1]-tap, tap-[b2]-s1,
	// tap-[]-b3? No: b3 has 2 children so b3 is an anchor; arc tap-[]-b3.
	// Then b3-[]-s2, b3-[]-s3. Total 5 arcs.
	if len(seg.Arcs) != 5 {
		t.Fatalf("arcs = %d, want 5", len(seg.Arcs))
	}
	a0 := seg.Arcs[seg.arcOfBottom[ids["tap"]]]
	if a0.Top != tr.Source || len(a0.Interior) != 1 || a0.Interior[0] != ids["b1"] {
		t.Errorf("source arc = %+v", a0)
	}
	if _, ok := seg.arcOfBottom[ids["b1"]]; ok {
		t.Error("interior node reported as arc bottom")
	}
	// Path of s1: source→tap arc, tap→s1 arc.
	path, err := seg.PathArcs(tr, ids["s1"])
	if err != nil {
		t.Fatal(err)
	}
	if len(path) != 2 || seg.Arcs[path[0]].Top != tr.Source || seg.Arcs[path[1]].Bottom != ids["s1"] {
		t.Errorf("PathArcs(s1) = %v", path)
	}
	// Path of s2: source→tap, tap→b3, b3→s2.
	path2, err := seg.PathArcs(tr, ids["s2"])
	if err != nil {
		t.Fatal(err)
	}
	if len(path2) != 3 {
		t.Errorf("PathArcs(s2) = %v", path2)
	}
	// Stale segmentation detection.
	if err := tr.RemoveNode(ids["b2"]); err != nil {
		t.Fatal(err)
	}
	if err := seg.Check(tr); err == nil {
		t.Error("stale segmentation passed Check")
	}
}

func TestSegmentationRandomTreesProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 30; trial++ {
		tr := NewTree(geom.Pt(0, 0), "CKINVX8")
		// Random growth.
		live := []NodeID{tr.Source}
		for i := 0; i < 60; i++ {
			p := live[rng.Intn(len(live))]
			if tr.Node(p).Kind == KindSink {
				continue
			}
			var kind Kind
			switch rng.Intn(3) {
			case 0:
				kind = KindBuffer
			case 1:
				kind = KindTap
			default:
				kind = KindSink
			}
			cell := ""
			if kind == KindBuffer {
				cell = "CKINVX2"
			}
			n := tr.AddNode(kind, geom.Pt(rng.Float64()*100, rng.Float64()*100), cell, p)
			live = append(live, n.ID)
		}
		if err := tr.Validate(); err != nil {
			t.Fatal(err)
		}
		seg := Segment(tr)
		if err := seg.Check(tr); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		// Every sink must have a consistent arc path.
		for _, s := range tr.Sinks() {
			path, err := seg.PathArcs(tr, s)
			if err != nil {
				t.Fatalf("trial %d sink %d: %v", trial, s, err)
			}
			if len(path) == 0 || seg.Arcs[path[len(path)-1]].Bottom != s {
				t.Fatalf("trial %d: bad path for sink %d: %v", trial, s, path)
			}
			for i := 1; i < len(path); i++ {
				if seg.Arcs[path[i]].Top != seg.Arcs[path[i-1]].Bottom {
					t.Fatalf("trial %d: disconnected arc path", trial)
				}
			}
		}
	}
}

func TestDesignTopPairsAndClone(t *testing.T) {
	tr, ids := buildSmall(t)
	d := &Design{
		Name: "t",
		Tree: tr,
		Pairs: []SinkPair{
			{A: ids["s1"], B: ids["s2"], Crit: 0.2},
			{A: ids["s2"], B: ids["s3"], Crit: 0.9},
			{A: ids["s1"], B: ids["s3"], Crit: 0.5},
		},
		CornerNames: []string{"c0", "c1"},
	}
	top := d.TopPairs(2)
	if len(top) != 2 || top[0].Crit != 0.9 || top[1].Crit != 0.5 {
		t.Errorf("TopPairs = %+v", top)
	}
	if all := d.TopPairs(0); len(all) != 3 {
		t.Errorf("TopPairs(0) = %d", len(all))
	}
	if all := d.TopPairs(99); len(all) != 3 {
		t.Errorf("TopPairs(99) = %d", len(all))
	}
	cp := d.Clone()
	cp.Pairs[0].Crit = 123
	cp.Tree.Node(ids["s1"]).Loc = geom.Pt(-1, -1)
	if d.Pairs[0].Crit == 123 || d.Tree.Node(ids["s1"]).Loc.X == -1 {
		t.Error("Design clone shares storage")
	}
}

// Property: random structural edits on a clone never affect the original,
// and the edited clone stays valid.
func TestCloneIsolationUnderRandomEditsProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 20; trial++ {
		tr, _ := buildSmall(t)
		// Grow a bit.
		for i := 0; i < 20; i++ {
			parents := tr.Buffers()
			p := parents[rng.Intn(len(parents))]
			if rng.Intn(2) == 0 {
				tr.AddNode(KindSink, geom.Pt(rng.Float64()*100, rng.Float64()*100), "", p)
			} else {
				tr.AddNode(KindBuffer, geom.Pt(rng.Float64()*100, rng.Float64()*100), "CKINVX2", p)
			}
		}
		if err := tr.Validate(); err != nil {
			t.Fatal(err)
		}
		snapshot := tr.Clone()
		work := tr.Clone()
		// Random edit storm on the work copy.
		for i := 0; i < 30; i++ {
			switch rng.Intn(4) {
			case 0:
				bufs := work.Buffers()
				if len(bufs) > 0 {
					b := work.Node(bufs[rng.Intn(len(bufs))])
					b.Loc = geom.Pt(rng.Float64()*200, rng.Float64()*200)
					b.Detour += rng.Float64() * 20
				}
			case 1:
				bufs := work.Buffers()
				if len(bufs) > 1 {
					a := bufs[rng.Intn(len(bufs))]
					b := bufs[rng.Intn(len(bufs))]
					_ = work.ReassignParent(a, b) // may legitimately fail
				}
			case 2:
				bufs := work.Buffers()
				if len(bufs) > 0 {
					_ = work.RemoveNode(bufs[rng.Intn(len(bufs))])
				}
			default:
				bufs := work.Buffers()
				if len(bufs) > 0 {
					work.AddNode(KindSink, geom.Pt(rng.Float64()*100, rng.Float64()*100), "",
						bufs[rng.Intn(len(bufs))])
				}
			}
			if err := work.Validate(); err != nil {
				t.Fatalf("trial %d: work tree invalid after edit %d: %v", trial, i, err)
			}
		}
		// The original must match its snapshot exactly.
		if tr.NumNodes() != snapshot.NumNodes() {
			t.Fatalf("trial %d: original node count changed", trial)
		}
		for i := range tr.Nodes {
			a, b := tr.Nodes[i], snapshot.Nodes[i]
			if (a == nil) != (b == nil) {
				t.Fatalf("trial %d: node %d liveness changed", trial, i)
			}
			if a == nil {
				continue
			}
			if !a.Loc.Eq(b.Loc) || a.Parent != b.Parent || a.Detour != b.Detour ||
				a.CellName != b.CellName || len(a.Children) != len(b.Children) {
				t.Fatalf("trial %d: node %d mutated through clone", trial, i)
			}
		}
	}
}

// stackFanoutPins is the fanout walk over an explicit LIFO stack seeded
// with the children: the order oracle for AppendFanoutPins.
func stackFanoutPins(t *Tree, id NodeID) []NodeID {
	var out []NodeID
	n := t.Node(id)
	if n == nil {
		return nil
	}
	stack := append([]NodeID(nil), n.Children...)
	for len(stack) > 0 {
		cur := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		c := t.Node(cur)
		if c == nil {
			continue
		}
		switch c.Kind {
		case KindBuffer, KindSink:
			out = append(out, cur)
		case KindTap:
			stack = append(stack, c.Children...)
		}
	}
	return out
}

// TestAppendFanoutPinsOrder compares every driving node's fanout pins with
// the stack walk on random trees with nested taps, and checks that
// AppendFanoutPins keeps what dst already held.
func TestAppendFanoutPinsOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	kinds := []Kind{KindBuffer, KindTap, KindTap, KindSink}
	for trial := 0; trial < 40; trial++ {
		tr := NewTree(geom.Pt(0, 0), "CKINVX8")
		open := []NodeID{tr.Source}
		for i := 0; i < 60; i++ {
			k := kinds[rng.Intn(len(kinds))]
			cell := ""
			if k == KindBuffer {
				cell = "CKINVX2"
			}
			n := tr.AddNode(k, geom.Pt(float64(i), 0), cell, open[rng.Intn(len(open))])
			if k != KindSink {
				open = append(open, n.ID)
			}
		}
		prefix := []NodeID{NoNode, 7}
		for _, id := range open {
			want := stackFanoutPins(tr, id)
			got := tr.AppendFanoutPins(append([]NodeID(nil), prefix...), id)
			if len(got) != len(prefix)+len(want) || got[0] != prefix[0] || got[1] != prefix[1] {
				t.Fatalf("trial %d, node %d: AppendFanoutPins %v, want prefix %v then %v", trial, id, got, prefix, want)
			}
			for i, p := range want {
				if got[len(prefix)+i] != p {
					t.Fatalf("trial %d, node %d: pins %v, stack walk %v", trial, id, got[len(prefix):], want)
				}
			}
		}
	}
}

// TestUndoRestore edits the small tree — a node appended under b3, b2
// removed, s2 moved under tap — and restores it: every slot, value and
// Children list must match a Clone taken before. Appending under every
// saved node afterwards must leave the two trees equal, so no restored
// node shares a Children array with another.
func TestUndoRestore(t *testing.T) {
	tr, ids := buildSmall(t)
	ref := tr.Clone()
	saved := []NodeID{ids["tap"], ids["b2"], ids["s1"], ids["b3"], ids["s2"]}
	var u Undo
	u.Save(tr, saved...)
	tr.AddNode(KindSink, geom.Pt(50, -30), "", ids["b3"])
	if err := tr.RemoveNode(ids["b2"]); err != nil {
		t.Fatal(err)
	}
	if err := tr.ReassignParent(ids["s2"], ids["tap"]); err != nil {
		t.Fatal(err)
	}
	u.Restore(tr)
	same := func(what string) {
		t.Helper()
		if len(tr.Nodes) != len(ref.Nodes) {
			t.Fatalf("%s: %d slots, want %d", what, len(tr.Nodes), len(ref.Nodes))
		}
		for i, w := range ref.Nodes {
			g := tr.Nodes[i]
			if (g == nil) != (w == nil) {
				t.Fatalf("%s: slot %d is %v, want %v", what, i, g, w)
			}
			if w == nil {
				continue
			}
			if g.ID != w.ID || g.Kind != w.Kind || g.Loc != w.Loc || g.CellName != w.CellName ||
				g.Parent != w.Parent || g.Detour != w.Detour || g.Name != w.Name ||
				!slices.Equal(g.Children, w.Children) {
				t.Fatalf("%s: node %d is %+v, want %+v", what, i, *g, *w)
			}
		}
	}
	same("restored")
	for _, id := range saved {
		if tr.Node(id).Kind == KindSink {
			continue
		}
		tr.AddNode(KindSink, geom.Pt(60, 0), "", id)
		ref.AddNode(KindSink, geom.Pt(60, 0), "", id)
	}
	same("appended under every saved node")
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	// A removed node, as a stale arc still lists it, is saved as an
	// empty slot and stays empty.
	if err := tr.RemoveNode(ids["b1"]); err != nil {
		t.Fatal(err)
	}
	ref = tr.Clone()
	u.Save(tr, ids["b1"], ids["tap"])
	tr.AddNode(KindBuffer, geom.Pt(70, 0), "CKINVX2", ids["tap"])
	u.Restore(tr)
	same("restored around an empty slot")
}
