package sta

import (
	"math"
	"math/rand"
	"testing"

	"skewvar/internal/ctree"
	"skewvar/internal/geom"
	"skewvar/internal/tech"
)

// buildDeepTree makes a multi-level tree with enough structure for
// meaningful incremental checks.
func buildDeepTree(rng *rand.Rand) *ctree.Tree {
	tr := ctree.NewTree(geom.Pt(0, 400), "CKINVX16")
	for g := 0; g < 3; g++ {
		top := tr.AddNode(ctree.KindBuffer,
			geom.Pt(140, 200+float64(g)*180), "CKINVX8", tr.Source)
		for l := 0; l < 2; l++ {
			mid := tr.AddNode(ctree.KindBuffer,
				geom.Pt(280, top.Loc.Y-60+float64(l)*120), "CKINVX4", top.ID)
			leaf := tr.AddNode(ctree.KindBuffer,
				geom.Pt(420, mid.Loc.Y), "CKINVX4", mid.ID)
			for i := 0; i < 6; i++ {
				tr.AddNode(ctree.KindSink,
					geom.Pt(460+rng.Float64()*60, leaf.Loc.Y-30+rng.Float64()*60), "", leaf.ID)
			}
		}
	}
	return tr
}

func maxDiff(a, b *Analysis, tr *ctree.Tree) (arr, slew float64) {
	for k := 0; k < a.K; k++ {
		for _, id := range tr.Topo() {
			x, y := a.Arrive[k][id], b.Arrive[k][id]
			if math.IsNaN(x) != math.IsNaN(y) {
				return math.Inf(1), math.Inf(1)
			}
			if !math.IsNaN(x) {
				if d := math.Abs(x - y); d > arr {
					arr = d
				}
			}
			sx, sy := a.Slew[k][id], b.Slew[k][id]
			if !math.IsNaN(sx) && !math.IsNaN(sy) {
				if d := math.Abs(sx - sy); d > slew {
					slew = d
				}
			}
		}
	}
	return arr, slew
}

func TestIncrementalEquivalenceAfterEdits(t *testing.T) {
	th := tech.Default28nm()
	tm := New(th)
	rng := rand.New(rand.NewSource(61))
	for trial := 0; trial < 25; trial++ {
		tr := buildDeepTree(rng)
		base := tm.Analyze(tr)
		var dirty []ctree.NodeID
		bufs := tr.Buffers()
		switch trial % 4 {
		case 0: // displacement
			b := bufs[rng.Intn(len(bufs))]
			tr.Node(b).Loc = tr.Node(b).Loc.Add(geom.Pt(10, -10))
			dirty = []ctree.NodeID{b}
		case 1: // resize
			b := bufs[rng.Intn(len(bufs))]
			tr.Node(b).CellName = th.UpSize(th.CellByName(tr.Node(b).CellName)).Name
			dirty = []ctree.NodeID{b}
		case 2: // detour
			s := tr.Sinks()[rng.Intn(len(tr.Sinks()))]
			tr.Node(s).Detour += 35
			dirty = []ctree.NodeID{s}
		default: // surgery: move a sink to a sibling leaf buffer
			s := tr.Sinks()[rng.Intn(len(tr.Sinks()))]
			old := tr.Driver(s)
			var target ctree.NodeID = ctree.NoNode
			for _, b := range bufs {
				if b != old && len(tr.FanoutPins(b)) > 0 &&
					tr.Node(b).Loc.Manhattan(tr.Node(s).Loc) < 400 {
					target = b
					break
				}
			}
			if target == ctree.NoNode {
				continue
			}
			if err := tr.ReassignParent(s, target); err != nil {
				continue
			}
			dirty = []ctree.NodeID{s, old, target}
		}
		full := tm.Analyze(tr)
		inc := tm.AnalyzeIncremental(tr, base, dirty)
		arrD, slewD := maxDiff(full, inc, tr)
		if arrD > 0.05 || slewD > 0.05 {
			t.Fatalf("trial %d: incremental diverges: arr %.4f ps, slew %.4f ps",
				trial, arrD, slewD)
		}
		for k := 0; k < full.K; k++ {
			if math.Abs(full.MaxLat[k]-inc.MaxLat[k]) > 0.05 {
				t.Fatalf("trial %d: MaxLat differs at corner %d", trial, k)
			}
		}
	}
}

func TestIncrementalNoOpIsExact(t *testing.T) {
	th := tech.Default28nm()
	tm := New(th)
	rng := rand.New(rand.NewSource(3))
	tr := buildDeepTree(rng)
	base := tm.Analyze(tr)
	inc := tm.AnalyzeIncremental(tr, base, nil)
	arrD, slewD := maxDiff(base, inc, tr)
	if arrD != 0 || slewD != 0 {
		t.Fatalf("no-op incremental changed results: %v/%v", arrD, slewD)
	}
}

func TestIncrementalHandlesNewNodes(t *testing.T) {
	th := tech.Default28nm()
	tm := New(th)
	rng := rand.New(rand.NewSource(5))
	tr := buildDeepTree(rng)
	base := tm.Analyze(tr)
	// Insert a brand-new buffer + sink (ECO-style growth).
	b := tr.Buffers()[0]
	nb := tr.AddNode(ctree.KindBuffer, geom.Pt(500, 500), "CKINVX2", b)
	tr.AddNode(ctree.KindSink, geom.Pt(540, 520), "", nb.ID)
	full := tm.Analyze(tr)
	inc := tm.AnalyzeIncremental(tr, base, []ctree.NodeID{nb.ID})
	arrD, slewD := maxDiff(full, inc, tr)
	if arrD > 0.05 || slewD > 0.05 {
		t.Fatalf("incremental with new nodes diverges: %v/%v", arrD, slewD)
	}
}

// TestIncrementalOneLookupPerRetimedNet: AnalyzeIncremental resolves a
// net it re-times through the net cache once for all corners. After one
// buffer moves, the cache lookups must equal the drivers re-timed in full
// at some corner: the buffer, its driver, and every driver whose input
// slew left the baseline's by more than slewConvergedEps.
func TestIncrementalOneLookupPerRetimedNet(t *testing.T) {
	th := tech.Default28nm()
	tm := New(th)
	tr := buildDeepTree(rand.New(rand.NewSource(13)))
	base := tm.Analyze(tr)
	b := tr.Buffers()[1]
	tr.Node(b).Loc = tr.Node(b).Loc.Add(geom.Pt(10, -10))
	pre := tm.CacheStats()
	got := tm.AnalyzeIncremental(tr, base, []ctree.NodeID{b})
	post := tm.CacheStats()
	lookups := post.Hits - pre.Hits + post.Misses - pre.Misses

	var retimed int64
	for _, id := range tr.Topo() {
		if k := tr.Node(id).Kind; k != ctree.KindSource && k != ctree.KindBuffer {
			continue
		}
		full := id == b || id == tr.Driver(b)
		for k := 0; k < got.K && !full; k++ {
			full = math.Abs(got.Slew[k][id]-base.Slew[k][id]) > slewConvergedEps
		}
		if full {
			retimed++
		}
	}
	if retimed < 3 {
		t.Fatalf("only %d drivers re-timed; the edit should reach past its own net", retimed)
	}
	if lookups != retimed {
		t.Fatalf("%d net-cache lookups for %d re-timed nets over %d corners; want one per net",
			lookups, retimed, got.K)
	}
}

func BenchmarkIncrementalVsFull(b *testing.B) {
	th := tech.Default28nm()
	tm := New(th)
	rng := rand.New(rand.NewSource(7))
	tr := buildDeepTree(rng)
	base := tm.Analyze(tr)
	bufs := tr.Buffers()
	victim := bufs[len(bufs)-1]
	tr.Node(victim).Loc = tr.Node(victim).Loc.Add(geom.Pt(10, 0))
	b.Run("full", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			tm.Analyze(tr)
		}
	})
	b.Run("incremental", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			tm.AnalyzeIncremental(tr, base, []ctree.NodeID{victim})
		}
	})
}
