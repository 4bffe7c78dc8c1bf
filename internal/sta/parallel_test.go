// Equivalence harness for the parallel multi-corner timer: every worker
// count must produce bit-identical analyses — not merely close, identical —
// because flow results, checkpoints and the local optimizer's accept
// decisions all hang off these floats. The tests live in package sta_test so
// they can build real designs through testgen (which imports sta).
package sta_test

import (
	"math"
	"math/rand"
	"runtime"
	"testing"

	"skewvar/internal/ctree"
	"skewvar/internal/exp"
	"skewvar/internal/geom"
	"skewvar/internal/route"
	"skewvar/internal/sta"
	"skewvar/internal/tech"
	"skewvar/internal/testgen"
)

// workerSweep is the set of worker counts every equivalence test compares:
// the exact serial path, a small pool, and whatever the host offers.
func workerSweep() []int {
	sweep := []int{1, 2, runtime.GOMAXPROCS(0)}
	if sweep[2] <= 2 {
		sweep[2] = 4 // still exercise a pool wider than the corner count
	}
	return sweep
}

// mustBitEqual fails unless the two analyses are bitwise identical,
// including NaN positions (removed-node entries).
func mustBitEqual(t *testing.T, label string, a, b *sta.Analysis) {
	t.Helper()
	if a.K != b.K {
		t.Fatalf("%s: corner counts differ: %d vs %d", label, a.K, b.K)
	}
	for k := 0; k < a.K; k++ {
		if len(a.Arrive[k]) != len(b.Arrive[k]) {
			t.Fatalf("%s: corner %d table sizes differ", label, k)
		}
		for i := range a.Arrive[k] {
			if math.Float64bits(a.Arrive[k][i]) != math.Float64bits(b.Arrive[k][i]) {
				t.Fatalf("%s: corner %d node %d: arrival %v vs %v",
					label, k, i, a.Arrive[k][i], b.Arrive[k][i])
			}
			if math.Float64bits(a.Slew[k][i]) != math.Float64bits(b.Slew[k][i]) {
				t.Fatalf("%s: corner %d node %d: slew %v vs %v",
					label, k, i, a.Slew[k][i], b.Slew[k][i])
			}
		}
		if math.Float64bits(a.MaxLat[k]) != math.Float64bits(b.MaxLat[k]) {
			t.Fatalf("%s: corner %d: MaxLat %v vs %v", label, k, a.MaxLat[k], b.MaxLat[k])
		}
	}
}

// timerLike returns a fresh timer with the same configuration as tm but its
// own (cold) net cache, at the given worker count.
func timerLike(tm *sta.Timer, workers int) *sta.Timer {
	nt := sta.New(tm.Tech)
	nt.Cong = tm.Cong
	nt.Wire = tm.Wire
	nt.SourceSlew = tm.SourceSlew
	nt.Workers = workers
	return nt
}

func buildCase(t *testing.T, v testgen.Variant) (*ctree.Design, *sta.Timer) {
	t.Helper()
	base, _ := exp.Technology()
	d, tm, err := testgen.Build(base, v)
	if err != nil {
		t.Fatalf("building %s: %v", v.Name, err)
	}
	return d, tm
}

// TestAnalyzeParallelBitIdentical checks full analyses of every testgen
// design class at worker counts {1, 2, GOMAXPROCS}, cold cache and warm.
func TestAnalyzeParallelBitIdentical(t *testing.T) {
	variants := []testgen.Variant{
		testgen.CLS1v1(140), testgen.CLS1v2(140), testgen.CLS2v1(180),
	}
	for _, v := range variants {
		d, tm := buildCase(t, v)
		ref := timerLike(tm, 1).Analyze(d.Tree)
		for _, j := range workerSweep() {
			pt := timerLike(tm, j)
			cold := pt.Analyze(d.Tree)
			mustBitEqual(t, v.Name+"/cold", ref, cold)
			warm := pt.Analyze(d.Tree)
			mustBitEqual(t, v.Name+"/warm", ref, warm)
		}
	}
}

// TestAnalyzeParallelFourCornersBitIdentical runs the sweep against the full
// four-corner technology (the testgen variants each select three corners),
// so corner counts above and below the pool width are both covered.
func TestAnalyzeParallelFourCornersBitIdentical(t *testing.T) {
	th := tech.Default28nm()
	if th.NumCorners() != 4 {
		t.Fatalf("Default28nm has %d corners, want 4", th.NumCorners())
	}
	rng := rand.New(rand.NewSource(9))
	tc := testgen.NewTrainingCase(th, rng)
	ref := sta.New(th)
	ref.Cong = route.NewCongestion(tc.Die, 8, 8, 0.18, 9)
	ref.Workers = 1
	want := ref.Analyze(tc.Tree)
	for _, j := range append(workerSweep(), 3, 8) {
		pt := timerLike(ref, j)
		mustBitEqual(t, "4-corner", want, pt.Analyze(tc.Tree))
	}
}

// TestAnalyzeIncrementalParallelBitIdentical applies ECO-style edits and
// checks that incremental re-analysis is bit-identical across worker counts
// — with both cold caches and caches warmed by the baseline analysis, so the
// dirty-net invalidation path is exercised.
func TestAnalyzeIncrementalParallelBitIdentical(t *testing.T) {
	d, tm := buildCase(t, testgen.CLS1v1(140))
	rng := rand.New(rand.NewSource(17))
	ref := timerLike(tm, 1)

	tr := d.Tree.Clone()
	base := ref.Analyze(tr)
	for trial := 0; trial < 8; trial++ {
		var dirty []ctree.NodeID
		bufs := tr.Buffers()
		switch trial % 3 {
		case 0: // displacement
			b := bufs[rng.Intn(len(bufs))]
			tr.Node(b).Loc = tr.Node(b).Loc.Add(geom.Pt(12, -8))
			dirty = []ctree.NodeID{b}
		case 1: // detour
			s := tr.Sinks()[rng.Intn(len(tr.Sinks()))]
			tr.Node(s).Detour += 40
			dirty = []ctree.NodeID{s}
		default: // surgery
			s := tr.Sinks()[rng.Intn(len(tr.Sinks()))]
			old := tr.Driver(s)
			var target ctree.NodeID = ctree.NoNode
			for _, b := range bufs {
				if b != old && len(tr.FanoutPins(b)) > 0 {
					target = b
					break
				}
			}
			if target == ctree.NoNode || tr.ReassignParent(s, target) != nil {
				continue
			}
			dirty = []ctree.NodeID{s, old, target}
		}
		want := ref.AnalyzeIncremental(tr, base, dirty)
		for _, j := range workerSweep()[1:] {
			// Warm path: a full analysis populates the cache with the
			// pre-edit topology; dirty nets must miss on their new hashes.
			warm := timerLike(tm, j)
			warm.Analyze(d.Tree)
			got := warm.AnalyzeIncremental(tr, base, dirty)
			mustBitEqual(t, "incremental/warm", want, got)
			// Cold path.
			cold := timerLike(tm, j)
			mustBitEqual(t, "incremental/cold", want, cold.AnalyzeIncremental(tr, base, dirty))
		}
		base = want
	}
}

// TestNetLoadParallelConsistent pins the cache-backed load query against the
// analysis results at several worker counts.
func TestNetLoadParallelConsistent(t *testing.T) {
	d, tm := buildCase(t, testgen.CLS2v1(160))
	ref := timerLike(tm, 1)
	for _, j := range workerSweep() {
		pt := timerLike(tm, j)
		pt.Analyze(d.Tree) // warm the cache through the parallel path
		for _, dr := range []ctree.NodeID{d.Tree.Source, d.Tree.Buffers()[0]} {
			for k := 0; k < tm.Tech.NumCorners(); k++ {
				a, b := ref.NetLoad(d.Tree, dr, k), pt.NetLoad(d.Tree, dr, k)
				if math.Float64bits(a) != math.Float64bits(b) {
					t.Fatalf("j=%d: NetLoad(%d, corner %d) = %v, serial %v", j, dr, k, b, a)
				}
			}
		}
	}
}
