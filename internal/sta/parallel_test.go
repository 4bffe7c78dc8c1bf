// Concurrent-caller harness for the timer. An analysis runs serially on
// the goroutine that calls it, but callers share timers: the local
// optimizer's golden trials run Analyze/AnalyzeIncremental on one timer
// from its worker pool, and skewd's jobs run separate timers over one
// SharedCache. Every concurrent result must be bit-identical — not merely
// close — to a fresh serial timer's, because flow results, checkpoints and
// the accept decisions all hang off these floats. The tests live in package
// sta_test so they can build real designs through testgen (which imports
// sta); "Parallel" in their names puts them in make race's repeated pass.
package sta_test

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"skewvar/internal/ctree"
	"skewvar/internal/exp"
	"skewvar/internal/route"
	"skewvar/internal/sta"
	"skewvar/internal/tech"
	"skewvar/internal/testgen"
)

// callers is the number of goroutines each test drives one timer from.
const callers = 4

// concurrently runs fn(0), …, fn(n-1) on n goroutines and waits for all.
func concurrently(n int, fn func(i int)) {
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			fn(i)
		}(i)
	}
	wg.Wait()
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
// own (cold) net cache.
func timerLike(tm *sta.Timer) *sta.Timer {
	nt := sta.New(tm.Tech)
	nt.Cong = tm.Cong
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

// analyzeConcurrently runs two back-to-back Analyze calls of tr on each of
// callers goroutines sharing tm — the first ones race on tm's cold cache,
// the later ones hit it — and checks every result against want.
func analyzeConcurrently(t *testing.T, label string, tm *sta.Timer, tr *ctree.Tree, want *sta.Analysis) {
	t.Helper()
	got := make([][2]*sta.Analysis, callers)
	concurrently(callers, func(i int) {
		got[i][0] = tm.Analyze(tr)
		got[i][1] = tm.Analyze(tr)
	})
	for i := range got {
		mustBitEqual(t, label+"/first", want, got[i][0])
		mustBitEqual(t, label+"/second", want, got[i][1])
		got[i][0].Release()
		got[i][1].Release()
	}
}

// TestAnalyzeParallelBitIdentical runs concurrent full analyses of every
// testgen design class on one cold timer.
func TestAnalyzeParallelBitIdentical(t *testing.T) {
	variants := []testgen.Variant{
		testgen.CLS1v1(140), testgen.CLS1v2(140), testgen.CLS2v1(180),
	}
	for _, v := range variants {
		d, tm := buildCase(t, v)
		want := timerLike(tm).Analyze(d.Tree)
		analyzeConcurrently(t, v.Name, timerLike(tm), d.Tree, want)
	}
}

// TestAnalyzeParallelFourCornersBitIdentical repeats the check on the full
// four-corner technology (the testgen variants each select three corners)
// with a congested timer.
func TestAnalyzeParallelFourCornersBitIdentical(t *testing.T) {
	th := tech.Default28nm()
	if th.NumCorners() != 4 {
		t.Fatalf("Default28nm has %d corners, want 4", th.NumCorners())
	}
	rng := rand.New(rand.NewSource(9))
	tc := testgen.NewTrainingCase(th, rng)
	ref := sta.New(th)
	ref.Cong = route.NewCongestion(tc.Die, 8, 8, 0.18, 9)
	want := ref.Analyze(tc.Tree)
	analyzeConcurrently(t, "4-corner", timerLike(ref), tc.Tree, want)
}

// editedClones makes callers clones of tr, each with its own ECO edit from
// diffEdit, and the dirty sets to hand AnalyzeIncremental: the shape of
// one batch of the local optimizer's golden trials.
func editedClones(tr *ctree.Tree, seed int64) ([]*ctree.Tree, [][]ctree.NodeID) {
	rng := rand.New(rand.NewSource(seed))
	var trees []*ctree.Tree
	var dirty [][]ctree.NodeID
	for trial := 0; len(trees) < callers; trial++ {
		c := tr.Clone()
		if d := diffEdit(c, rng, trial); d != nil {
			trees = append(trees, c)
			dirty = append(dirty, d)
		}
	}
	return trees, dirty
}

// TestAnalyzeIncrementalParallelBitIdentical is a batch of trials on one
// timer: each goroutine edits its own clone and runs AnalyzeIncremental
// from the shared baseline, then Analyze of its clone. The timer's cache
// is warm on the pre-edit topology, so dirty nets must miss on their new
// hashes while clean nets hit, with the misses racing across goroutines.
func TestAnalyzeIncrementalParallelBitIdentical(t *testing.T) {
	d, tm := buildCase(t, testgen.CLS1v1(140))
	shared := timerLike(tm)
	base := shared.Analyze(d.Tree)
	for round := int64(0); round < 3; round++ {
		trees, dirty := editedClones(d.Tree, 17+round)
		wantInc := make([]*sta.Analysis, callers)
		wantFull := make([]*sta.Analysis, callers)
		for i := range trees {
			wantInc[i] = timerLike(tm).AnalyzeIncremental(trees[i], base, dirty[i])
			wantFull[i] = timerLike(tm).Analyze(trees[i])
		}
		gotInc := make([]*sta.Analysis, callers)
		gotFull := make([]*sta.Analysis, callers)
		concurrently(callers, func(i int) {
			gotInc[i] = shared.AnalyzeIncremental(trees[i], base, dirty[i])
			gotFull[i] = shared.Analyze(trees[i])
		})
		for i := range trees {
			mustBitEqual(t, "incremental", wantInc[i], gotInc[i])
			mustBitEqual(t, "full", wantFull[i], gotFull[i])
		}
	}
}

// TestSharedCacheParallelBitIdentical is skewd's pattern: two timers over
// one technology view share a NetCache, and each is called from its own
// goroutines at once, with full analyses of the design and incremental
// analyses of edited clones.
func TestSharedCacheParallelBitIdentical(t *testing.T) {
	d, tm := buildCase(t, testgen.CLS1v2(120))
	base := timerLike(tm).Analyze(d.Tree)
	trees, dirty := editedClones(d.Tree, 29)
	wantFull := timerLike(tm).Analyze(d.Tree)
	wantInc := make([]*sta.Analysis, callers)
	for i := range trees {
		wantInc[i] = timerLike(tm).AnalyzeIncremental(trees[i], base, dirty[i])
	}
	cache := sta.NewNetCache()
	timers := [2]*sta.Timer{timerLike(tm), timerLike(tm)}
	for _, st := range timers {
		st.SharedCache = cache
	}
	gotFull := make([]*sta.Analysis, callers)
	gotInc := make([]*sta.Analysis, callers)
	concurrently(callers, func(i int) {
		st := timers[i%2]
		gotFull[i] = st.Analyze(d.Tree)
		gotInc[i] = st.AnalyzeIncremental(trees[i], base, dirty[i])
	})
	for i := range gotFull {
		mustBitEqual(t, "shared/full", wantFull, gotFull[i])
		mustBitEqual(t, "shared/incremental", wantInc[i], gotInc[i])
	}
}

// TestNetLoadParallelConsistent pins the cache-backed load query, called
// from several goroutines while they also analyze the tree, against a
// fresh serial timer's.
func TestNetLoadParallelConsistent(t *testing.T) {
	d, tm := buildCase(t, testgen.CLS2v1(160))
	ref := timerLike(tm)
	drivers := []ctree.NodeID{d.Tree.Source, d.Tree.Buffers()[0]}
	K := tm.Tech.NumCorners()
	want := make([]float64, len(drivers)*K)
	for i, dr := range drivers {
		for k := 0; k < K; k++ {
			want[i*K+k] = ref.NetLoad(d.Tree, dr, k)
		}
	}
	shared := timerLike(tm)
	got := make([][]float64, callers)
	concurrently(callers, func(c int) {
		shared.Analyze(d.Tree).Release()
		got[c] = make([]float64, len(want))
		for i, dr := range drivers {
			for k := 0; k < K; k++ {
				got[c][i*K+k] = shared.NetLoad(d.Tree, dr, k)
			}
		}
	})
	for c := range got {
		for i := range want {
			if math.Float64bits(got[c][i]) != math.Float64bits(want[i]) {
				t.Fatalf("caller %d: NetLoad(%d, corner %d) = %v, serial %v",
					c, drivers[i/K], i%K, got[c][i], want[i])
			}
		}
	}
}
