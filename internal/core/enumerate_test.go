package core

import (
	"context"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"skewvar/internal/ctree"
	"skewvar/internal/eco"
	"skewvar/internal/sta"
	"skewvar/internal/tech"
	"skewvar/internal/testgen"
)

// maxEnumerateBytes is the allocation ceiling of a warm move sampling at
// the local-predict shape, CLS1v1(280) with its top 100 pairs and the
// default cap. A call that grew its move list from nil allocated 2.76 MB;
// one on a reused buffer allocates 2,648 B (CHANGES.md).
const maxEnumerateBytes = 600_000

// enumerateCandidates samples moves on a fresh move buffer, as LocalOpt's
// first iteration does.
func enumerateCandidates(tm *sta.Timer, cur *ctree.Tree, d *ctree.Design, a *sta.Analysis, alphas []float64, pairs []ctree.SinkPair, cfg LocalConfig, rng *rand.Rand) []eco.Move {
	var ms moveSample
	return ms.enumerate(tm, cur, d, a, alphas, pairs, cfg, rng)
}

// sampleShape is the local-predict shape: CLS1v1(280), its top 100 pairs
// and their alphas.
type sampleShape struct {
	d      *ctree.Design
	tm     *sta.Timer
	pairs  []ctree.SinkPair
	alphas []float64
}

func newSampleShape(tb testing.TB) *sampleShape {
	tb.Helper()
	d, tm, err := testgen.Build(tech.Default28nm(), testgen.CLS1v1(280))
	if err != nil {
		tb.Fatal(err)
	}
	pairs := d.TopPairs(100)
	return &sampleShape{d: d, tm: tm, pairs: pairs, alphas: sta.Alphas(tm.Analyze(d.Tree), pairs)}
}

// defaultMaxMoves is LocalConfig's default enumeration cap.
func defaultMaxMoves() int {
	var cfg LocalConfig
	cfg.setDefaults()
	return cfg.MaxMoves
}

// TestMoveSampleReuseMatchesReference holds the move sampling to
// referenceEnumerate at the caps around the list's length, n−1 (one move
// dropped by the shuffle) and n (no shuffle), and at the default cap,
// with one buffer reused by every call across the input tree and the
// tree after each of four local iterations, at the local-predict shape.
// Each call must list the reference's moves in its order and leave its
// rng where the reference leaves it, since the Random baseline draws on.
func TestMoveSampleReuseMatchesReference(t *testing.T) {
	sh := newSampleShape(t)
	trees := []*ctree.Tree{sh.d.Tree}
	if _, err := LocalOpt(context.Background(), sh.tm, sh.d, sh.alphas, LocalConfig{
		Model: &AnalyticDeltaModel{Mode: RSMTD2M}, MaxIters: 4, TopPairs: 100, Workers: 1, Seed: 3,
		OnIter: func(_ int, tr *ctree.Tree) { trees = append(trees, tr.Clone()) },
	}); err != nil {
		t.Fatal(err)
	}
	if len(trees) < 3 {
		t.Fatalf("%d trees; want the input and at least two iterations'", len(trees))
	}
	var ms moveSample
	shuffled := 0
	for i, tr := range trees {
		a := sh.tm.Analyze(tr)
		n := len(referenceEnumerate(sh.tm, tr, sh.d, a, sh.alphas, sh.pairs, LocalConfig{MaxMoves: 1 << 30}, nil))
		if n <= defaultMaxMoves() {
			t.Fatalf("tree %d: %d moves; want more than the default cap %d", i, n, defaultMaxMoves())
		}
		for j, maxMoves := range []int{defaultMaxMoves(), n - 1, n, n + 1} {
			cfg := LocalConfig{MaxMoves: maxMoves}
			seed := int64(10*i + j)
			wantRng, gotRng := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
			want := referenceEnumerate(sh.tm, tr, sh.d, a, sh.alphas, sh.pairs, cfg, wantRng)
			got := ms.enumerate(sh.tm, tr, sh.d, a, sh.alphas, sh.pairs, cfg, gotRng)
			if !slices.Equal(got, want) {
				t.Fatalf("tree %d, cap %d of %d: %d moves, the reference's %d, or a different order", i, maxMoves, n, len(got), len(want))
			}
			if g, w := gotRng.Int63(), wantRng.Int63(); g != w {
				t.Fatalf("tree %d, cap %d of %d: the rng draws %d next, after the reference %d", i, maxMoves, n, g, w)
			}
			if maxMoves < n {
				shuffled++
			}
		}
	}
	t.Logf("%d trees, %d shuffled samples", len(trees), shuffled)
}

// TestEnumerateAllocBudget holds a warm move sampling at the
// local-predict shape, on the buffer the previous call grew, under
// maxEnumerateBytes.
func TestEnumerateAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates on alloc-free paths")
	}
	sh := newSampleShape(t)
	a := sh.tm.Analyze(sh.d.Tree)
	cfg := LocalConfig{MaxMoves: defaultMaxMoves()}
	const runs = 8
	rngs := make([]*rand.Rand, runs+1)
	for i := range rngs {
		rngs[i] = rand.New(rand.NewSource(int64(i)))
	}
	var ms moveSample
	n := len(ms.enumerate(sh.tm, sh.d.Tree, sh.d, a, sh.alphas, sh.pairs, cfg, rngs[runs]))
	if n != cfg.MaxMoves {
		t.Fatalf("%d moves sampled; want the cap %d", n, cfg.MaxMoves)
	}
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, rng := range rngs[:runs] {
		ms.enumerate(sh.tm, sh.d.Tree, sh.d, a, sh.alphas, sh.pairs, cfg, rng)
	}
	runtime.ReadMemStats(&after)
	perCall := float64(after.TotalAlloc-before.TotalAlloc) / runs
	t.Logf("warm move sampling: %.0f bytes a call, %d moves of %d (ceiling %d bytes)", perCall, n, len(ms.all), maxEnumerateBytes)
	if perCall > maxEnumerateBytes {
		t.Errorf("a warm move sampling allocates %.0f bytes, ceiling %d", perCall, maxEnumerateBytes)
	}
}

// BenchmarkEnumerateCandidates times the local stage's move sampling at
// the local-predict shape and the default cap, on one buffer reused
// across calls as LocalOpt reuses it across iterations.
func BenchmarkEnumerateCandidates(b *testing.B) {
	sh := newSampleShape(b)
	a := sh.tm.Analyze(sh.d.Tree)
	cfg := LocalConfig{MaxMoves: defaultMaxMoves()}
	rng := rand.New(rand.NewSource(1))
	var ms moveSample
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rng.Seed(int64(i))
		ms.enumerate(sh.tm, sh.d.Tree, sh.d, a, sh.alphas, sh.pairs, cfg, rng)
	}
}
