package core

import (
	"context"
	"math"
	"sync"
	"testing"

	"skewvar/internal/ctree"
	"skewvar/internal/eco"
	"skewvar/internal/geom"
	"skewvar/internal/sta"
	"skewvar/internal/tech"
	"skewvar/internal/testgen"
)

// Allocation ceilings of the predictor path, as fixed numbers (CHANGES.md
// derives them): a tenth of the 510,982 allocations BuildDataset(Default28nm,
// 4, 8, 1) made when every stage rebuilt its RC trees through rctree.Builder,
// and a quarter of the 736 that path made per warm Gain call over the
// digest's move set.
const (
	maxDatasetAllocs = 51098
	maxGainAllocs    = 184
)

// digestScoring is TestEstimatorDigest's scoring set-up: a ridge model
// trained on BuildDataset(Default28nm, 4, 8, 1), CLS1v1(120) with its top
// 40 pairs, and every move enumerated on its buffers.
type digestScoring struct {
	model  StageModel
	tm     *sta.Timer
	tree   *ctree.Tree
	die    geom.Rect
	alphas []float64
	pairs  []ctree.SinkPair
	moves  []eco.Move
}

func newDigestScoring(t *testing.T) *digestScoring {
	t.Helper()
	ctx := context.Background()
	th := tech.Default28nm()
	ds, err := BuildDataset(ctx, th, 4, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	ridge, err := TrainOnDataset(ctx, th, ds, TrainConfig{Kind: "ridge", Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	d, tm, err := testgen.Build(th, testgen.CLS1v1(120))
	if err != nil {
		t.Fatal(err)
	}
	pairs := d.TopPairs(40)
	s := &digestScoring{
		model: ridge, tm: tm, tree: d.Tree, die: d.Die, pairs: pairs,
		alphas: sta.Alphas(tm.Analyze(d.Tree), pairs),
	}
	for _, b := range d.Tree.Buffers() {
		s.moves = append(s.moves, eco.Enumerate(d.Tree, tm.Tech, b, d.Die)...)
	}
	return s
}

func (s *digestScoring) scorer() *MoveScorer {
	return NewMoveScorer(s.tm, s.tree, s.die, s.alphas, s.pairs, s.model)
}

func TestBuildDatasetAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates on alloc-free paths")
	}
	th := tech.Default28nm()
	allocs := testing.AllocsPerRun(1, func() {
		if _, err := BuildDataset(context.Background(), th, 4, 8, 1); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("BuildDataset(Default28nm, 4, 8, 1): %.0f allocations (ceiling %d)", allocs, maxDatasetAllocs)
	if allocs > maxDatasetAllocs {
		t.Errorf("BuildDataset makes %.0f allocations, ceiling %d", allocs, maxDatasetAllocs)
	}
}

func TestGainAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates on alloc-free paths")
	}
	s := newDigestScoring(t)
	sc := s.scorer()
	// AllocsPerRun's warm-up pass fills the pre-move cache and the pools.
	allocs := testing.AllocsPerRun(1, func() {
		for _, mv := range s.moves {
			sc.Gain(mv)
		}
	}) / float64(len(s.moves))
	t.Logf("warm Gain: %.1f allocations per call over %d moves (ceiling %d)", allocs, len(s.moves), maxGainAllocs)
	if allocs > maxGainAllocs {
		t.Errorf("warm Gain makes %.1f allocations per call, ceiling %d", allocs, maxGainAllocs)
	}
}

// TestGainParallelMatchesSerial scores the digest's move set from four
// goroutines on one shared, cold MoveScorer: every gain must equal serial
// scoring's bit for bit while the pooled scratch and the per-net pre-move
// cache fill under contention.
func TestGainParallelMatchesSerial(t *testing.T) {
	s := newDigestScoring(t)
	want := make([]float64, len(s.moves))
	serial := s.scorer()
	for i, mv := range s.moves {
		want[i] = serial.Gain(mv)
	}
	const workers = 4
	got := make([]float64, len(s.moves))
	shared := s.scorer()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(s.moves); i += workers {
				got[i] = shared.Gain(s.moves[i])
			}
		}(w)
	}
	wg.Wait()
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("move %d (%s): concurrent gain %v, serial %v", i, s.moves[i], got[i], want[i])
		}
	}
}
