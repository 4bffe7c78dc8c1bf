package core

import (
	"context"
	"math"
	"runtime"
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
// derives them): BuildDataset(Default28nm, 4, 8, 1) made 3,986 allocations
// once the routes, the ridge view, the fanout lists and Enumerate's buffer
// list stopped allocating (8,229 before, 510,982 when every stage rebuilt
// its RC trees through rctree.Builder), and its ceiling is a quarter above
// that; a warm Gain call makes none.
const (
	maxDatasetAllocs = 4983
	maxGainAllocs    = 0
)

// digestScoring is TestEstimatorDigest's scoring set-up: a ridge model
// trained on BuildDataset(Default28nm, 4, 8, 1), CLS1v1(120) with its top
// 40 pairs, and every move enumerated on its buffers. allPairs holds every
// pair of the design.
type digestScoring struct {
	model    StageModel
	tm       *sta.Timer
	tree     *ctree.Tree
	die      geom.Rect
	alphas   []float64
	pairs    []ctree.SinkPair
	allPairs []ctree.SinkPair
	moves    []eco.Move
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
		model: ridge, tm: tm, tree: d.Tree, die: d.Die, pairs: pairs, allPairs: d.TopPairs(0),
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
	pass := func() {
		for _, mv := range s.moves {
			sc.Gain(mv)
		}
	}
	// A first pass fills the pre-move cache. Its allocations can start a
	// GC cycle, and each cycle makes every sync.Pool allocate a fresh
	// per-P array on its next use; collecting now keeps that cycle out of
	// the measured pass. AllocsPerRun's own warm-up pass refills the pools.
	pass()
	runtime.GC()
	allocs := testing.AllocsPerRun(1, pass)
	t.Logf("warm Gain: %.0f allocations over %d calls (ceiling %d per call)", allocs, len(s.moves), maxGainAllocs)
	if allocs > maxGainAllocs*float64(len(s.moves)) {
		t.Errorf("warm Gain makes %.0f allocations over %d calls, ceiling %d per call", allocs, len(s.moves), maxGainAllocs)
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

// panicOnNth is a StageModel that panics on its nth prediction and
// otherwise defers to the model it wraps.
type panicOnNth struct {
	StageModel
	n, calls int
}

func (p *panicOnNth) PredictDelta(k int, feats []float64) float64 {
	p.calls++
	if p.calls == p.n {
		panic("injected prediction failure")
	}
	return p.StageModel.PredictDelta(k, feats)
}

// countPredictions counts PredictDelta calls.
type countPredictions struct {
	StageModel
	calls int
}

func (c *countPredictions) PredictDelta(k int, feats []float64) float64 {
	c.calls++
	return c.StageModel.PredictDelta(k, feats)
}

// TestGainPanicLeavesScorerIntact makes the model panic in the middle of
// one Gain call, after the move has been applied to a pooled post-move
// tree, once for a move of each type. The panicking call's tree must not
// return to the pool: every later Gain on the same scorer must equal a
// fresh scorer's bit for bit.
func TestGainPanicLeavesScorerIntact(t *testing.T) {
	s := newDigestScoring(t)
	fresh := s.scorer()
	want := make([]float64, len(s.moves))
	for i, mv := range s.moves {
		want[i] = fresh.Gain(mv)
	}
	// The prediction count before each move, on a scorer scoring in order.
	counter := &countPredictions{StageModel: s.model}
	counted := NewMoveScorer(s.tm, s.tree, s.die, s.alphas, s.pairs, counter)
	before := make([]int, len(s.moves))
	for i, mv := range s.moves {
		before[i] = counter.calls
		counted.Gain(mv)
	}
	for _, typ := range []eco.MoveType{eco.TypeI, eco.TypeII, eco.TypeIII} {
		// The first move of the type whose gain runs the model, past the
		// moves that warm the pools.
		victim := -1
		for i := 10; i+1 < len(s.moves); i++ {
			if s.moves[i].Type == typ && before[i+1] > before[i] {
				victim = i
				break
			}
		}
		if victim < 0 {
			t.Fatalf("no %v move runs the model", typ)
		}
		model := &panicOnNth{StageModel: s.model, n: before[victim] + 1}
		sc := NewMoveScorer(s.tm, s.tree, s.die, s.alphas, s.pairs, model)
		for i, mv := range s.moves {
			var got float64
			panicked := func() (p bool) {
				defer func() { p = recover() != nil }()
				got = sc.Gain(mv)
				return false
			}()
			if panicked != (i == victim) {
				t.Fatalf("%v: move %d (%s) panicked=%v, want a panic at move %d only", typ, i, mv, panicked, victim)
			}
			if !panicked && math.Float64bits(got) != math.Float64bits(want[i]) {
				t.Fatalf("%v: move %d (%s) after a panic at move %d: gain %v, fresh scorer %v", typ, i, mv, victim, got, want[i])
			}
		}
	}
}
