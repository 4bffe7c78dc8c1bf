package core

import (
	"context"
	"math"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"testing"

	"skewvar/internal/ctree"
	"skewvar/internal/eco"
	"skewvar/internal/sta"
)

// stableTop is the local stage's ranking before topMoves, kept as the
// reference for it: a stable sort of every move by descending gain, of
// which the first n are read.
func stableTop(scored []scoredMove, n int) []scoredMove {
	sorted := slices.Clone(scored)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].gain > sorted[j].gain })
	return sorted[:min(n, len(sorted))]
}

// checkTopMoves holds topMoves to stableTop on the gains, each move
// named by its index.
func checkTopMoves(t *testing.T, gains []float64, n int) {
	t.Helper()
	scored := make([]scoredMove, len(gains))
	for i, g := range gains {
		scored[i] = scoredMove{move: eco.Move{Buffer: ctree.NodeID(i)}, gain: g}
	}
	want := stableTop(scored, n)
	got := topMoves(scored, n)
	if len(got) != len(want) {
		t.Fatalf("gains %v, n %d: %d moves, the stable sort's %d", gains, n, len(got), len(want))
	}
	for i := range want {
		if got[i].move != want[i].move || math.Float64bits(got[i].gain) != math.Float64bits(want[i].gain) {
			t.Fatalf("gains %v, n %d: place %d holds move %d (%v), the stable sort's move %d (%v)",
				gains, n, i, got[i].move.Buffer, got[i].gain, want[i].move.Buffer, want[i].gain)
		}
	}
}

func TestTopMovesMatchesStableSort(t *testing.T) {
	inf := math.Inf(1)
	negZero := math.Copysign(0, -1)
	ties := make([]float64, 60)
	for i := range ties {
		ties[i] = float64(i%7) / 2
	}
	for _, tc := range []struct {
		name  string
		gains []float64
		n     int
	}{
		{"exact ties", []float64{1, 2, 2, 1, 3, 3, 3, 0, 2, 3}, 4},
		{"ties across the cut", ties, 20},
		{"infinities", []float64{inf, -inf, 1, inf, -inf, 0, -inf}, 5},
		{"signed zeros", []float64{0, negZero, 0, negZero, 1, -1, negZero}, 4},
		{"fewer moves than n", []float64{0.5, 3, 0.5}, 20},
		{"n of 1", []float64{2, 5, 5, -inf, 5}, 1},
		{"one move", []float64{-inf}, 20},
	} {
		t.Run(tc.name, func(t *testing.T) { checkTopMoves(t, tc.gains, tc.n) })
	}
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		gains := make([]float64, rng.Intn(300))
		for i := range gains {
			gains[i] = float64(rng.Intn(40)-20) / 4
		}
		checkTopMoves(t, gains, 1+rng.Intn(25))
	}
}

// FuzzTopMoves decodes each byte into a gain from a palette rich in ties,
// infinities and signed zeros, and n from the first byte.
func FuzzTopMoves(f *testing.F) {
	f.Add([]byte{20, 40, 40, 41, 1, 2, 3, 4, 40, 0})
	f.Add([]byte{1, 200, 200, 200, 7})
	f.Add([]byte{5, 3, 4, 3, 4, 60, 61})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		n := 1 + int(data[0])%25
		palette := []float64{math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1)}
		gains := make([]float64, 0, len(data)-1)
		for _, b := range data[1:] {
			if int(b) < len(palette) {
				gains = append(gains, palette[b])
			} else {
				gains = append(gains, float64(int8(b))/8)
			}
		}
		checkTopMoves(t, gains, n)
	})
}

// headTouchedGain is touchedGain before the scorer held its pairs'
// pre-move state, kept as the reference for it: every call collects and
// sorts the touched pairs and recomputes each one's pre-move variation,
// skews and guards, and corner k2's post-move skew once per lower corner.
func headTouchedGain(s *MoveScorer, skewCap []float64, g *gainScratch) float64 {
	a, alphas, pairs := s.est.a, s.alphas, s.pairs
	K := a.K
	seen := make([]bool, len(pairs))
	var touched []int32
	for _, sid := range g.sinks {
		for _, pi := range s.pairIdx[s.pairOff[sid]:s.pairOff[sid+1]] {
			if !seen[pi] {
				seen[pi] = true
				touched = append(touched, pi)
			}
		}
	}
	slices.Sort(touched)
	var gain float64
	for _, pi := range touched {
		p := pairs[pi]
		oldV := sta.PairVariation(a, alphas, p)
		newV := 0.0
		dA, dB := g.sinkDeltaOf(p.A, K), g.sinkDeltaOf(p.B, K)
		for k := 0; k < K; k++ {
			sk := a.Skew(k, p.A, p.B)
			if dA != nil {
				sk += dA[k]
			}
			if dB != nil {
				sk -= dB[k]
			}
			if len(skewCap) > k && math.Abs(sk) > sta.SkewGuard(skewCap[k]) {
				return math.Inf(-1)
			}
			for k2 := k + 1; k2 < K; k2++ {
				s2 := a.Skew(k2, p.A, p.B)
				if dA != nil {
					s2 += dA[k2]
				}
				if dB != nil {
					s2 -= dB[k2]
				}
				if d := math.Abs(alphas[k]*sk - alphas[k2]*s2); d > newV {
					newV = d
				}
			}
		}
		gain += oldV - newV
	}
	return gain
}

// headGain scores a move as Gain does, with headTouchedGain summing the
// touched pairs; guarded reports that a predicted skew pierced its guard.
// On the way it runs touchedGain on the same scratch, which must return
// the same gain and leave every touched bit clear, also when a guard
// stops it early.
func headGain(t *testing.T, s *MoveScorer, skewCap []float64, mv eco.Move) (gain float64, guarded bool) {
	t.Helper()
	post := s.est.pre.Clone()
	if eco.Apply(post, s.est.t, s.lg, mv) != nil {
		return math.Inf(-1), false
	}
	nets := affectedStages(post, mv)
	if len(nets) == 0 {
		return math.Inf(-1), false
	}
	g := new(gainScratch)
	g.prepare(len(post.Nodes), len(s.pairs))
	if !s.predictHeads(post, mv, nets, g) {
		return 0, false
	}
	s.propagate(post, mv, g)
	gain = headTouchedGain(s, skewCap, g)
	if got := s.touchedGain(g); math.Float64bits(got) != math.Float64bits(gain) {
		t.Fatalf("%s: touchedGain %v, reference %v", mv, got, gain)
	}
	for w, word := range g.touched {
		if word != 0 {
			t.Fatalf("%s: touchedGain left word %d of the touched bits at %#x", mv, w, word)
		}
	}
	return gain, math.IsInf(gain, -1)
}

// guardPiercingMove hand-builds a Type I move that drags a buffer far
// enough for a predicted skew to pierce its corner's guard: the first, in
// buffer id order, of a few long displacements.
func guardPiercingMove(t *testing.T, s *MoveScorer, skewCap []float64) (eco.Move, bool) {
	t.Helper()
	for _, b := range s.est.pre.Buffers() {
		for _, dxy := range [][2]float64{{400, 400}, {-400, -400}, {400, -400}, {-400, 400}} {
			mv := eco.Move{Type: eco.TypeI, Buffer: b, DX: dxy[0], DY: dxy[1]}
			if _, guarded := headGain(t, s, skewCap, mv); guarded {
				return mv, true
			}
		}
	}
	return eco.Move{}, false
}

// TestTouchedGainMatchesReferenceParallel holds touchedGain to its
// reference: every move of the estimator digest's set, and a hand-built
// move whose predicted skew pierces a guard, must score the reference's
// gain bit for bit, over the digest's 40 pairs and over all of the
// design's pairs, whose touched bits span several words. The last quarter
// of the set is then scored from four goroutines on one cold scorer,
// which share its pair state.
func TestTouchedGainMatchesReferenceParallel(t *testing.T) {
	s := newDigestScoring(t)
	if len(s.allPairs) <= 64 {
		t.Fatalf("the design has %d pairs; want more than one word of touched bits", len(s.allPairs))
	}
	for _, pairs := range [][]ctree.SinkPair{s.pairs, s.allPairs} {
		alphas := sta.Alphas(s.tm.Analyze(s.tree), pairs)
		scorer := func() *MoveScorer { return NewMoveScorer(s.tm, s.tree, s.die, alphas, pairs, s.model) }
		ref := scorer()
		skewCap := localSkews(ref.est.a, pairs)
		pierce, ok := guardPiercingMove(t, ref, skewCap)
		if !ok {
			t.Fatalf("%d pairs: no hand-built move pierces a guard", len(pairs))
		}
		moves := append(slices.Clone(s.moves), pierce)
		want := make([]float64, len(moves))
		guarded := 0
		for i, mv := range moves {
			var gd bool
			want[i], gd = headGain(t, ref, skewCap, mv)
			if gd {
				guarded++
			}
		}
		t.Logf("%d pairs: %d moves, %d pierce a guard (hand-built: %s)", len(pairs), len(moves), guarded, pierce)
		serial := scorer()
		for i, mv := range moves {
			if got := serial.Gain(mv); math.Float64bits(got) != math.Float64bits(want[i]) {
				t.Fatalf("%d pairs, move %d (%s): gain %v, reference %v", len(pairs), i, mv, got, want[i])
			}
		}
		const workers = 4
		part := len(moves) - len(moves)/4
		got := make([]float64, len(moves))
		shared := scorer()
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := part + w; i < len(moves); i += workers {
					got[i] = shared.Gain(moves[i])
				}
			}(w)
		}
		wg.Wait()
		for i := part; i < len(moves); i++ {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("%d pairs, move %d (%s): concurrent gain %v, reference %v", len(pairs), i, moves[i], got[i], want[i])
			}
		}
	}
}

// referenceEnumerate is enumerateCandidates before the per-node path
// flags, kept as the reference for it: the covered pairs' path buffers
// gathered in a map, then sorted by id.
func referenceEnumerate(tm *sta.Timer, cur *ctree.Tree, d *ctree.Design, a *sta.Analysis, alphas []float64, pairs []ctree.SinkPair, cfg LocalConfig, rng *rand.Rand) []eco.Move {
	type pv struct {
		i int
		v float64
	}
	pvs := make([]pv, len(pairs))
	for i, p := range pairs {
		pvs[i] = pv{i, sta.PairVariation(a, alphas, p)}
	}
	sort.Slice(pvs, func(i, j int) bool { return pvs[i].v > pvs[j].v })
	if len(pvs) > coverPairs {
		pvs = pvs[:coverPairs]
	}
	bufSet := map[ctree.NodeID]bool{}
	for _, e := range pvs {
		p := pairs[e.i]
		for _, s := range []ctree.NodeID{p.A, p.B} {
			for _, id := range cur.PathToRoot(s) {
				if n := cur.Node(id); n != nil && n.Kind == ctree.KindBuffer {
					bufSet[id] = true
				}
			}
		}
	}
	bufs := make([]ctree.NodeID, 0, len(bufSet))
	for id := range bufSet {
		bufs = append(bufs, id)
	}
	sort.Slice(bufs, func(i, j int) bool { return bufs[i] < bufs[j] })
	var moves []eco.Move
	for _, b := range bufs {
		moves = eco.AppendMoves(moves, cur, tm.Tech, b, d.Die)
	}
	if len(moves) > cfg.MaxMoves {
		rng.Shuffle(len(moves), func(i, j int) { moves[i], moves[j] = moves[j], moves[i] })
		moves = moves[:cfg.MaxMoves]
	}
	return moves
}

// TestEnumerateCandidatesMatchesReference holds enumerateCandidates to
// its reference on CLS1v1(280) over every design pair, more than the
// covered 150: on the input tree and the tree after each local iteration,
// uncapped and under a cap that shuffles, it must list the same moves in
// the same order.
func TestEnumerateCandidatesMatchesReference(t *testing.T) {
	d, tm := smallDesign(t, 280)
	pairs := d.TopPairs(0)
	if len(pairs) <= coverPairs {
		t.Fatalf("%d pairs; want more than the %d covered", len(pairs), coverPairs)
	}
	alphas := sta.Alphas(tm.Analyze(d.Tree), pairs)
	trees := []*ctree.Tree{d.Tree}
	if _, err := LocalOpt(context.Background(), tm, d, alphas, LocalConfig{
		Model: &AnalyticDeltaModel{Mode: RSMTD2M}, MaxIters: 4, Workers: 1, Seed: 3,
		OnIter: func(_ int, tr *ctree.Tree) { trees = append(trees, tr.Clone()) },
	}); err != nil {
		t.Fatal(err)
	}
	if len(trees) < 3 {
		t.Fatalf("%d trees; want the input and at least two iterations'", len(trees))
	}
	for i, tr := range trees {
		a := tm.Analyze(tr)
		for _, maxMoves := range []int{1 << 20, 300} {
			cfg := LocalConfig{MaxMoves: maxMoves}
			want := referenceEnumerate(tm, tr, d, a, alphas, pairs, cfg, rand.New(rand.NewSource(int64(i))))
			got := enumerateCandidates(tm, tr, d, a, alphas, pairs, cfg, rand.New(rand.NewSource(int64(i))))
			if !slices.Equal(got, want) {
				t.Fatalf("tree %d, cap %d: %d moves, the reference's %d, or a different order", i, maxMoves, len(got), len(want))
			}
			t.Logf("tree %d, cap %d: %d moves", i, maxMoves, len(got))
		}
	}
}
