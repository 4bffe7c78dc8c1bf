package core

import (
	"math"
	"testing"

	"skewvar/internal/eco"
)

// TestReusedWireMatchesFreshEstimate holds the wire reuse to a fresh
// estimate. On CLS1v1(280), for every Type I and Type II move on every
// buffer, displaced or not, each net the move affects must get from the
// estimator the features of a fresh estimate, bit for bit: its post-move
// estimates and net context equal StageFeatures on the post-move tree,
// and its whole rows equal those of the net estimated afresh. The nets
// marked resized, Type II's child and an undisplaced Type I buffer, are
// the ones that reuse the pre-move wire; a displaced buffer's must not.
func TestReusedWireMatchesFreshEstimate(t *testing.T) {
	sh := newSampleShape(t)
	tr := sh.d.Tree
	s := NewMoveScorer(sh.tm, tr, sh.d.Die, sh.alphas, sh.pairs, &AnalyticDeltaModel{Mode: RSMTD2M})
	a := s.est.a
	K := a.K
	th := sh.tm.Tech
	reused := map[string]int{}
	var moves []eco.Move
	for _, b := range tr.Buffers() {
		moves = eco.AppendMoves(moves, tr, th, b, sh.d.Die)
	}
	checked := 0
	for _, mv := range moves {
		if mv.Type == eco.TypeIII {
			continue
		}
		post, nets, release, ok := applied(s, mv)
		if !ok {
			continue
		}
		checked++
		for _, net := range nets {
			got := s.est.features(post, net, nil)
			fresh := s.est.features(post, netStages{d: net.d, pins: net.pins}, nil)
			stage := StageFeatures(th, post, net.d, net.pins, goldenSlews(a, net.d), nil)
			if len(got) != len(fresh) || len(stage) != len(net.pins)*K*numStageFeatures {
				t.Fatalf("%s: net %d: %d values, %d fresh, %d stage values for %d pins", mv, net.d, len(got), len(fresh), len(stage), len(net.pins))
			}
			for r := 0; r < len(net.pins)*K; r++ {
				row := got[r*NumFeatures : (r+1)*NumFeatures]
				for f, v := range fresh[r*NumFeatures : (r+1)*NumFeatures] {
					if math.Float64bits(row[f]) != math.Float64bits(v) {
						t.Fatalf("%s: net %d (resized %v) row %d feature %d: %v, fresh estimate %v", mv, net.d, net.resized, r, f, row[f], v)
					}
				}
				sf := stage[r*numStageFeatures : (r+1)*numStageFeatures]
				for m := 0; m < int(NumEstModes); m++ {
					if math.Float64bits(row[FeatPostBase+m]) != math.Float64bits(sf[m]) {
						t.Fatalf("%s: net %d (resized %v) row %d estimate %d: %v, StageFeatures %v", mv, net.d, net.resized, r, m, row[FeatPostBase+m], sf[m])
					}
				}
				for j, v := range sf[NumEstModes:] {
					if math.Float64bits(row[FeatFanout+j]) != math.Float64bits(v) {
						t.Fatalf("%s: net %d (resized %v) row %d context %d: %v, StageFeatures %v", mv, net.d, net.resized, r, j, row[FeatFanout+j], v)
					}
				}
			}
			if net.resized {
				switch {
				case mv.Type == eco.TypeII && net.d == mv.Child:
					reused["Type II child"]++
				case mv.Type == eco.TypeI && mv.DX == 0 && mv.DY == 0 && net.d == mv.Buffer:
					reused["undisplaced Type I buffer"]++
				default:
					t.Fatalf("%s: net %d is marked resized", mv, net.d)
				}
			}
		}
		release()
	}
	t.Logf("%d Type I and II moves; reused wires %v", checked, reused)
	if reused["Type II child"] == 0 || reused["undisplaced Type I buffer"] == 0 {
		t.Fatalf("reused wires %v; want Type II children and undisplaced Type I buffers", reused)
	}
}
