package core

import (
	"math"
	"sync"
	"testing"

	"skewvar/internal/ctree"
	"skewvar/internal/eco"
)

// walkAllSinks is Gain's propagation before the pre-order sink index, kept
// as the reference for it: every head's deltas reach its sinks through a
// walk of the head's subtree in the post-move tree.
func walkAllSinks(post *ctree.Tree, K int, g *gainScratch) {
	for h, head := range g.heads {
		delta := g.deltas[h*K : (h+1)*K]
		stack := []ctree.NodeID{head}
		for len(stack) > 0 {
			id := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			n := post.Node(id)
			if n == nil {
				continue
			}
			stack = append(stack, n.Children...)
			if n.Kind != ctree.KindSink {
				continue
			}
			if g.slot[id] < 0 {
				g.slot[id] = int32(len(g.sinks))
				g.sinks = append(g.sinks, id)
				for k := 0; k < K; k++ {
					g.sinkDelta = append(g.sinkDelta, 0)
				}
			}
			sd := g.sinkDeltaOf(id, K)
			for k := range sd {
				sd[k] += delta[k]
			}
		}
	}
}

// surgeryWalkMoves hand-builds Type III moves whose heads include one with
// a changed sink set, which Enumerate's same-level rule never lists: a pin
// re-parented under a buffer inside a sibling pin's subtree (the sibling
// gains the pin's sinks), and a pin re-parented under its old driver's
// own driver (the old driver, now a head, loses them). At most three of
// each, from the source and the buffers in id order.
func surgeryWalkMoves(tr *ctree.Tree) (sibling, upward []eco.Move) {
	for _, b := range append([]ctree.NodeID{tr.Source}, tr.Buffers()...) {
		pins := tr.FanoutPins(b)
		if len(pins) < 2 {
			continue
		}
		if d := tr.Driver(b); d != ctree.NoNode && len(upward) < 3 {
			upward = append(upward, eco.Move{Type: eco.TypeIII, Buffer: b, Child: pins[0], NewDrv: d})
		}
		if len(sibling) == 3 {
			continue
		}
	sibs:
		for i, sib := range pins {
			for _, x := range tr.FanoutPins(sib) {
				if tr.Node(x).Kind == ctree.KindBuffer {
					child := pins[(i+1)%len(pins)]
					sibling = append(sibling, eco.Move{Type: eco.TypeIII, Buffer: b, Child: child, NewDrv: x})
					break sibs
				}
			}
		}
	}
	return sibling, upward
}

// referenceGain scores a move the way Gain did before the pre-order sink
// index, and checks on the way that the index's propagation leaves every
// sink the same deltas, bit for bit, as the walk. It returns the gain and
// the number of heads the index does not serve, which Gain walks too.
func referenceGain(t *testing.T, s *MoveScorer, mv eco.Move) (gain float64, walked int) {
	t.Helper()
	post := s.est.pre.Clone()
	if eco.Apply(post, s.est.t, s.lg, mv) != nil {
		return math.Inf(-1), 0
	}
	nets := affectedStages(post, mv)
	if len(nets) == 0 {
		return math.Inf(-1), 0
	}
	walk, ranges := new(gainScratch), new(gainScratch)
	walk.prepare(len(post.Nodes), len(s.pairs))
	ranges.prepare(len(post.Nodes), len(s.pairs))
	if !s.predictHeads(post, nets, walk) {
		return 0, 0
	}
	ranges.heads = append(ranges.heads, walk.heads...)
	ranges.deltas = append(ranges.deltas, walk.deltas...)
	K := s.est.a.K
	walkAllSinks(post, K, walk)
	s.propagate(post, mv, ranges)
	for _, h := range walk.heads {
		if !s.index.keepsSinks(mv, h) {
			walked++
		}
	}
	if len(ranges.sinks) != len(walk.sinks) {
		t.Fatalf("%s: deltas reach %d sinks, %d by the walk", mv, len(ranges.sinks), len(walk.sinks))
	}
	for _, id := range walk.sinks {
		want, got := walk.sinkDeltaOf(id, K), ranges.sinkDeltaOf(id, K)
		if got == nil {
			t.Fatalf("%s: sink %d gets no delta, the walk's %v", mv, id, want)
		}
		for k := range want {
			if math.Float64bits(got[k]) != math.Float64bits(want[k]) {
				t.Fatalf("%s: sink %d corner %d: delta %v, the walk's %v", mv, id, k, got[k], want[k])
			}
		}
	}
	return s.touchedGain(walk), walked
}

// TestSinkRangesMatchWalkParallel holds Gain's sink ranges to the subtree
// walk they replaced: for every move of the estimator digest's set, and
// for hand-built surgery moves that send some heads down Gain's own walk,
// each sink must get the walk's deltas and the move the walk's gain, bit
// for bit. A part of the set is then scored from four goroutines on one
// cold scorer, which share its read-only index.
func TestSinkRangesMatchWalkParallel(t *testing.T) {
	s := newDigestScoring(t)
	sibling, upward := surgeryWalkMoves(s.tree)
	if len(sibling) == 0 || len(upward) == 0 {
		t.Fatalf("built %d sibling and %d upward surgery moves; want both kinds", len(sibling), len(upward))
	}
	moves := append(append(append([]eco.Move(nil), s.moves...), sibling...), upward...)
	ref := s.scorer()
	want := make([]float64, len(moves))
	walked := 0
	for i, mv := range moves {
		var w int
		want[i], w = referenceGain(t, ref, mv)
		walked += w
	}
	if walked == 0 {
		t.Fatal("no head took the walk: the fallback is not covered")
	}
	t.Logf("%d moves, %d heads walked", len(moves), walked)
	serial := s.scorer()
	for i, mv := range moves {
		if got := serial.Gain(mv); math.Float64bits(got) != math.Float64bits(want[i]) {
			t.Fatalf("move %d (%s): gain %v, walk reference %v", i, mv, got, want[i])
		}
	}
	// The last quarter of the set, hand-built moves included.
	const workers = 4
	part := len(moves) - len(moves)/4
	got := make([]float64, len(moves))
	shared := s.scorer()
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
			t.Fatalf("move %d (%s): concurrent gain %v, walk reference %v", i, moves[i], got[i], want[i])
		}
	}
}
