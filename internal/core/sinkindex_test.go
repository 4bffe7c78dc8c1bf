package core

import (
	"context"
	"math"
	"slices"
	"sync"
	"testing"

	"skewvar/internal/ctree"
	"skewvar/internal/eco"
	"skewvar/internal/sta"
)

// predictAllHeads is Gain's prediction before it skipped the stages that
// reach no pair sink, kept as the reference for it: every pin of every
// affected net is predicted, on a fresh estimate of each net.
func predictAllHeads(s *MoveScorer, post *ctree.Tree, nets []netStages, g *gainScratch) bool {
	K := s.est.a.K
	for _, net := range nets {
		g.feats = s.est.features(post, netStages{d: net.d, pins: net.pins}, g.feats[:0])
		for i, p := range net.pins {
			n0 := len(g.deltas)
			changed := false
			for k := 0; k < K; k++ {
				dk := s.model.PredictDelta(k, featureRow(g.feats, i, k, K))
				g.deltas = append(g.deltas, dk)
				if math.Abs(dk) > 1e-3 {
					changed = true
				}
			}
			if changed {
				g.heads = append(g.heads, p)
			} else {
				g.deltas = g.deltas[:n0]
			}
		}
	}
	return len(g.heads) > 0
}

// walkSinksWhere adds every head's deltas, heads in order, to each sink of
// the head's subtree in the post-move tree for which keep holds, found by
// a walk of the subtree.
func walkSinksWhere(post *ctree.Tree, K int, g *gainScratch, keep func(ctree.NodeID) bool) {
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
			if n.Kind != ctree.KindSink || !keep(id) {
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

// applied applies mv to one of the scorer's pooled post-move trees, as
// Gain does, and returns the tree, the nets mv affects there, and a
// release that gives the tree back; ok is false, and nothing is held,
// when Gain scores mv -Inf.
func applied(s *MoveScorer, mv eco.Move) (post *ctree.Tree, nets []netStages, release func(), ok bool) {
	pre := s.est.pre
	pt := s.posts.Get().(*postTree)
	release = func() {
		pt.restore(pre)
		s.posts.Put(pt)
	}
	for _, id := range mutableForMove([]ctree.NodeID{pre.Source}, pre, mv) {
		pt.privatize(pre, id)
	}
	if eco.Apply(&pt.Tree, s.est.t, s.lg, mv) == nil {
		if nets = affectedStages(&pt.Tree, mv); len(nets) > 0 {
			return &pt.Tree, nets, release, true
		}
	}
	release()
	return nil, nil, nil, false
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

// pairGainingMoves hand-builds Type III moves that give a head with no
// pair sink below it the pair sinks of the pin they re-parent: a pin with
// a pair sink below it goes under a sibling buffer pin with none. Gain
// must predict that head although the pre-move index lists no pair sink
// below it. At most three, from the source and the buffers in id order.
func pairGainingMoves(s *MoveScorer) []eco.Move {
	tr := s.est.pre
	var out []eco.Move
	for _, b := range append([]ctree.NodeID{tr.Source}, tr.Buffers()...) {
		child, drv := ctree.NoNode, ctree.NoNode
		for _, p := range tr.FanoutPins(b) {
			paired := len(s.index.sinksBelow(p)) > 0
			switch {
			case paired && child == ctree.NoNode:
				child = p
			case !paired && drv == ctree.NoNode && tr.Node(p).Kind == ctree.KindBuffer:
				drv = p
			}
		}
		if child != ctree.NoNode && drv != ctree.NoNode {
			out = append(out, eco.Move{Type: eco.TypeIII, Buffer: b, Child: child, NewDrv: drv})
			if len(out) == 3 {
				break
			}
		}
	}
	return out
}

// referenceGain scores a move from a walk of the post-move tree restricted
// to pair sinks, fed by every pin's prediction, and checks on the way that
// Gain's delivery leaves every pair sink the same deltas, bit for bit, as
// the walk. It returns the gain and the number of Gain's heads that the
// index does not serve, which Gain walks too.
func referenceGain(t *testing.T, s *MoveScorer, mv eco.Move) (gain float64, walked int) {
	t.Helper()
	post, nets, release, ok := applied(s, mv)
	if !ok {
		return math.Inf(-1), 0
	}
	defer release()
	walk, ranges := new(gainScratch), new(gainScratch)
	walk.prepare(len(post.Nodes), len(s.pairs))
	ranges.prepare(len(post.Nodes), len(s.pairs))
	K := s.est.a.K
	predictAllHeads(s, post, nets, walk)
	walkSinksWhere(post, K, walk, s.pairSink)
	if s.predictHeads(post, mv, nets, ranges) {
		s.propagate(post, mv, ranges)
	}
	for _, h := range ranges.heads {
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

// TestSinkRangesMatchWalkParallel holds Gain's delivery to a walk of the
// post-move tree restricted to pair sinks, fed by every pin's prediction:
// for every move of the estimator digest's set, and for hand-built
// surgery moves that send some heads down Gain's own walk, among them
// heads that gain their first pair sinks, each pair sink must get the
// walk's deltas and the move the walk's gain, bit for bit. A part of the
// set is then scored from four goroutines on one cold scorer, which share
// its read-only index.
func TestSinkRangesMatchWalkParallel(t *testing.T) {
	s := newDigestScoring(t)
	ref := s.scorer()
	sibling, upward := surgeryWalkMoves(s.tree)
	gaining := pairGainingMoves(ref)
	if len(sibling) == 0 || len(upward) == 0 || len(gaining) == 0 {
		t.Fatalf("built %d sibling, %d upward and %d pair-gaining surgery moves; want every kind",
			len(sibling), len(upward), len(gaining))
	}
	moves := slices.Concat(s.moves, sibling, upward, gaining)
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

// allSinksGain scores a move the way Gain did before its deltas went only
// to pair sinks, kept as the reference for it: every pin of every
// affected net is predicted on a fresh estimate, and each head's deltas
// reach every sink below it in the post-move tree. It returns the gain,
// the number of sinks that held a slot, and the number that hold one
// while Gain scores the move.
func allSinksGain(s *MoveScorer, mv eco.Move) (gain float64, slots, gainSlots int) {
	post, nets, release, ok := applied(s, mv)
	if !ok {
		return math.Inf(-1), 0, 0
	}
	defer release()
	g := new(gainScratch)
	g.prepare(len(post.Nodes), len(s.pairs))
	s.gain(post, mv, nets, g)
	gainSlots = len(g.sinks)
	g = new(gainScratch)
	g.prepare(len(post.Nodes), len(s.pairs))
	if !predictAllHeads(s, post, nets, g) {
		return 0, 0, gainSlots
	}
	walkSinksWhere(post, s.est.a.K, g, func(ctree.NodeID) bool { return true })
	return s.touchedGain(g), len(g.sinks), gainSlots
}

// TestGainMatchesAllSinksReferenceParallel holds Gain to the delivery it
// replaced, every pin predicted and every sink slotted: on CLS1v1(280)
// with its top 100 pairs, every move of every type on every buffer, on
// the input tree and on the tree after each local iteration, scored from
// four goroutines on one cold scorer, must score the reference's gain bit
// for bit. The reference must slot more sinks than Gain, or the check
// would compare two identical deliveries. Under the race detector, which
// slows the check tenfold, the input tree alone exercises the concurrent
// callers; the ordinary pass compares every tree.
func TestGainMatchesAllSinksReferenceParallel(t *testing.T) {
	d, tm := smallDesign(t, 280)
	model := cheapModel(t, tm.Tech)
	pairs := d.TopPairs(100)
	alphas := sta.Alphas(tm.Analyze(d.Tree), pairs)
	trees := []*ctree.Tree{d.Tree}
	if !raceEnabled {
		if _, err := LocalOpt(context.Background(), tm, d, alphas, LocalConfig{
			Model: model, MaxIters: 4, TopPairs: 100, Workers: 1, Seed: 5,
			OnIter: func(_ int, tr *ctree.Tree) { trees = append(trees, tr.Clone()) },
		}); err != nil {
			t.Fatal(err)
		}
		if len(trees) < 3 {
			t.Fatalf("%d trees; want the input and at least two iterations'", len(trees))
		}
	}
	types := map[eco.MoveType]int{}
	for ti, tr := range trees {
		var moves []eco.Move
		for _, b := range tr.Buffers() {
			moves = eco.AppendMoves(moves, tr, tm.Tech, b, d.Die)
		}
		ref := NewMoveScorer(tm, tr, d.Die, alphas, pairs, model)
		want := make([]float64, len(moves))
		refSlots, gainSlots, nonzero := 0, 0, 0
		for i, mv := range moves {
			var n, m int
			want[i], n, m = allSinksGain(ref, mv)
			refSlots += n
			gainSlots += m
			types[mv.Type]++
			if want[i] != 0 && !math.IsInf(want[i], -1) {
				nonzero++
			}
		}
		t.Logf("tree %d: %d moves, %d with a finite nonzero gain; %d sinks slotted by the reference, %d by Gain",
			ti, len(moves), nonzero, refSlots, gainSlots)
		if refSlots <= gainSlots {
			t.Fatalf("tree %d: the reference slots %d sinks, Gain %d; want more by the reference", ti, refSlots, gainSlots)
		}
		if nonzero == 0 {
			t.Fatalf("tree %d: no move has a finite nonzero gain", ti)
		}
		const workers = 4
		got := make([]float64, len(moves))
		shared := NewMoveScorer(tm, tr, d.Die, alphas, pairs, model)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := w; i < len(moves); i += workers {
					got[i] = shared.Gain(moves[i])
				}
			}(w)
		}
		wg.Wait()
		for i, mv := range moves {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("tree %d, move %d (%s): gain %v, all-sinks reference %v", ti, i, mv, got[i], want[i])
			}
		}
	}
	if types[eco.TypeI] == 0 || types[eco.TypeII] == 0 || types[eco.TypeIII] == 0 {
		t.Fatalf("moves per type %v; want every type", types)
	}
}
