package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"sync"

	"skewvar/internal/ctree"
	"skewvar/internal/eco"
	"skewvar/internal/faults"
	"skewvar/internal/geom"
	"skewvar/internal/legalize"
	"skewvar/internal/obs"
	"skewvar/internal/resilience"
	"skewvar/internal/sta"
	"skewvar/internal/tech"
)

// Fixed parameters of the Algorithm-2 local stage.
const (
	batchMoves          = 5   // R: moves implemented in parallel per batch, as in the paper
	maxBatches          = 4   // batches tried per iteration before giving up
	coverPairs          = 150 // highest-variation pairs whose path buffers are perturbed
	minPredGain float64 = 0.5 // minimum predicted ΣV gain to try a move, ps
)

// LocalConfig tunes the Algorithm-2 iterative optimization. Zero values
// select defaults.
type LocalConfig struct {
	Model    StageModel
	MaxIters int  // iteration cap (default 25)
	TopPairs int  // pairs in the objective (0 = all design pairs); RunFlows overwrites it with FlowConfig.TopPairs
	MaxMoves int  // enumeration cap per iteration (default 4000)
	Random   bool // random-move baseline (Figure 8's comparison)
	Seed     int64

	// Workers bounds the concurrency of candidate-move trials and predictor
	// evaluation (default runtime.GOMAXPROCS(0); 1 = the exact serial
	// path). Concurrent trials share the caller's timer. Results are
	// identical at any setting: trials write to indexed slots and the
	// winner is reduced deterministically by (score, move index), never by
	// completion order. RunFlows overwrites it with the flow's worker
	// count (FlowConfig.Workers).
	Workers int

	// StartIter resumes the iteration count from a checkpoint: the loop
	// runs iterations [StartIter, MaxIters) against the (already partially
	// optimized) input tree.
	StartIter int

	// OnIter, when set, is called after every iteration with the number of
	// completed iterations and the current tree — the flow runner's
	// checkpoint hook. The tree must not be mutated by the callback.
	OnIter func(iter int, tree *ctree.Tree)

	// Faults is an optional deterministic fault injector (nil = none); Rec
	// counts absorbed faults (nil = not recorded). RunFlows overwrites both
	// with the flow's.
	Faults *faults.Injector
	Rec    *resilience.Recorder

	// Obs, when non-nil, receives the local.opt/local.iter span tree,
	// local.accept events, and the move trial counters (docs/OBSERVABILITY.md).
	// RunFlows overwrites it with FlowConfig.Obs. Nil keeps instrumentation
	// free.
	Obs *obs.Recorder
}

func (c *LocalConfig) setDefaults() {
	if c.MaxIters == 0 {
		c.MaxIters = 25
	}
	if c.MaxMoves == 0 {
		c.MaxMoves = 4000
	}
	if c.Workers == 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
}

// IterRecord logs one accepted iteration for the Figure-8 trajectory.
type IterRecord struct {
	Iter      int
	MoveType  eco.MoveType
	Move      string
	Predicted float64 // predicted ΣV gain, ps
	Actual    float64 // golden ΣV gain, ps
	SumVar    float64 // ΣV after the iteration, ps
}

// LocalResult is the outcome of the local optimization.
type LocalResult struct {
	Tree       *ctree.Tree
	Records    []IterRecord
	SumVar0    float64
	SumVar     float64
	MovesTried int // golden evaluations
	MovesPred  int // predictor evaluations
}

// LocalOpt runs the Algorithm-2 flow on the design: enumerate Table-2
// candidate moves on buffers covering the highest-variation pairs, rank them
// by model-predicted ΣV reduction, implement the top R on clones in
// parallel, verify with the golden timer, accept the best improving and
// non-degrading move, and repeat until the predictor finds no further
// reduction.
//
// A canceled context stops at the next iteration boundary and returns the
// best-so-far tree with a wrapped resilience.ErrCanceled. Moves that fail
// to apply — injected faults, panics in a trial, broken invariants — are
// skipped and counted, never fatal.
func LocalOpt(ctx context.Context, tm *sta.Timer, d *ctree.Design, alphas []float64, cfg LocalConfig) (*LocalResult, error) {
	cfg.setDefaults()
	if cfg.Model == nil {
		return nil, fmt.Errorf("core: LocalOpt needs a stage model: %w", resilience.ErrInvalidDesign)
	}
	if err := validateModel(cfg.Model, tm.Tech.NumCorners()); err != nil {
		return nil, err
	}
	pairs := d.TopPairs(cfg.TopPairs)
	if len(pairs) == 0 {
		return nil, fmt.Errorf("core: no sink pairs: %w", resilience.ErrInvalidDesign)
	}
	lg := legalize.New(d.Die, tm.Tech.SiteW, tm.Tech.RowH)

	cur := d.Tree.Clone()
	a0 := tm.Analyze(cur)
	res := &LocalResult{SumVar0: sta.SumVariation(a0, alphas, pairs)}
	curVar := res.SumVar0
	// Local-skew guard: never degrade the per-corner local skew.
	skew0 := localSkews(a0, pairs)

	// The span tree (and every counter below) is schedule-independent: the
	// set of iterations, enumerated moves, and accepted moves is identical
	// at any Workers setting, so canonical traces compare across -j.
	var sp *obs.Span
	if cfg.Obs != nil {
		sp = cfg.Obs.StartSpan("local.opt",
			obs.I("start_iter", cfg.StartIter), obs.I("pairs", len(pairs)))
	}
	var runErr error
	for iter := cfg.StartIter; iter < cfg.MaxIters; iter++ {
		if err := resilience.Canceled(ctx); err != nil {
			runErr = err
			break
		}
		var isp *obs.Span
		if sp != nil {
			isp = sp.StartChild("local.iter", obs.I("iter", iter))
		}
		a := tm.Analyze(cur)
		// The rng is derived from (seed, iter), not threaded across
		// iterations, so a resumed run replays the exact move subsets the
		// uninterrupted run would have seen from the same iteration.
		rng := rand.New(rand.NewSource(cfg.Seed + int64(iter)*1000003))
		moves := enumerateCandidates(tm, cur, d, a, alphas, pairs, cfg, rng)
		cfg.Obs.Counter("local.moves.enumerated").Add(int64(len(moves)))
		if len(moves) == 0 {
			isp.End()
			break
		}
		scored := predictGains(ctx, newMoveScorer(tm.Tech, cur, a, lg, alphas, pairs, cfg.Model), moves, cfg)
		res.MovesPred += len(moves)
		cfg.Obs.Counter("local.moves.predicted").Add(int64(len(moves)))
		// A cancellation that landed mid-predict leaves unevaluated slots;
		// don't interpret them as converged — stop here with best-so-far.
		if err := resilience.Canceled(ctx); err != nil {
			runErr = err
			isp.End()
			break
		}
		if cfg.Random {
			rng.Shuffle(len(scored), func(i, j int) { scored[i], scored[j] = scored[j], scored[i] })
		} else {
			scored = topMoves(scored, maxBatches*batchMoves)
			// Termination per Algorithm 2: stop when the predictor sees no
			// further reduction.
			if scored[0].gain < minPredGain {
				isp.End()
				break
			}
		}
		accepted := false
		for batch := 0; batch < maxBatches && !accepted; batch++ {
			lo := batch * batchMoves
			if lo >= len(scored) {
				break
			}
			hi := lo + batchMoves
			if hi > len(scored) {
				hi = len(scored)
			}
			cands := scored[lo:hi]
			if !cfg.Random {
				// Don't waste golden runs on predicted-useless moves.
				if cands[0].gain < minPredGain {
					break
				}
			}
			type trial struct {
				tree *ctree.Tree
				v    float64
				ok   bool
			}
			trials := make([]trial, len(cands))
			// Fault decisions are pre-drawn serially in move order: the
			// injector's per-hook call counter (and seeded rng) then advances
			// identically at any worker count, so an armed plan replays the
			// same fault sequence whether trials run serial or concurrent.
			// The faults themselves still take effect inside the workers.
			skipMove := make([]bool, len(cands))
			nanDelay := make([]bool, len(cands))
			for i := range cands {
				skipMove[i] = cfg.Faults.Fire(faults.MoveApply)
				nanDelay[i] = cfg.Faults.Fire(faults.NaNDelay)
			}
			runIndexed(ctx, cfg.Workers, len(cands), func(i int) {
				// A move-apply fault (injected I/O-level failure) or a
				// panic inside the trial skips this one move; the rest
				// of the batch still competes.
				if skipMove[i] {
					cfg.Rec.Record("move-apply")
					return
				}
				if err := resilience.Safely("local move trial", func() error {
					// Copy-on-write clone: only the nodes this move mutates
					// are private; the rest are shared, read-only, with the
					// concurrent trials.
					var mut [3]ctree.NodeID
					t2 := cur.CloneShared(mutableForMove(mut[:0], cur, cands[i].move)...)
					if err := eco.Apply(t2, tm.Tech, lg, cands[i].move); err != nil {
						return nil
					}
					if t2.Validate() != nil {
						return nil
					}
					a2 := tm.AnalyzeIncremental(t2, a, moveDirty(cands[i].move))
					v2 := sta.SumVariation(a2, alphas, pairs)
					if nanDelay[i] {
						v2 = math.NaN() // injected timer corruption
					}
					if math.IsNaN(v2) {
						return fmt.Errorf("%w: NaN ΣV evaluating move %s",
							resilience.ErrTimer, cands[i].move)
					}
					if !skewWithin(a2, pairs, skew0) {
						return nil // local-skew degradation
					}
					trials[i] = trial{tree: t2, v: v2, ok: true}
					return nil
				}); err != nil {
					if errors.Is(err, resilience.ErrTimer) {
						cfg.Rec.Record("nan-delay")
					} else {
						cfg.Rec.Record("move-panic")
					}
				}
			})
			// A batch cut short by cancellation left trials unrun, so its
			// winner need not be the uninterrupted run's: abandon the
			// iteration unreported, and a resume from the last reported one
			// replays it.
			if err := resilience.Canceled(ctx); err != nil {
				runErr = err
				break
			}
			res.MovesTried += len(cands)
			cfg.Obs.Counter("local.moves.tried").Add(int64(len(cands)))
			// Deterministic reducer: the winner is the minimum of (ΣV, move
			// index) over improving trials — independent of scheduling.
			best := -1
			for i, tr := range trials {
				if tr.ok && tr.v < curVar-1e-6 && (best < 0 || tr.v < trials[best].v) {
					best = i
				}
			}
			if best >= 0 {
				gain := curVar - trials[best].v
				cur = trials[best].tree
				curVar = trials[best].v
				res.Records = append(res.Records, IterRecord{
					Iter:      iter,
					MoveType:  cands[best].move.Type,
					Move:      cands[best].move.String(),
					Predicted: cands[best].gain,
					Actual:    gain,
					SumVar:    curVar,
				})
				accepted = true
				cfg.Obs.Counter("local.moves.accepted").Inc()
				cfg.Obs.Counter("local.moves.rejected").Add(int64(len(cands) - 1))
				if isp != nil {
					isp.Event("local.accept",
						obs.S("move", cands[best].move.String()),
						obs.F("predicted_ps", cands[best].gain),
						obs.F("actual_ps", gain),
						obs.F("sumvar_ps", curVar))
				}
			} else {
				cfg.Obs.Counter("local.moves.rejected").Add(int64(len(cands)))
			}
		}
		if runErr != nil {
			isp.End()
			break
		}
		if cfg.OnIter != nil {
			cfg.OnIter(iter+1, cur)
		}
		// A batch interrupted by cancellation may have accepted nothing;
		// report the interruption rather than mistaking it for convergence.
		if err := resilience.Canceled(ctx); err != nil {
			runErr = err
			isp.End()
			break
		}
		if !accepted {
			isp.End()
			break
		}
		isp.End()
	}
	sp.End()
	res.Tree = cur
	res.SumVar = curVar
	return res, runErr
}

// enumerateCandidates lists Table-2 moves on buffers that drive the
// highest-variation pairs.
func enumerateCandidates(tm *sta.Timer, cur *ctree.Tree, d *ctree.Design, a *sta.Analysis, alphas []float64, pairs []ctree.SinkPair, cfg LocalConfig, rng *rand.Rand) []eco.Move {
	// Rank pairs by current variation; take path buffers of the top ones.
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
	// Flag every node on the covered pairs' paths to the root. A walk stops
	// at a flagged node, whose own path is flagged already.
	onPath := make([]bool, len(cur.Nodes))
	for _, e := range pvs {
		p := pairs[e.i]
		for _, id := range [2]ctree.NodeID{p.A, p.B} {
			for n := cur.Node(id); n != nil && !onPath[id]; n = cur.Node(id) {
				onPath[id] = true
				id = n.Parent
			}
		}
	}
	// Id order is the sorted order of the buffers.
	var moves []eco.Move
	for id, on := range onPath {
		if on && cur.Nodes[id].Kind == ctree.KindBuffer {
			moves = eco.AppendMoves(moves, cur, tm.Tech, ctree.NodeID(id), d.Die)
		}
	}
	if len(moves) > cfg.MaxMoves {
		rng.Shuffle(len(moves), func(i, j int) { moves[i], moves[j] = moves[j], moves[i] })
		moves = moves[:cfg.MaxMoves]
	}
	return moves
}

type scoredMove struct {
	move eco.Move
	gain float64
}

// topMoves returns the first n moves of scored in descending gain, ties in
// index order: the first n of a stable sort, selected without sorting the
// rest. It reorders scored, and the result is a prefix of it. No gain is
// NaN while the golden timing is finite: Gain returns -Inf, 0, or a sum of
// differences of maxima that drop NaN terms.
func topMoves(scored []scoredMove, n int) []scoredMove {
	top := scored[:0]
	for _, sm := range scored {
		if len(top) == n && !(sm.gain > top[n-1].gain) {
			continue
		}
		// Insert after every kept move of at least its gain.
		at := len(top)
		for at > 0 && sm.gain > top[at-1].gain {
			at--
		}
		if len(top) < n {
			top = top[:len(top)+1]
		}
		copy(top[at+1:], top[at:len(top)-1])
		top[at] = sm
	}
	return top
}

// MoveScorer predicts the ΣV gain of candidate moves against a fixed
// pre-move tree state. It is safe for concurrent use; its stage estimator
// caches pre-move estimates across calls.
type MoveScorer struct {
	est    *stageEstimator // owns the pre-move tree and its golden analysis
	alphas []float64
	pairs  []ctree.SinkPair
	// The pairs of sink id are pairIdx[pairOff[id]:pairOff[id+1]], in
	// ascending pair order.
	pairOff, pairIdx []int32
	index            sinkIndex // the pre-move tree in pre-order
	model            StageModel
	lg               *legalize.Legalizer
	// The pre-move state of the pairs: each pair's variation, its K skews
	// at skew[pi*K:(pi+1)*K], and each corner's local-skew guard (the
	// ceiling a predicted |skew| must not pierce).
	pairVar, skew []float64
	guard         []float64
	posts         sync.Pool // *postTree over est.pre
}

// NewMoveScorer analyzes the tree and prepares a scorer over the pair set.
func NewMoveScorer(tm *sta.Timer, tr *ctree.Tree, die geom.Rect, alphas []float64, pairs []ctree.SinkPair, model StageModel) *MoveScorer {
	return newMoveScorer(tm.Tech, tr, tm.Analyze(tr), legalize.New(die, tm.Tech.SiteW, tm.Tech.RowH), alphas, pairs, model)
}

// newMoveScorer prepares a scorer over tree tr and its golden analysis a.
func newMoveScorer(t *tech.Tech, tr *ctree.Tree, a *sta.Analysis, lg *legalize.Legalizer, alphas []float64, pairs []ctree.SinkPair, model StageModel) *MoveScorer {
	s := &MoveScorer{
		est:    newStageEstimator(t, tr, a),
		alphas: alphas, pairs: pairs, model: model,
		index: newSinkIndex(tr),
		lg:    lg,
	}
	s.indexPairs(len(tr.Nodes))
	s.pairState()
	s.posts.New = func() interface{} {
		return &postTree{Tree: ctree.Tree{Source: tr.Source, Nodes: slices.Clone(tr.Nodes)}}
	}
	return s
}

// indexPairs builds the per-sink pair lists over node ids [0, nodes): a
// counting pass, then a fill in ascending pair order. A pair naming the
// same sink at both ends is listed twice; the touched-pair bits count it
// once.
func (s *MoveScorer) indexPairs(nodes int) {
	off := make([]int32, nodes+1)
	for _, p := range s.pairs {
		off[p.A+1]++
		off[p.B+1]++
	}
	for i := 1; i < len(off); i++ {
		off[i] += off[i-1]
	}
	idx := make([]int32, off[nodes])
	fill := slices.Clone(off[:nodes])
	for pi, p := range s.pairs {
		idx[fill[p.A]] = int32(pi)
		fill[p.A]++
		idx[fill[p.B]] = int32(pi)
		fill[p.B]++
	}
	s.pairOff, s.pairIdx = off, idx
}

// pairState computes the pairs' pre-move variations and skews and the
// corners' guards, which every Gain call reads.
func (s *MoveScorer) pairState() {
	a := s.est.a
	K := a.K
	s.pairVar = make([]float64, len(s.pairs))
	s.skew = make([]float64, len(s.pairs)*K)
	for pi, p := range s.pairs {
		s.pairVar[pi] = sta.PairVariation(a, s.alphas, p)
		for k := 0; k < K; k++ {
			s.skew[pi*K+k] = a.Skew(k, p.A, p.B)
		}
	}
	s.guard = localSkews(a, s.pairs)
	for k, c := range s.guard {
		s.guard[k] = sta.SkewGuard(c)
	}
}

// sinkIndex numbers a tree's nodes in pre-order, so that every subtree is
// a run of positions and the sinks below a node are a run of the
// pre-ordered sinks.
type sinkIndex struct {
	span  []nodeSpan     // by node id; zero for a node the source does not reach
	sinks []ctree.NodeID // the sinks in pre-order
}

// nodeSpan is one node's place in the pre-order: its subtree holds the
// positions [pos, end) and the sinks sinks[sinkLo:sinkHi].
type nodeSpan struct{ pos, end, sinkLo, sinkHi int32 }

func newSinkIndex(tr *ctree.Tree) sinkIndex {
	x := sinkIndex{span: make([]nodeSpan, len(tr.Nodes))}
	x.number(tr, tr.Source, 0)
	return x
}

// number numbers id's subtree from position pos on and returns the
// position after it.
func (x *sinkIndex) number(tr *ctree.Tree, id ctree.NodeID, pos int32) int32 {
	n := tr.Node(id)
	if n == nil {
		return pos
	}
	sp := nodeSpan{pos: pos, sinkLo: int32(len(x.sinks))}
	if n.Kind == ctree.KindSink {
		x.sinks = append(x.sinks, id)
	}
	pos++
	for _, c := range n.Children {
		pos = x.number(tr, c, pos)
	}
	sp.end, sp.sinkHi = pos, int32(len(x.sinks))
	x.span[id] = sp
	return pos
}

// contains reports whether id lies in root's subtree.
func (x *sinkIndex) contains(root, id ctree.NodeID) bool {
	r, p := x.span[root], x.span[id].pos
	return r.pos <= p && p < r.end
}

// keepsSinks reports whether head's subtree holds the same sinks after the
// move as before it. Type I and II moves change no topology. Surgery moves
// the child's subtree, itself unchanged, from under its old parent to
// under the new driver, so of the other heads only one whose subtree
// contains the child or the new driver changes.
func (x *sinkIndex) keepsSinks(mv eco.Move, head ctree.NodeID) bool {
	if x.span[head].end == 0 {
		return false // not numbered: only a walk finds its sinks
	}
	if mv.Type != eco.TypeIII || head == mv.Child {
		return true
	}
	return !x.contains(head, mv.Child) && !x.contains(head, mv.NewDrv)
}

// sinksBelow returns the sinks of id's subtree, in pre-order.
func (x *sinkIndex) sinksBelow(id ctree.NodeID) []ctree.NodeID {
	sp := x.span[id]
	return x.sinks[sp.sinkLo:sp.sinkHi]
}

// Analysis exposes the scorer's pre-move golden analysis.
func (s *MoveScorer) Analysis() *sta.Analysis { return s.est.a }

// predictGains evaluates every candidate move on the worker pool (inline
// when Workers <= 1). Scores land in indexed slots, so the ranking that
// follows is identical at any worker count.
func predictGains(ctx context.Context, sc *MoveScorer, moves []eco.Move, cfg LocalConfig) []scoredMove {
	out := make([]scoredMove, len(moves))
	for i := range out {
		out[i] = scoredMove{move: moves[i], gain: math.Inf(-1)}
	}
	runIndexed(ctx, cfg.Workers, len(moves), func(mi int) {
		gain := math.Inf(-1)
		if err := resilience.Safely("predict gain", func() error {
			gain = sc.Gain(moves[mi])
			return nil
		}); err != nil {
			cfg.Rec.Record("predict-panic")
		}
		out[mi].gain = gain
	})
	return out
}

// Gain returns the predicted ΣV gain of a single move: the affected stages
// of the (virtually applied) move are re-estimated with the model, the
// per-sink latency deltas are propagated down the post-move tree, and the
// predicted variation reduction over the touched pairs is summed.
//
// The move is applied to one of the scorer's pooled post-move trees, whose
// slots for the nodes the move mutates point at private copies for the
// duration of the call. A warm call allocates nothing.
func (s *MoveScorer) Gain(mv eco.Move) float64 {
	pre := s.est.pre
	post := s.posts.Get().(*postTree)
	g := gainScratchPool.Get().(*gainScratch)
	g.mutable = mutableForMove(g.mutable[:0], pre, mv)
	post.privatize(pre, pre.Source)
	for _, id := range g.mutable {
		post.privatize(pre, id)
	}
	gain := math.Inf(-1)
	if eco.Apply(&post.Tree, s.est.t, s.lg, mv) == nil {
		g.nets, g.pins = appendAffectedStages(g.nets[:0], g.pins[:0], &post.Tree, mv)
		if len(g.nets) > 0 {
			g.prepare(len(post.Nodes), len(s.pairs))
			gain = s.gain(&post.Tree, mv, g.nets, g)
			g.reset()
		}
	}
	// A call that panics gets to neither Put: its tree still holds the
	// move, and its scratch may hold set slots.
	post.restore(pre)
	s.posts.Put(post)
	gainScratchPool.Put(g)
	return gain
}

// postTree is a reusable post-move tree of one MoveScorer. Its node table
// is copied from the pre-move tree once, when the pool creates it; between
// calls every slot points at the pre-move node. A call points the slots of
// the nodes its move mutates at private copies in own, reusing their
// structs and Children arrays, and restore points them back.
type postTree struct {
	ctree.Tree
	own [4]ctree.Node   // private copies: the source and ≤3 mutable nodes
	ids [4]ctree.NodeID // the slots that point into own, first n of them
	n   int
}

// privatize points slot id at a private copy of pre's node id. Ids that
// are missing or already private are left as they are.
func (p *postTree) privatize(pre *ctree.Tree, id ctree.NodeID) {
	n := pre.Node(id)
	if n == nil || slices.Contains(p.ids[:p.n], id) {
		return
	}
	cp := &p.own[p.n]
	children := cp.Children
	*cp = *n
	cp.Children = append(children[:0], n.Children...)
	p.Nodes[id] = cp
	p.ids[p.n] = id
	p.n++
}

// restore points every private slot back at pre's node.
func (p *postTree) restore(pre *ctree.Tree) {
	for _, id := range p.ids[:p.n] {
		p.Nodes[id] = pre.Nodes[id]
	}
	p.n = 0
}

// gainScratch is the pooled working set of one Gain call, indexed by
// post-tree node and by pair. Between calls every slot is -1 and every
// touched bit clear; nothing in it outlives the call.
type gainScratch struct {
	mutable   []ctree.NodeID // nodes the move mutates
	nets      []netStages    // the move's affected nets
	pins      []ctree.NodeID // their fanout pins
	feats     []float64      // one net's feature rows
	heads     []ctree.NodeID // pins whose stage delay the move changes
	deltas    []float64      // per head, K predicted stage-delay changes
	stack     []ctree.NodeID // subtree walk of a head whose sinks the move changes
	slot      []int32        // per node: sink-delta slot, or -1
	sinks     []ctree.NodeID // sinks holding a slot, in slot order
	sinkDelta []float64      // per slot, K accumulated deltas
	touched   []uint64       // per pair, one bit: a sink of the pair holds a slot
	postSkew  []float64      // one pair's K predicted post-move skews
}

var gainScratchPool = sync.Pool{New: func() interface{} { return new(gainScratch) }}

// prepare sizes the per-node and per-pair scratch for a call.
func (g *gainScratch) prepare(nodes, pairs int) {
	for len(g.slot) < nodes {
		g.slot = append(g.slot, -1)
	}
	for len(g.touched) < (pairs+63)/64 {
		g.touched = append(g.touched, 0)
	}
	g.heads, g.deltas = g.heads[:0], g.deltas[:0]
	g.sinks, g.sinkDelta = g.sinks[:0], g.sinkDelta[:0]
}

// reset restores the between-calls invariant of the slots; touchedGain
// clears the bits it sets.
func (g *gainScratch) reset() {
	for _, id := range g.sinks {
		g.slot[id] = -1
	}
}

// sinkDeltaOf returns the accumulated deltas of a sink, nil when no
// affected stage reaches it.
func (g *gainScratch) sinkDeltaOf(id ctree.NodeID, K int) []float64 {
	if int(id) >= len(g.slot) || g.slot[id] < 0 {
		return nil
	}
	si := int(g.slot[id])
	return g.sinkDelta[si*K : (si+1)*K]
}

// addSinkDelta adds one head's deltas to a sink's accumulated deltas,
// giving the sink a slot on its first.
func (g *gainScratch) addSinkDelta(id ctree.NodeID, delta []float64) {
	if g.slot[id] < 0 {
		g.slot[id] = int32(len(g.sinks))
		g.sinks = append(g.sinks, id)
		for range delta {
			g.sinkDelta = append(g.sinkDelta, 0)
		}
	}
	sd := g.sinkDeltaOf(id, len(delta))
	for k := range sd {
		sd[k] += delta[k]
	}
}

// walkSinks adds a head's deltas to every sink of its subtree in the
// post-move tree.
func (g *gainScratch) walkSinks(post *ctree.Tree, head ctree.NodeID, delta []float64) {
	g.stack = append(g.stack[:0], head)
	for len(g.stack) > 0 {
		id := g.stack[len(g.stack)-1]
		g.stack = g.stack[:len(g.stack)-1]
		n := post.Node(id)
		if n == nil {
			continue
		}
		g.stack = append(g.stack, n.Children...)
		if n.Kind == ctree.KindSink {
			g.addSinkDelta(id, delta)
		}
	}
}

// gain is Gain's body over pooled scratch.
func (s *MoveScorer) gain(post *ctree.Tree, mv eco.Move, nets []netStages, g *gainScratch) float64 {
	if !s.predictHeads(post, nets, g) {
		return 0
	}
	s.propagate(post, mv, g)
	return s.touchedGain(g)
}

// propagate adds each head's deltas to every sink below it, heads in
// order. A head whose sinks the move keeps reads them off the pre-move
// index; any other walks its subtree in the post-move tree, where surgery
// re-parenting is already in effect. Either way each sink sums the same
// deltas in the same order.
func (s *MoveScorer) propagate(post *ctree.Tree, mv eco.Move, g *gainScratch) {
	K := s.est.a.K
	for h, head := range g.heads {
		delta := g.deltas[h*K : (h+1)*K]
		if s.index.keepsSinks(mv, head) {
			for _, id := range s.index.sinksBelow(head) {
				g.addSinkDelta(id, delta)
			}
		} else {
			g.walkSinks(post, head, delta)
		}
	}
}

// predictHeads estimates each affected net once and records in g the pins
// whose predicted stage delay the move changes, with their K deltas. It
// reports whether there are any.
func (s *MoveScorer) predictHeads(post *ctree.Tree, nets []netStages, g *gainScratch) bool {
	K := s.est.a.K
	for _, net := range nets {
		g.feats = s.est.features(post, net.d, net.pins, g.feats[:0])
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

// touchedGain returns the predicted variation reduction over the pairs
// whose sinks hold a delta in g.
func (s *MoveScorer) touchedGain(g *gainScratch) float64 {
	alphas := s.alphas
	K := s.est.a.K
	// Surgery also changes the path itself: arrival(child) delta must be
	// measured against the old path, which the head-delta of the new stage
	// (predicted vs golden-pre fallback) already encodes.
	// Touched pairs are summed in ascending pair-index order, the order of
	// their bits: float addition is not associative, so the order must
	// follow from the pair set, not from the order propagation reached the
	// sinks in.
	lo, hi := len(g.touched), -1
	for _, sid := range g.sinks {
		for _, pi := range s.pairIdx[s.pairOff[sid]:s.pairOff[sid+1]] {
			w := int(pi / 64)
			g.touched[w] |= 1 << (pi % 64)
			lo, hi = min(lo, w), max(hi, w)
		}
	}
	g.postSkew = slices.Grow(g.postSkew[:0], K)[:K]
	post := g.postSkew
	var gain float64
	for w := lo; w <= hi; w++ {
		word := g.touched[w]
		g.touched[w] = 0
		for ; word != 0; word &= word - 1 {
			pi := w*64 + bits.TrailingZeros64(word)
			p := s.pairs[pi]
			dA, dB := g.sinkDeltaOf(p.A, K), g.sinkDeltaOf(p.B, K)
			for k, sk := range s.skew[pi*K : (pi+1)*K] {
				if dA != nil {
					sk += dA[k]
				}
				if dB != nil {
					sk -= dB[k]
				}
				// Predicted local-skew guard: a move whose predicted |skew|
				// pierces the pre-move per-corner ceiling would be rejected
				// by the golden check anyway — filter it here so compliant
				// moves surface in the ranking (the paper's "does not
				// degrade local skew" constraint, applied at prediction
				// time).
				if math.Abs(sk) > s.guard[k] {
					clear(g.touched[w+1 : hi+1]) // the bits clear for the next call
					return math.Inf(-1)
				}
				post[k] = sk
			}
			newV := 0.0
			for k := 0; k < K; k++ {
				for k2 := k + 1; k2 < K; k2++ {
					if d := math.Abs(alphas[k]*post[k] - alphas[k2]*post[k2]); d > newV {
						newV = d
					}
				}
			}
			gain += s.pairVar[pi] - newV
		}
	}
	return gain
}

// ActualMoveGain measures the golden-timer ΣV gain of applying one move to
// the tree (positive = improvement). Used as the ground truth when
// evaluating predictors (Figure 6).
func ActualMoveGain(tm *sta.Timer, tr *ctree.Tree, die geom.Rect, alphas []float64, pairs []ctree.SinkPair, mv eco.Move) float64 {
	lg := legalize.New(die, tm.Tech.SiteW, tm.Tech.RowH)
	a0 := tm.Analyze(tr)
	v0 := sta.SumVariation(a0, alphas, pairs)
	t2 := tr.Clone()
	if err := eco.Apply(t2, tm.Tech, lg, mv); err != nil {
		return math.Inf(-1)
	}
	if t2.Validate() != nil {
		return math.Inf(-1)
	}
	a2 := tm.Analyze(t2)
	return v0 - sta.SumVariation(a2, alphas, pairs)
}

// mutableForMove appends to dst the nodes eco.Apply mutates in place for a
// move, for CloneShared and the scorer's post-move trees: the perturbed
// buffer (Type I/II Loc and cell), the resized or reassigned child, and for
// surgery the child's structural parent (its Children splice) and the new
// driver (its Children append).
func mutableForMove(dst []ctree.NodeID, tr *ctree.Tree, mv eco.Move) []ctree.NodeID {
	switch mv.Type {
	case eco.TypeII:
		return append(dst, mv.Buffer, mv.Child)
	case eco.TypeIII:
		dst = append(dst, mv.Child, mv.NewDrv)
		if n := tr.Node(mv.Child); n != nil && n.Parent != ctree.NoNode {
			dst = append(dst, n.Parent)
		}
		return dst
	default:
		return append(dst, mv.Buffer)
	}
}

// moveDirty lists the nodes whose electrical context a move changes, for
// incremental re-timing.
func moveDirty(mv eco.Move) []ctree.NodeID {
	out := []ctree.NodeID{mv.Buffer}
	if mv.Child != 0 {
		out = append(out, mv.Child)
	}
	if mv.NewDrv != 0 {
		out = append(out, mv.NewDrv)
	}
	return out
}
