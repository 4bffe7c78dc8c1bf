package core

import (
	"context"
	"errors"
	"fmt"
	"math"
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
	TopPairs int  // pairs in the objective (0 = all design pairs)
	MaxMoves int  // enumeration cap per iteration (default 4000)
	Random   bool // random-move baseline (Figure 8's comparison)
	Seed     int64

	// Workers bounds the concurrency of candidate-move trials and predictor
	// evaluation, and is installed as the timer's per-corner STA parallelism
	// for the duration of the run (default runtime.GOMAXPROCS(0); 1 = the
	// exact serial path). Results are identical at any setting: trials write
	// to indexed slots and the winner is reduced deterministically by
	// (score, move index), never by completion order.
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
	// counts absorbed faults (nil = not recorded). Normally set by RunFlows.
	Faults *faults.Injector
	Rec    *resilience.Recorder

	// Obs, when non-nil, receives the local.opt/local.iter span tree,
	// local.accept events, and the move trial counters (docs/OBSERVABILITY.md).
	// Normally set by RunFlows. Nil keeps instrumentation free.
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
	tm.Workers = cfg.Workers

	cur := d.Tree.Clone()
	a0 := tm.Analyze(cur)
	res := &LocalResult{SumVar0: sta.SumVariation(a0, alphas, pairs)}
	curVar := res.SumVar0
	// Local-skew guard: never degrade the per-corner local skew.
	skew0 := make([]float64, a0.K)
	for k := range skew0 {
		skew0[k] = sta.MaxAbsSkew(a0, k, pairs)
	}

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
			sort.SliceStable(scored, func(i, j int) bool { return scored[i].gain > scored[j].gain })
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
					t2 := cur.CloneShared(mutableForMove(cur, cands[i].move)...)
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
					for k := 0; k < a2.K; k++ {
						if sta.MaxAbsSkew(a2, k, pairs) > sta.SkewGuard(skew0[k]) {
							return nil // local-skew degradation
						}
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
		moves = append(moves, eco.Enumerate(cur, tm.Tech, b, d.Die)...)
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

// MoveScorer predicts the ΣV gain of candidate moves against a fixed
// pre-move tree state. It is safe for concurrent use; its stage estimator
// caches pre-move estimates across calls.
type MoveScorer struct {
	est         *stageEstimator // owns the pre-move tree and its golden analysis
	alphas      []float64
	pairs       []ctree.SinkPair
	pairsBySink map[ctree.NodeID][]int
	model       StageModel
	lg          *legalize.Legalizer
	skewCap     []float64 // per-corner local-skew ceiling (pre-move max |skew|)
}

// NewMoveScorer analyzes the tree and prepares a scorer over the pair set.
func NewMoveScorer(tm *sta.Timer, tr *ctree.Tree, die geom.Rect, alphas []float64, pairs []ctree.SinkPair, model StageModel) *MoveScorer {
	return newMoveScorer(tm.Tech, tr, tm.Analyze(tr), legalize.New(die, tm.Tech.SiteW, tm.Tech.RowH), alphas, pairs, model)
}

// newMoveScorer prepares a scorer over tree tr and its golden analysis a.
func newMoveScorer(t *tech.Tech, tr *ctree.Tree, a *sta.Analysis, lg *legalize.Legalizer, alphas []float64, pairs []ctree.SinkPair, model StageModel) *MoveScorer {
	pbs := map[ctree.NodeID][]int{}
	for i, p := range pairs {
		pbs[p.A] = append(pbs[p.A], i)
		pbs[p.B] = append(pbs[p.B], i)
	}
	caps := make([]float64, a.K)
	for k := range caps {
		caps[k] = sta.MaxAbsSkew(a, k, pairs)
	}
	return &MoveScorer{
		est:    newStageEstimator(t, tr, a),
		alphas: alphas, pairs: pairs, pairsBySink: pbs, model: model,
		lg: lg, skewCap: caps,
	}
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
func (s *MoveScorer) Gain(mv eco.Move) float64 {
	post := s.est.pre.CloneShared(mutableForMove(s.est.pre, mv)...)
	if err := eco.Apply(post, s.est.t, s.lg, mv); err != nil {
		return math.Inf(-1)
	}
	nets := affectedStages(post, mv)
	if len(nets) == 0 {
		return math.Inf(-1)
	}
	g := gainScratchPool.Get().(*gainScratch)
	g.prepare(len(post.Nodes), len(s.pairs))
	gain := s.gain(post, nets, g)
	g.release()
	return gain
}

// gainScratch is the pooled working set of one Gain call, indexed by
// post-tree node and by pair. Between calls every slot is -1 and every
// seen flag false; nothing in it outlives the call.
type gainScratch struct {
	feats     []float64      // one net's feature rows
	heads     []ctree.NodeID // pins whose stage delay the move changes
	deltas    []float64      // per head, K predicted stage-delay changes
	stack     []ctree.NodeID // subtree walk
	slot      []int32        // per node: sink-delta slot, or -1
	sinks     []ctree.NodeID // sinks holding a slot, in slot order
	sinkDelta []float64      // per slot, K accumulated deltas
	seen      []bool         // per pair: already in touched
	touched   []int
}

var gainScratchPool = sync.Pool{New: func() interface{} { return new(gainScratch) }}

// prepare sizes the per-node and per-pair scratch for a call.
func (g *gainScratch) prepare(nodes, pairs int) {
	for len(g.slot) < nodes {
		g.slot = append(g.slot, -1)
	}
	for len(g.seen) < pairs {
		g.seen = append(g.seen, false)
	}
	g.heads, g.deltas = g.heads[:0], g.deltas[:0]
	g.sinks, g.sinkDelta, g.touched = g.sinks[:0], g.sinkDelta[:0], g.touched[:0]
}

// release restores the between-calls invariant and returns g to the pool.
// A call that panics never gets here; its scratch is dropped, not reused.
func (g *gainScratch) release() {
	for _, id := range g.sinks {
		g.slot[id] = -1
	}
	for _, pi := range g.touched {
		g.seen[pi] = false
	}
	gainScratchPool.Put(g)
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

// gain is Gain's body over pooled scratch.
func (s *MoveScorer) gain(post *ctree.Tree, nets []netStages, g *gainScratch) float64 {
	a, alphas, pairs := s.est.a, s.alphas, s.pairs
	K := a.K
	// Per-head per-corner arrival deltas, each net estimated once.
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
	if len(g.heads) == 0 {
		return 0
	}
	// Propagate to sinks (on the post tree, where surgery re-parenting is
	// already in effect): every sink below a head accumulates its delta,
	// heads in order.
	for h, head := range g.heads {
		delta := g.deltas[h*K : (h+1)*K]
		g.stack = append(g.stack[:0], head)
		for len(g.stack) > 0 {
			id := g.stack[len(g.stack)-1]
			g.stack = g.stack[:len(g.stack)-1]
			n := post.Node(id)
			if n == nil {
				continue
			}
			g.stack = append(g.stack, n.Children...)
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
	// Surgery also changes the path itself: arrival(child) delta must be
	// measured against the old path, which the head-delta of the new stage
	// (predicted vs golden-pre fallback) already encodes.
	// Touched pairs are summed in ascending pair-index order: float addition
	// is not associative, so the order must follow from the pair set, not
	// from the order the tree walk discovered the sinks in.
	for _, sid := range g.sinks {
		for _, pi := range s.pairsBySink[sid] {
			if !g.seen[pi] {
				g.seen[pi] = true
				g.touched = append(g.touched, pi)
			}
		}
	}
	slices.Sort(g.touched)
	var gain float64
	for _, pi := range g.touched {
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
			// Predicted local-skew guard: a move whose predicted |skew|
			// pierces the pre-move per-corner ceiling would be rejected
			// by the golden check anyway — filter it here so compliant
			// moves surface in the ranking (the paper's "does not
			// degrade local skew" constraint, applied at prediction
			// time).
			if len(s.skewCap) > k && math.Abs(sk) > sta.SkewGuard(s.skewCap[k]) {
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

// mutableForMove lists the nodes eco.Apply mutates in place for a move, for
// CloneShared: the perturbed buffer (Type I/II Loc and cell), the resized or
// reassigned child, and for surgery the child's structural parent (its
// Children splice) and the new driver (its Children append).
func mutableForMove(tr *ctree.Tree, mv eco.Move) []ctree.NodeID {
	switch mv.Type {
	case eco.TypeII:
		return []ctree.NodeID{mv.Buffer, mv.Child}
	case eco.TypeIII:
		out := []ctree.NodeID{mv.Child, mv.NewDrv}
		if n := tr.Node(mv.Child); n != nil && n.Parent != ctree.NoNode {
			out = append(out, n.Parent)
		}
		return out
	default:
		return []ctree.NodeID{mv.Buffer}
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
