package core

import (
	"context"
	"fmt"
	"math"
	"slices"
	"sort"

	"skewvar/internal/ctree"
	"skewvar/internal/eco"
	"skewvar/internal/faults"
	"skewvar/internal/legalize"
	"skewvar/internal/lp"
	"skewvar/internal/lut"
	"skewvar/internal/obs"
	"skewvar/internal/resilience"
	"skewvar/internal/sta"
)

// Fixed parameters of the global stage's LP (docs/ALGORITHMS.md). The
// float constants are typed: Go folds untyped constant expressions
// exactly, so an untyped 1.2 would make arcGrowth-1 exactly 0.2 instead of
// float64(1.2)-1 and move every constraint-(10) bound in its last bit.
const (
	arcGrowth   float64 = 1.2  // β: arc-delay growth bound of constraint (10)
	dmaxMargin  float64 = 1.05 // max-latency margin of constraint (9)
	maxSinkRows         = 30   // latest sinks sampled for constraint (9)
	ratioRounds         = 3    // W-window (11) row-generation rounds, free-Δ mode
	minDeltaPS  float64 = 6    // smallest per-arc change realized by a full rebuild
)

// GlobalConfig tunes the LP-based global optimization. Zero values select
// defaults.
type GlobalConfig struct {
	TopPairs      int       // pairs optimized (default 240); RunFlows overwrites it with FlowConfig.TopPairs
	MaxPairsPerLP int       // block size (default 250 — usually one block; arcs shared with out-of-block pairs are frozen, so prefer a single block when the LP fits)
	MaxArcsPerLP  int       // arc cap per block (default 1200)
	USweep        []float64 // ΣV upper-bound fractions swept (default {0.9, 0.8, 0.6})

	// Faults is an optional deterministic fault injector (nil = no
	// injection); Rec receives fault counts from the degradation paths
	// (nil = not recorded). RunFlows overwrites both with the flow's.
	Faults *faults.Injector
	Rec    *resilience.Recorder

	// Obs, when non-nil, receives the global.opt/global.sweep span tree,
	// lp.solve and global.budget_halved events, and the LP counters
	// (docs/OBSERVABILITY.md). RunFlows overwrites it with FlowConfig.Obs.
	// Nil keeps instrumentation free.
	Obs *obs.Recorder

	// FreeDelta switches to the paper's literal formulation with an
	// independent Δ variable per (arc, corner), guarded only by the
	// W-window (11) via row generation. The default (false) parameterizes
	// each arc's change by two physically realizable knobs — wire snaking
	// and gate (inverter-pair) delay — whose per-corner signatures come
	// from the characterized LUTs, so every LP solution is
	// ECO-implementable by construction. FreeDelta is kept as an ablation:
	// it demonstrates why the paper needs constraint (11) at all
	// (unconstrained per-corner deltas ask for physically impossible
	// single-corner changes).
	FreeDelta bool
}

func (c *GlobalConfig) setDefaults() {
	if c.TopPairs == 0 {
		c.TopPairs = 240
	}
	if c.MaxPairsPerLP == 0 {
		c.MaxPairsPerLP = 250
	}
	if c.MaxArcsPerLP == 0 {
		c.MaxArcsPerLP = 1200
	}
	if len(c.USweep) == 0 {
		c.USweep = []float64{0.9, 0.8, 0.6}
	}
}

// LPStat records one block's LP at one U: Solves, Iters and Refactors sum
// over every solve the block made (both passes and every free-Δ round);
// Rows, Cols, Status and AbsDeltaSum describe the pass it kept.
type LPStat struct {
	UFrac       float64
	Block       int
	Rows, Cols  int
	Solves      int
	Iters       int
	Refactors   int // basis refactorizations (numerical-health signal)
	Status      lp.Status
	AbsDeltaSum float64 // LP objective (nominal-ps units of change)
	ArcsChanged int
	Reverted    bool // golden check rejected the block's ECOs
}

// GlobalResult is the outcome of the global optimization.
type GlobalResult struct {
	Tree         *ctree.Tree
	SumVar0      float64
	SumVar       float64
	BestU        float64
	LPStats      []LPStat
	ArcsRebuilt  int
	ECOSelectErr float64 // mean realization error of applied arcs

	Degraded   bool // at least one LP failed or the pair budget was halved
	LPFailures int  // block LP solves that errored (injected or real)
	PairBudget int  // MaxPairsPerLP the returned sweep actually used
}

// GlobalOpt runs the LP-guided global optimization: per criticality block it
// solves the Eq. (4)–(11) LP for the desired per-arc per-corner delay
// changes under a swept ΣV bound U, realizes them with routing detours and
// the Algorithm-1 inverter-pair ECO, and keeps the swept tree with the best
// golden ΣV that does not degrade local skew.
//
// Degradation ladder: when block LPs fail (solver error, injected fault,
// recovered panic), the whole sweep is retried with a halved MaxPairsPerLP
// — smaller LPs are cheaper and numerically easier — down to a floor, after
// which the best attempt (never worse than the unmodified tree) is
// returned. A canceled context stops at the next block boundary and returns
// the best-so-far tree with a wrapped resilience.ErrCanceled.
func GlobalOpt(ctx context.Context, tm *sta.Timer, ch *lut.Char, d *ctree.Design, alphas []float64, cfg GlobalConfig) (*GlobalResult, error) {
	cfg.setDefaults()
	pairs := d.TopPairs(cfg.TopPairs)
	if len(pairs) == 0 {
		return nil, fmt.Errorf("core: no sink pairs: %w", resilience.ErrInvalidDesign)
	}
	// Envelopes for every corner pair (constraint (11) / Figure 2). Only
	// free-Δ's W-window rows read them.
	var envs map[[2]int]*lut.Envelope
	if cfg.FreeDelta {
		K := tm.Tech.NumCorners()
		envs = map[[2]int]*lut.Envelope{}
		for k := 0; k < K; k++ {
			for k2 := k + 1; k2 < K; k2++ {
				e, err := ch.FitEnvelope(k, k2)
				if err != nil {
					return nil, fmt.Errorf("core: envelope (%d,%d): %w", k, k2, err)
				}
				envs[[2]int{k, k2}] = e
			}
		}
	}
	lg := legalize.New(d.Die, tm.Tech.SiteW, tm.Tech.RowH)
	reb := eco.NewRebuilder(tm.Tech, ch, lg)

	var gsp *obs.Span
	if cfg.Obs != nil {
		gsp = cfg.Obs.StartSpan("global.opt",
			obs.I("pairs", len(pairs)), obs.I("u_fracs", len(cfg.USweep)))
	}
	const minPairsPerLP = 16
	budget := cfg.MaxPairsPerLP
	sawFailure := false
	var best *GlobalResult
	for {
		acfg := cfg
		acfg.MaxPairsPerLP = budget
		res, err := globalSweep(ctx, tm, reb, d, alphas, pairs, envs, acfg, gsp)
		res.PairBudget = budget
		if best == nil || res.SumVar < best.SumVar {
			best = res
		}
		sawFailure = sawFailure || res.LPFailures > 0
		best.Degraded = sawFailure
		if err != nil {
			gsp.End()
			return best, err
		}
		if res.LPFailures == 0 || budget <= minPairsPerLP {
			gsp.End()
			return best, nil
		}
		cfg.Rec.Record("lp-budget-halved")
		budget /= 2
		if budget < minPairsPerLP {
			budget = minPairsPerLP
		}
		if gsp != nil {
			gsp.Event("global.budget_halved", obs.I("pairs_per_lp", budget))
		}
	}
}

// emitLPStat turns one block-LP stat into an lp.solve trace event (on sp)
// and the lp.* counters. The stream is deterministic: the simplex is serial
// and its inputs are bit-identical at any worker count.
func emitLPStat(obsr *obs.Recorder, sp *obs.Span, stat LPStat) {
	if obsr == nil {
		return
	}
	obsr.Counter("lp.solves").Add(int64(stat.Solves))
	obsr.Counter("lp.iterations").Add(int64(stat.Iters))
	if sp != nil {
		reverted := "no"
		if stat.Reverted {
			reverted = "yes"
		}
		sp.Event("lp.solve",
			obs.I("block", stat.Block),
			obs.F("u_frac", stat.UFrac),
			obs.I("rows", stat.Rows),
			obs.I("cols", stat.Cols),
			obs.I("solves", stat.Solves),
			obs.I("iters", stat.Iters),
			obs.I("refactors", stat.Refactors),
			obs.S("status", stat.Status.String()),
			obs.F("objective_ps", stat.AbsDeltaSum),
			obs.I("arcs_changed", stat.ArcsChanged),
			obs.S("reverted", reverted))
	}
}

// globalSweep runs one full U-sweep at a fixed pair budget, absorbing block
// failures (skipping the block) and counting them in LPFailures. Spans and
// events land under gsp (nil = untraced).
func globalSweep(ctx context.Context, tm *sta.Timer, reb *eco.Rebuilder, d *ctree.Design, alphas []float64, pairs []ctree.SinkPair, envs map[[2]int]*lut.Envelope, cfg GlobalConfig, gsp *obs.Span) (*GlobalResult, error) {
	a0 := tm.Analyze(d.Tree)
	res := &GlobalResult{SumVar0: sta.SumVariation(a0, alphas, pairs)}
	skew0 := localSkews(a0, pairs)
	blocks := partitionPairs(d.Tree, pairs, cfg.MaxPairsPerLP)

	best := d.Tree
	bestVar := res.SumVar0
	bestU := 0.0
	// Block 0's LP is built at the first rung and re-solved at the later
	// ones: every rung starts from a clone of d.Tree, so its analysis, arcs
	// and knob signatures are the same, and only row (5)'s bound moves. A
	// block that fails drops it, and the next rung builds afresh.
	var lp0 *blockLP
	finalize := func() {
		res.Tree = best.Clone()
		res.SumVar = bestVar
		res.BestU = bestU
	}
	for _, frac := range cfg.USweep {
		var usp *obs.Span
		if gsp != nil {
			usp = gsp.StartChild("global.sweep",
				obs.F("u_frac", frac), obs.I("blocks", len(blocks)))
		}
		tree := d.Tree.Clone()
		rebuilt := 0
		var selErrSum float64
		var selErrN int
		prevVar := res.SumVar0
		treeOK := true
		for bi, blk := range blocks {
			if cerr := resilience.Canceled(ctx); cerr != nil {
				usp.End()
				finalize()
				return res, cerr
			}
			pre := tree.Clone()
			var stat LPStat
			var n, en int
			var es float64
			var lpErr error
			perr := resilience.Safely("global block", func() error {
				bl := lp0
				if bi > 0 || bl == nil {
					bl = buildBlockLP(tm, reb, tree, blk, pairs, alphas, cfg)
				}
				if bi == 0 {
					lp0 = bl
				}
				stat, n, es, en, lpErr = optimizeBlock(tm, reb, tree, bl, envs, cfg, frac)
				return nil
			})
			if bi == 0 && (perr != nil || lpErr != nil) {
				lp0 = nil
			}
			if perr != nil {
				tree = pre
				cfg.Rec.Record("panic")
				res.LPFailures++
				cfg.Obs.Counter("lp.failures").Inc()
				stat = LPStat{Block: bi, UFrac: frac, Reverted: true}
				res.LPStats = append(res.LPStats, stat)
				emitLPStat(cfg.Obs, usp, stat)
				continue
			}
			if lpErr != nil {
				res.LPFailures++
				cfg.Obs.Counter("lp.failures").Inc()
			}
			stat.Block = bi
			stat.UFrac = frac
			if n > 0 {
				// Per-block golden acceptance: revert ECOs that the
				// discretized realization turned counterproductive or that
				// degraded any corner's local skew.
				aB := tm.Analyze(tree)
				vB := sta.SumVariation(aB, alphas, pairs)
				if vB >= prevVar-1e-9 || !skewWithin(aB, pairs, skew0) {
					tree = pre
					stat.Reverted = true
					n, es, en = 0, 0, 0
				} else {
					prevVar = vB
				}
			}
			res.LPStats = append(res.LPStats, stat)
			emitLPStat(cfg.Obs, usp, stat)
			rebuilt += n
			selErrSum += es
			selErrN += en
		}
		usp.End()
		if err := tree.Validate(); err != nil {
			// A corrupted sweep never becomes the incumbent; drop it and keep
			// sweeping instead of aborting the whole stage.
			cfg.Rec.Record("tree-corrupt")
			res.LPFailures++
			cfg.Obs.Counter("lp.failures").Inc()
			treeOK = false
		}
		if !treeOK {
			continue
		}
		aU := tm.Analyze(tree)
		vU := sta.SumVariation(aU, alphas, pairs)
		if skewWithin(aU, pairs, skew0) && vU < bestVar-1e-6 {
			best, bestVar, bestU = tree, vU, frac
			res.ArcsRebuilt = rebuilt
			if selErrN > 0 {
				res.ECOSelectErr = selErrSum / float64(selErrN)
			}
		}
	}
	finalize()
	return res, nil
}

// localSkews returns each corner's local skew: the max |skew| over pairs.
func localSkews(a *sta.Analysis, pairs []ctree.SinkPair) []float64 {
	out := make([]float64, a.K)
	for k := range out {
		out[k] = sta.MaxAbsSkew(a, k, pairs)
	}
	return out
}

// skewWithin reports whether every corner's local skew over pairs stays
// within the no-degradation guard of its baseline skew0[k].
func skewWithin(a *sta.Analysis, pairs []ctree.SinkPair, skew0 []float64) bool {
	for k := 0; k < a.K; k++ {
		if sta.MaxAbsSkew(a, k, pairs) > sta.SkewGuard(skew0[k]) {
			return false
		}
	}
	return true
}

// partitionPairs splits the pair list into geometry-coherent blocks of at
// most maxPer pairs (so each block's LP shares arcs): pairs are sorted by a
// coarse grid key of their midpoint, then chunked.
func partitionPairs(tr *ctree.Tree, pairs []ctree.SinkPair, maxPer int) [][]ctree.SinkPair {
	type keyed struct {
		p   ctree.SinkPair
		key int64
	}
	ks := make([]keyed, len(pairs))
	for i, p := range pairs {
		a, b := tr.Node(p.A).Loc, tr.Node(p.B).Loc
		mx := (a.X + b.X) / 2
		my := (a.Y + b.Y) / 2
		const cell = 400.0
		ks[i] = keyed{p: p, key: int64(my/cell)<<20 | int64(mx/cell)}
	}
	sort.SliceStable(ks, func(i, j int) bool {
		if ks[i].key != ks[j].key {
			return ks[i].key < ks[j].key
		}
		return ks[i].p.Crit > ks[j].p.Crit
	})
	var out [][]ctree.SinkPair
	for start := 0; start < len(ks); start += maxPer {
		end := start + maxPer
		if end > len(ks) {
			end = len(ks)
		}
		blk := make([]ctree.SinkPair, 0, end-start)
		for _, k := range ks[start:end] {
			blk = append(blk, k.p)
		}
		out = append(out, blk)
	}
	return out
}

// arcKnobs holds the LP variables of one arc.
//
// Parameterized mode: two realizable knobs with per-corner signatures —
// wire snaking w (µm; Δ_k = slopeW_k·w) and gate delay g (nominal ps;
// Δ_k = prof_k·g with prof the LUT gate-stage corner profile).
// Free-Δ mode: an independent (Δ⁺,Δ⁻) pair per corner.
type arcKnobs struct {
	wp, wm, gp, gm int
	slopeW, prof   []float64
	dp, dm         []int
}

// knobVars returns the arc's LP variables.
func (v *arcKnobs) knobVars() []int {
	if v.dp != nil {
		return append(slices.Clone(v.dp), v.dm...)
	}
	return []int{v.wp, v.wm, v.gp, v.gm}
}

// delta returns the arc's solved delay change at corner k.
func (v *arcKnobs) delta(sol *lp.Solution, k int) float64 {
	if v.dp != nil {
		return sol.X[v.dp[k]] - sol.X[v.dm[k]]
	}
	w := sol.X[v.wp] - sol.X[v.wm]
	g := sol.X[v.gp] - sol.X[v.gm]
	return v.slopeW[k]*w + v.prof[k]*g
}

// appendDelta appends mult·Δ_k(arc) to a constraint row under construction.
func (v *arcKnobs) appendDelta(k int, mult float64, idx *[]int, coef *[]float64) {
	if v.dp != nil {
		*idx = append(*idx, v.dp[k], v.dm[k])
		*coef = append(*coef, mult, -mult)
		return
	}
	*idx = append(*idx, v.wp, v.wm, v.gp, v.gm)
	*coef = append(*coef, mult*v.slopeW[k], -mult*v.slopeW[k], mult*v.prof[k], -mult*v.prof[k])
}

// gateProfile returns the per-corner gate-stage delay profile of the arc's
// buffer size, normalized to 1 at the nominal corner: the corner signature
// of adding or removing inverter-pair delay on the arc.
func gateProfile(reb *eco.Rebuilder, tree *ctree.Tree, arc *ctree.Arc) []float64 {
	cellIdx := len(reb.T.Cells) / 2
	for i := len(arc.Interior) - 1; i >= 0; i-- {
		if n := tree.Node(arc.Interior[i]); n != nil && n.Kind == ctree.KindBuffer {
			if ci := reb.T.CellIndex(n.CellName); ci >= 0 {
				cellIdx = ci
			}
			break
		}
	}
	K := reb.T.NumCorners()
	prof := make([]float64, K)
	base := reb.Char.Uniform(cellIdx, 0, reb.T.Nominal)
	for k := 0; k < K; k++ {
		prof[k] = reb.Char.Uniform(cellIdx, 0, k) / base
	}
	return prof
}

// solveHook, when non-nil, sees every block LP solve that runs: the
// problem as it was solved, and the result. Only tests set it.
var solveHook func(prob *lp.Problem, sol *lp.Solution, err error)

// solveLP is the guarded LP entry point of the global stage: it fires the
// lp-solve fault hook, recovers solver panics into typed errors, and counts
// failures — so a wedged or failing simplex degrades one block instead of
// killing the flow.
func solveLP(prob *lp.Problem, inj *faults.Injector, rec *resilience.Recorder) (*lp.Solution, error) {
	if inj.Fire(faults.LPSolve) {
		rec.Record("lp-solve")
		return nil, fmt.Errorf("core: injected LP failure: %w", resilience.ErrSolver)
	}
	var sol *lp.Solution
	err := resilience.Safely("lp solve", func() error {
		var e error
		sol, e = prob.Solve()
		return e
	})
	if solveHook != nil {
		solveHook(prob, sol, err)
	}
	if err != nil {
		rec.Record("lp-solve")
		return sol, err
	}
	return sol, nil
}

// blockLP is one block's LP with what it was built from: the timing,
// segmentation and arc delays of the tree it was built on, the block's
// arcs and their knob variables. Its problem keeps the solver between
// solves, so a later solve re-optimizes from the last basis.
type blockLP struct {
	a         *sta.Analysis // never released: realization re-times from it
	seg       *ctree.Segmentation
	arcD      [][]float64
	arcs      []int
	external  map[int]bool
	directLen map[int]float64
	endLoads  map[int]float64

	prob      *lp.Problem
	vars      map[int]*arcKnobs
	lo, hi    []float64 // every variable's pass-1 bounds
	rowU      int       // the row of constraint (5), ΣV ≤ U
	curBlockV float64   // the block's ΣV on the tree the LP was built on
	zeroed    []int     // variables pass 2 fixed at zero; restored before the next pass 1
}

// buildBlockLP builds the Eq. (4)–(11) LP of one block on the current tree
// state, with row (5)'s bound left for solveBlock to set. It returns nil
// when none of the block's pairs has a path.
func buildBlockLP(tm *sta.Timer, reb *eco.Rebuilder, tree *ctree.Tree, blk, allPairs []ctree.SinkPair, alphas []float64, cfg GlobalConfig) *blockLP {
	a := tm.Analyze(tree)
	seg := ctree.Segment(tree)
	arcD := sta.ArcDelays(a, seg)
	K := a.K

	// Paths and the arc set.
	pathOf := map[ctree.NodeID][]int{}
	arcUse := map[int]int{}
	var valid []ctree.SinkPair
	for _, p := range blk {
		ok := true
		for _, s := range []ctree.NodeID{p.A, p.B} {
			if _, done := pathOf[s]; done {
				continue
			}
			path, err := seg.PathArcs(tree, s)
			if err != nil {
				ok = false
				break
			}
			pathOf[s] = path
		}
		if ok {
			valid = append(valid, p)
			for _, s := range []ctree.NodeID{p.A, p.B} {
				for _, ai := range pathOf[s] {
					arcUse[ai]++
				}
			}
		}
	}
	blk = valid
	if len(blk) == 0 {
		return nil
	}
	// Freeze arcs that out-of-block pairs also traverse: a block's ECO must
	// not shift the skew of pairs its LP cannot see (the per-block golden
	// check would revert the whole block otherwise).
	inBlk := map[[2]ctree.NodeID]bool{}
	for _, p := range blk {
		inBlk[[2]ctree.NodeID{p.A, p.B}] = true
	}
	external := map[int]bool{}
	for _, p := range allPairs {
		if inBlk[[2]ctree.NodeID{p.A, p.B}] {
			continue
		}
		for _, sID := range []ctree.NodeID{p.A, p.B} {
			if path, err := seg.PathArcs(tree, sID); err == nil {
				for _, ai := range path {
					external[ai] = true
				}
			}
		}
	}
	// Cap arcs by dropping trailing pairs.
	arcs := sortedKeys(arcUse)
	for len(arcs) > cfg.MaxArcsPerLP && len(blk) > 1 {
		blk = blk[:len(blk)-1]
		arcUse = map[int]int{}
		for _, p := range blk {
			for _, s := range []ctree.NodeID{p.A, p.B} {
				for _, ai := range pathOf[s] {
					arcUse[ai]++
				}
			}
		}
		arcs = sortedKeys(arcUse)
	}
	// Drop path entries of removed pairs so later constraints only touch
	// arcs that have variables.
	{
		keep := map[ctree.NodeID]bool{}
		for _, p := range blk {
			keep[p.A] = true
			keep[p.B] = true
		}
		for s := range pathOf {
			if !keep[s] {
				delete(pathOf, s)
			}
		}
	}

	// Deterministic NaN-delay injection: poison the first unfrozen arc's
	// delay vector. The NaN flows into the LP variable bounds, trips the
	// problem builder's validation, and exercises the block-skip path the
	// same way a numerically broken timer would.
	if cfg.Faults != nil && len(arcs) > 0 && cfg.Faults.Fire(faults.NaNDelay) {
		cfg.Rec.Record("nan-delay")
		target := arcs[0]
		for _, ai := range arcs {
			if !external[ai] {
				target = ai
				break
			}
		}
		for k := range arcD[target] {
			arcD[target][k] = math.NaN()
		}
	}

	bl := &blockLP{
		a: a, seg: seg, arcD: arcD, arcs: arcs, external: external,
		directLen: map[int]float64{}, endLoads: map[int]float64{},
		prob: lp.NewProblem(), vars: map[int]*arcKnobs{},
	}
	// Per-arc geometry and knob signatures.
	slopes := map[int][]float64{}
	profs := map[int][]float64{}
	budgets := map[int]float64{}
	for _, ai := range arcs {
		arc := seg.Arcs[ai]
		bl.directLen[ai] = tree.Node(arc.Top).Loc.Manhattan(tree.Node(arc.Bottom).Loc)
		bl.endLoads[ai] = rebuildEndLoad(tm, tree, arc.Bottom)
		slopes[ai] = reb.TrimSlopes(tree, arc, bl.endLoads[ai])
		profs[ai] = gateProfile(reb, tree, arc)
		budgets[ai] = eco.ArcDetourBudget(tree, arc)
	}

	prob := bl.prob
	addVar := func(lo, hi, cost float64) int {
		bl.lo = append(bl.lo, lo)
		bl.hi = append(bl.hi, hi)
		return prob.AddVar(lo, hi, cost)
	}
	for _, ai := range arcs {
		frozen := external[ai]
		v := &arcKnobs{}
		if cfg.FreeDelta {
			for k := 0; k < K; k++ {
				dd := arcD[ai][k]
				up := (arcGrowth - 1) * dd
				dmin := reb.Char.MinDelayPerUM(k) * bl.directLen[ai]
				down := dd - dmin
				if up < 0 || frozen {
					up = 0
				}
				if down < 0 || frozen {
					down = 0
				}
				v.dp = append(v.dp, addVar(0, up, 1))
				v.dm = append(v.dm, addVar(0, down, 1))
			}
		} else {
			v.slopeW = slopes[ai]
			v.prof = profs[ai]
			// Wire knob bounds: removable snaking vs. added snake; gate
			// knob bounds from constraint (10), split half/half so the
			// knobs' sum stays within the arc's range.
			wUp, wDown := 400.0, budgets[ai]
			gUp, gDown := math.Inf(1), math.Inf(1)
			for k := 0; k < K; k++ {
				dd := arcD[ai][k]
				dmin := reb.Char.MinDelayPerUM(k) * bl.directLen[ai]
				if p := v.prof[k]; p > 0 {
					gUp = math.Min(gUp, 0.5*(arcGrowth-1)*dd/p)
					gDown = math.Min(gDown, 0.5*math.Max(0, dd-dmin)/p)
				}
				if sl := v.slopeW[k]; sl > 0 {
					wUp = math.Min(wUp, 0.5*(arcGrowth-1)*dd/sl)
					wDown = math.Min(wDown, math.Min(budgets[ai], 0.5*math.Max(0, dd-dmin)/sl))
				}
			}
			if frozen {
				wUp, wDown, gUp, gDown = 0, 0, 0, 0
			}
			wCost := v.slopeW[0]
			if wCost <= 0 {
				wCost = 1e-3
			}
			v.wp = addVar(0, math.Max(0, wUp), wCost)
			v.wm = addVar(0, math.Max(0, wDown), wCost)
			v.gp = addVar(0, math.Max(0, gUp), 1)
			v.gm = addVar(0, math.Max(0, gDown), 1)
		}
		bl.vars[ai] = v
	}
	vars := bl.vars
	vVar := make([]int, len(blk))
	for i, p := range blk {
		vVar[i] = addVar(0, lp.Inf, 0)
		bl.curBlockV += sta.PairVariation(a, alphas, p)
	}
	// pathDelta appends mult·δ(lat(A)−lat(B)) at corner k.
	pathDelta := func(p ctree.SinkPair, k int, mult float64, idx *[]int, coef *[]float64) {
		for _, ai := range pathOf[p.A] {
			vars[ai].appendDelta(k, mult, idx, coef)
		}
		for _, ai := range pathOf[p.B] {
			vars[ai].appendDelta(k, -mult, idx, coef)
		}
	}
	// Every row is built in idx and coef; AddConstraint copies what it
	// keeps.
	var idx []int
	var coef []float64
	// Constraint (6): V bounds every pairwise-corner normalized
	// variation.
	for i, p := range blk {
		for k := 0; k < K; k++ {
			sk0 := a.Skew(k, p.A, p.B)
			for k2 := k + 1; k2 < K; k2++ {
				s20 := a.Skew(k2, p.A, p.B)
				base := alphas[k]*sk0 - alphas[k2]*s20
				for sign := -1.0; sign <= 1.0; sign += 2 {
					idx = append(idx[:0], vVar[i])
					coef = append(coef[:0], 1)
					pathDelta(p, k, -sign*alphas[k], &idx, &coef)
					pathDelta(p, k2, sign*alphas[k2], &idx, &coef)
					prob.AddConstraint(lp.GE, sign*base, idx, coef)
				}
			}
		}
	}
	// Constraint (5): ΣV ≤ U, its bound set per rung.
	idx, coef = append(idx[:0], vVar...), coef[:0]
	for range vVar {
		coef = append(coef, 1)
	}
	bl.rowU = prob.AddConstraint(lp.LE, bl.curBlockV, idx, coef)
	// Constraint (7): no local-skew degradation at corner 0. The
	// block and sweep golden gates enforce (7) at the other corners,
	// and subsume (8).
	for _, p := range blk {
		s0 := a.Skew(0, p.A, p.B)
		bound := math.Abs(s0) + 1 // 1ps slack avoids freezing at s0≈0
		idx, coef = idx[:0], coef[:0]
		pathDelta(p, 0, 1, &idx, &coef)
		prob.AddConstraint(lp.LE, bound-s0, idx, coef)
		idx, coef = idx[:0], coef[:0]
		pathDelta(p, 0, -1, &idx, &coef)
		prob.AddConstraint(lp.LE, bound+s0, idx, coef)
	}
	// Constraint (9): max-latency bound on a sample of the latest sinks.
	{
		type sl struct {
			s   ctree.NodeID
			lat float64
		}
		var sinks []sl
		for s := range pathOf {
			sinks = append(sinks, sl{s, a.Arrive[0][s]})
		}
		sort.Slice(sinks, func(i, j int) bool {
			if sinks[i].lat != sinks[j].lat {
				return sinks[i].lat > sinks[j].lat
			}
			return sinks[i].s < sinks[j].s
		})
		if len(sinks) > maxSinkRows {
			sinks = sinks[:maxSinkRows]
		}
		for _, e := range sinks {
			for k := 0; k < K; k++ {
				idx, coef = idx[:0], coef[:0]
				for _, ai := range pathOf[e.s] {
					vars[ai].appendDelta(k, 1, &idx, &coef)
				}
				prob.AddConstraint(lp.LE, dmaxMargin*a.MaxLat[k]-a.Arrive[k][e.s], idx, coef)
			}
		}
	}
	return bl
}

// solveBlock solves the block's LP at ΣV bound frac·(the block's ΣV) in two
// passes. Pass 1 is unrestricted. Pass 2 fixes at zero the knobs of every
// arc outside the ones pass 1 leans on most, so per-arc changes are large
// enough to realize; it is kept if it solves to optimality. Both passes
// re-optimize the problem's kept basis when there is one, and the next
// call restores pass 1's bounds. The returned stat sums the pivots and
// refactorizations of every solve and reports the kept pass; sol is nil
// if pass 1 did not solve to optimality.
func solveBlock(bl *blockLP, envs map[[2]int]*lut.Envelope, cfg GlobalConfig, frac float64) (*lp.Solution, LPStat, error) {
	prob := bl.prob
	for _, j := range bl.zeroed {
		prob.SetBounds(j, bl.lo[j], bl.hi[j])
	}
	bl.zeroed = bl.zeroed[:0]
	prob.SetRHS(bl.rowU, frac*bl.curBlockV)

	var stat LPStat
	first, err := solveRounds(bl, envs, cfg, &stat)
	if first == nil {
		return nil, stat, err
	}
	type arcReq struct {
		ai  int
		req float64
	}
	var reqs []arcReq
	for _, ai := range bl.arcs {
		var req float64
		for k := range bl.arcD[ai] {
			req += math.Abs(bl.vars[ai].delta(first, k))
		}
		if req > 1e-6 {
			reqs = append(reqs, arcReq{ai, req})
		}
	}
	sort.Slice(reqs, func(i, j int) bool {
		if reqs[i].req != reqs[j].req {
			return reqs[i].req > reqs[j].req
		}
		return reqs[i].ai < reqs[j].ai
	})
	topN := len(bl.arcs) / 8
	if topN < 8 {
		topN = 8
	}
	allowed := map[int]bool{}
	for i, r := range reqs {
		if i < topN || r.req >= minDeltaPS {
			allowed[r.ai] = true
		}
	}
	if len(allowed) == 0 || len(allowed) == len(bl.arcs) {
		return first, stat, nil
	}
	kept := stat
	for _, ai := range bl.arcs {
		if allowed[ai] || bl.external[ai] {
			continue
		}
		for _, j := range bl.vars[ai].knobVars() {
			prob.SetBounds(j, 0, 0)
			bl.zeroed = append(bl.zeroed, j)
		}
	}
	second, _ := solveRounds(bl, envs, cfg, &stat)
	if second == nil {
		kept.Iters, kept.Refactors, kept.Solves = stat.Iters, stat.Refactors, stat.Solves
		return first, kept, nil
	}
	return second, stat, nil
}

// solveRounds solves the block's LP; in free-Δ mode it then adds the
// W-window (11) rows the solution violates and re-solves, up to
// ratioRounds times. It adds every solve's pivots and refactorizations to
// stat and sets stat's status, size and objective from the last one. It
// returns the last solution if that one is optimal, and nil otherwise.
func solveRounds(bl *blockLP, envs map[[2]int]*lut.Envelope, cfg GlobalConfig, stat *LPStat) (*lp.Solution, error) {
	prob := bl.prob
	maxRounds := 0
	if cfg.FreeDelta {
		maxRounds = ratioRounds
	}
	for round := 0; ; round++ {
		sol, err := solveLP(prob, cfg.Faults, cfg.Rec)
		stat.Solves++
		stat.Rows = prob.NumRows()
		stat.Cols = prob.NumVars()
		if sol != nil {
			stat.Status = sol.Status
			stat.Iters += sol.Iterations
			stat.Refactors += sol.Refactors
			stat.AbsDeltaSum = sol.Obj
		}
		if err != nil || sol.Status != lp.Optimal {
			return nil, err
		}
		if round >= maxRounds || addWindowRows(bl, envs, sol) == 0 {
			return sol, nil
		}
	}
}

// addWindowRows adds a W-window (11) row for every arc and corner pair
// whose solved delay ratio leaves the envelope, and returns how many it
// added.
func addWindowRows(bl *blockLP, envs map[[2]int]*lut.Envelope, sol *lp.Solution) int {
	added := 0
	for _, ai := range bl.arcs {
		v := bl.vars[ai]
		arcD := bl.arcD[ai]
		x0 := arcD[0] / math.Max(bl.directLen[ai], 1)
		for k := range arcD {
			for k2 := k + 1; k2 < len(arcD); k2++ {
				env := envs[[2]int{k, k2}]
				wmin, wmax := env.Bounds(x0)
				// The window gates *changes*: widen the band so the
				// arc's existing ratio stays feasible at Δ=0.
				if arcD[k2] > 1e-6 {
					cur := arcD[k] / arcD[k2]
					if cur > wmax {
						wmax = cur
					}
					if cur < wmin {
						wmin = cur
					}
				}
				num := arcD[k] + v.delta(sol, k)
				den := arcD[k2] + v.delta(sol, k2)
				if den <= 1e-6 {
					continue
				}
				r := num / den
				if r > wmax*(1+1e-6) {
					var idx []int
					var coef []float64
					v.appendDelta(k, 1, &idx, &coef)
					v.appendDelta(k2, -wmax, &idx, &coef)
					bl.prob.AddConstraint(lp.LE, wmax*arcD[k2]-arcD[k], idx, coef)
					added++
				} else if r < wmin*(1-1e-6) {
					var idx []int
					var coef []float64
					v.appendDelta(k, 1, &idx, &coef)
					v.appendDelta(k2, -wmin, &idx, &coef)
					bl.prob.AddConstraint(lp.GE, wmin*arcD[k2]-arcD[k], idx, coef)
					added++
				}
			}
		}
	}
	return added
}

// optimizeBlock solves a block's LP (bl, built on the tree as it is now;
// nil when the block has no timed pair) and realizes the resulting per-arc
// delay changes (detour trims for fine corrections, Algorithm-1 rebuilds
// for coarse ones). It returns the LP stat, the number of changed arcs, the
// accumulated realization error, and the LP solve error if the block's LP
// could not be solved (the block is then a no-op).
func optimizeBlock(tm *sta.Timer, reb *eco.Rebuilder, tree *ctree.Tree, bl *blockLP, envs map[[2]int]*lut.Envelope, cfg GlobalConfig, frac float64) (LPStat, int, float64, int, error) {
	if bl == nil {
		return LPStat{Status: lp.Infeasible}, 0, 0, 0, nil
	}
	sol, stat, err := solveBlock(bl, envs, cfg, frac)
	if sol == nil {
		return stat, 0, 0, 0, err
	}
	rebuilt, selErr, selN := realizeBlock(tm, reb, tree, bl, sol)
	stat.ArcsChanged = rebuilt
	return stat, rebuilt, selErr, selN, nil
}

// realizeBlock realizes the solved per-arc delay changes on tree, which
// must be the tree bl was built on, and returns the number of changed
// arcs, the accumulated realization error and its count.
//
// Realization runs with closed-loop golden feedback: arcs are processed
// top-down, the live tree is re-timed incrementally after every change,
// and each arc's operator (detour trim or Algorithm-1 rebuild) is
// selected against the arc's *live* delay — so cross-arc couplings
// (shared-net loading, slew shifts) are compensated instead of
// accumulating.
//
// An arc edit is rolled back through an undo record of the arc's nodes
// (Top, the interior chain, Bottom), on an edit error as on a rejection,
// and every incremental analysis is released once superseded. bl.a is
// never released: block 0's analysis is reused across rungs.
func realizeBlock(tm *sta.Timer, reb *eco.Rebuilder, tree *ctree.Tree, bl *blockLP, sol *lp.Solution) (int, float64, int) {
	arcs, arcD, vars, seg := bl.arcs, bl.arcD, bl.vars, bl.seg
	directLen, endLoads, external := bl.directLen, bl.endLoads, bl.external
	K := bl.a.K
	rebuilt := 0
	var selErr float64
	selN := 0
	aLive := bl.a
	// supersede makes a the live analysis and releases the one it replaces.
	supersede := func(a *sta.Analysis) {
		if aLive != bl.a {
			aLive.Release()
		}
		aLive = a
	}
	target, live := make([]float64, K), make([]float64, K)
	var undo ctree.Undo
	var arcNodes []ctree.NodeID
	saveArc := func(arc *ctree.Arc) {
		arcNodes = append(append(append(arcNodes[:0], arc.Top), arc.Interior...), arc.Bottom)
		undo.Save(tree, arcNodes...)
	}
	for _, ai := range arcs {
		maxAbs := 0.0
		for k := 0; k < K; k++ {
			delta := vars[ai].delta(sol, k)
			target[k] = arcD[ai][k] + delta
			if d := math.Abs(delta); d > maxAbs {
				maxAbs = d
			}
		}
		if maxAbs < 0.5 || directLen[ai] < 5 || external[ai] {
			continue
		}
		arc := seg.Arcs[ai]
		// Live arc delay (anchors persist across earlier realizations).
		for k := 0; k < K; k++ {
			live[k] = aLive.Delay(k, arc.Top, arc.Bottom)
		}
		var doNothing float64
		for k := 0; k < K; k++ {
			doNothing += math.Abs(live[k] - target[k])
			for k2 := k + 1; k2 < K; k2++ {
				doNothing += math.Abs((live[k] - live[k2]) - (target[k] - target[k2]))
			}
		}
		bestErr := math.Inf(1)
		var trim *eco.TrimSolution
		var rebuildSol *eco.Solution
		// Added snake is capped by the driving net's capacitance budget so
		// the ECO never creates max-load violations.
		trimCap := 0.0
		if drv := tree.Driver(arc.Bottom); drv != ctree.NoNode {
			k0 := tm.Tech.Nominal
			trimCap = (0.97*tm.Tech.MaxLoad - tm.NetLoad(tree, drv, k0)) / tm.Tech.WireC(k0)
		}
		if trimCap > 0.5 {
			if t, err := reb.SelectTrim(tree, arc, live, target, endLoads[ai], trimCap); err == nil {
				bestErr = t.Err
				trim = t
			}
		} else if t, err := reb.SelectTrim(tree, arc, live, target, endLoads[ai], 0.5); err == nil && t.ExtraUM < 0 {
			// No headroom to add wire, but removal is still available.
			bestErr = t.Err
			trim = t
		}
		if maxAbs >= minDeltaPS {
			if s, err := reb.Select(directLen[ai], endLoads[ai], target); err == nil && s.Err < bestErr {
				bestErr = s.Err
				rebuildSol = s
				trim = nil
			}
		}
		if bestErr > 0.8*doNothing {
			continue
		}
		var dirty []ctree.NodeID
		var err error
		saveArc(arc)
		switch {
		case rebuildSol != nil:
			dirty, err = reb.RebuildArc(tree, arc, rebuildSol)
		case trim != nil:
			dirty, err = reb.ApplyTrim(tree, arc, trim.ExtraUM)
		default:
			continue
		}
		if err != nil {
			undo.Restore(tree)
			continue
		}
		aNew := tm.AnalyzeIncremental(tree, aLive, dirty)
		// Per-arc golden gate: the realized arc must actually move toward
		// its target (estimates — especially full rebuilds — carry
		// placement/interpolation noise the selection cannot see).
		var errAfter float64
		for k := 0; k < K; k++ {
			l := aNew.Delay(k, arc.Top, arc.Bottom)
			errAfter += math.Abs(l - target[k])
			for k2 := k + 1; k2 < K; k2++ {
				l2 := aNew.Delay(k2, arc.Top, arc.Bottom)
				errAfter += math.Abs((l - l2) - (target[k] - target[k2]))
			}
		}
		if errAfter > 0.9*doNothing {
			undo.Restore(tree)
			aNew.Release()
			continue
		}
		supersede(aNew)
		rebuilt++
		selErr += bestErr
		selN++
	}
	// Refinement sweeps: first-pass realizations shift sibling arcs (shared
	// nets, slews), and skipped arcs break the LP's coordinated pair
	// balance. Re-trim every arc toward its target from the live state
	// until the residuals stop improving.
	for pass := 0; pass < 2; pass++ {
		changed := 0
		for _, ai := range arcs {
			if external[ai] || directLen[ai] < 5 {
				continue
			}
			arc := seg.Arcs[ai]
			for k := 0; k < K; k++ {
				target[k] = arcD[ai][k] + vars[ai].delta(sol, k)
			}
			for k := 0; k < K; k++ {
				live[k] = aLive.Delay(k, arc.Top, arc.Bottom)
			}
			trimCap := 0.0
			if drv := tree.Driver(arc.Bottom); drv != ctree.NoNode {
				k0 := tm.Tech.Nominal
				trimCap = (0.97*tm.Tech.MaxLoad - tm.NetLoad(tree, drv, k0)) / tm.Tech.WireC(k0)
			}
			if trimCap < 0.5 {
				trimCap = 0.5 // still allows snake removal
			}
			t, err := reb.SelectTrim(tree, arc, live, target, endLoads[ai], trimCap)
			if err != nil {
				continue
			}
			saveArc(arc)
			dirty, err := reb.ApplyTrim(tree, arc, t.ExtraUM)
			if err != nil {
				undo.Restore(tree)
				continue
			}
			supersede(tm.AnalyzeIncremental(tree, aLive, dirty))
			changed++
		}
		if changed == 0 {
			break
		}
	}
	supersede(nil) // releases the last live analysis
	return rebuilt, selErr, selN
}

func sortedKeys(m map[int]int) []int {
	out := make([]int, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Ints(out)
	return out
}

// rebuildEndLoad is the load an arc's bottom anchor presents to a rebuilt
// arc: a sink's pin cap, a buffer's input cap, or for a branch tap the
// summed pin caps of its fanout (3 fF when that sum is zero).
func rebuildEndLoad(tm *sta.Timer, tree *ctree.Tree, bottom ctree.NodeID) float64 {
	n := tree.Node(bottom)
	switch n.Kind {
	case ctree.KindSink:
		return tm.Tech.SinkCap
	case ctree.KindBuffer, ctree.KindSource:
		if c := tm.Tech.CellByName(n.CellName); c != nil {
			return c.InCap
		}
	}
	var load float64
	for _, p := range tree.FanoutPins(bottom) {
		pn := tree.Node(p)
		if pn.Kind == ctree.KindSink {
			load += tm.Tech.SinkCap
		} else if c := tm.Tech.CellByName(pn.CellName); c != nil {
			load += c.InCap
		}
	}
	if load == 0 {
		load = 3
	}
	return load
}
