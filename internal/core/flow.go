package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"

	"skewvar/internal/ctree"
	"skewvar/internal/faults"
	"skewvar/internal/lut"
	"skewvar/internal/obs"
	"skewvar/internal/power"
	"skewvar/internal/resilience"
	"skewvar/internal/sta"
)

// Metrics is one Table-5 row fragment for one tree under one flow.
type Metrics struct {
	SumVarPS float64   // Σ of per-pair max normalized skew variation
	Norm     float64   // SumVarPS / original SumVarPS
	SkewPS   []float64 // local skew per corner
	NumCells int
	PowerMW  float64
	AreaUM2  float64
}

// Snapshot measures a tree against the design's pair set.
func Snapshot(tm *sta.Timer, tr *ctree.Tree, pairs []ctree.SinkPair, alphas []float64) Metrics {
	a := tm.Analyze(tr)
	m := Metrics{SumVarPS: sta.SumVariation(a, alphas, pairs), SkewPS: localSkews(a, pairs)}
	pr := power.Analyze(tm.Tech, tr)
	m.NumCells = pr.NumCells
	m.PowerMW = pr.PowerMW
	m.AreaUM2 = pr.AreaUM2
	return m
}

// FlowStages lists the paper's three optimization flows in run order.
var FlowStages = []string{"global", "local", "global-local"}

// FlowConfig drives RunFlows.
type FlowConfig struct {
	TopPairs int // pairs in the reported objective (0 = all)
	Global   GlobalConfig
	Local    LocalConfig

	// Only restricts RunFlows to a subset of FlowStages (nil = all three).
	// "global-local" implies the global stage runs as its input even when
	// "global" itself is not requested.
	Only []string

	// Workers sizes the local stage's move pool: its concurrent predictor
	// scoring and golden trials (cmd/skewopt's -j flag). The timer is
	// serial. 0 = runtime.GOMAXPROCS(0); 1 = the exact serial path.
	// Results — FlowResult metrics and checkpoint bytes — are identical at
	// any setting. RunFlows sets LocalConfig.Workers to it.
	Workers int

	// Faults is an optional deterministic fault injector threaded into every
	// stage (nil = no injection). RunFlows sets both stage configs' Faults
	// to it and their Rec to the flow's own recorder, whose counts become
	// FlowResult.Faults.
	Faults *faults.Injector

	// Checkpoint enables periodic checkpointing; Resume restarts from a
	// checkpoint loaded with LoadCheckpoint.
	Checkpoint CheckpointConfig
	Resume     *Checkpoint

	// Obs, when non-nil, receives the run's trace (flow/flow.stage spans,
	// checkpoint and fault events, plus the stage-level spans of GlobalOpt,
	// LocalOpt, and the timer) and metrics (docs/OBSERVABILITY.md). It is
	// installed on the timer and set on both stage configs. Nil (the
	// default) keeps every instrumentation site a no-op.
	Obs *obs.Recorder

	// Logf receives degradation warnings (nil = silent).
	Logf func(format string, args ...interface{})
}

// FlowResult bundles the four Table-5 flows for one testcase.
type FlowResult struct {
	Alphas []float64
	Pairs  int
	Orig   Metrics
	Global Metrics
	Local  Metrics
	GLocal Metrics
	Trees  map[string]*ctree.Tree
	GRes   *GlobalResult
	LRes   *LocalResult // standalone local
	GLRes  *LocalResult // local after global

	// Degraded reports that at least one fault was absorbed on the way to
	// this result (a stage fell back, an LP retried at a reduced budget, a
	// checkpoint write failed, a move was skipped). Faults holds the
	// per-class counts.
	Degraded bool
	Faults   map[string]int
}

// ErrAbandoned, as the cause a flow's context is canceled with
// (context.WithCancelCause), stops RunFlows the way a killed process
// stops: no checkpoint is saved from that instant on, including the one a
// plain cancellation saves at its boundary for a later resume.
var ErrAbandoned = errors.New("core: flow abandoned")

// RunFlows executes the paper's three optimization flows (§5.2) against the
// original tree: global alone, local alone, and global followed by local.
// Normalization factors αk are measured once on the original tree and held
// fixed, as in the paper.
//
// Robustness contract: a canceled context stops the flow at the next
// LP-solve or local-iteration boundary and returns the best-so-far result
// alongside a wrapped resilience.ErrCanceled, checkpointed for a resume
// unless the cancellation's cause is ErrAbandoned. Stage failures (solver
// errors, recovered panics) never abort the run — the failing stage falls
// back to its input tree, the fault is counted, and Degraded is set; the
// returned tree is never worse than the original under the reported
// objective.
func RunFlows(ctx context.Context, tm *sta.Timer, ch *lut.Char, d *ctree.Design, model StageModel, cfg FlowConfig) (*FlowResult, error) {
	pairs := d.TopPairs(cfg.TopPairs)
	if len(pairs) == 0 {
		return nil, fmt.Errorf("core: design has no sink pairs: %w", resilience.ErrInvalidDesign)
	}
	stages := cfg.Only
	if len(stages) == 0 {
		stages = FlowStages
	}
	want := map[string]bool{}
	for _, s := range stages {
		switch s {
		case "global", "local", "global-local":
			want[s] = true
		default:
			return nil, fmt.Errorf("core: unknown flow stage %q: %w", s, resilience.ErrInvalidDesign)
		}
	}
	logf := cfg.Logf
	if logf == nil {
		logf = func(string, ...interface{}) {}
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if cfg.Obs != nil {
		tm.Obs = cfg.Obs
	}

	var fsp *obs.Span
	if cfg.Obs != nil {
		// The worker count is a gauge, not a span attr: the canonical trace
		// must be byte-identical across -j settings.
		cfg.Obs.Gauge("flow.workers").Set(float64(workers))
		fsp = cfg.Obs.StartSpan("flow",
			obs.S("stages", strings.Join(stages, ",")),
			obs.I("pairs", len(pairs)))
		// Injected faults become trace events. Decisions are pre-drawn
		// serially (see LocalOpt) and the per-hook call indices advance
		// deterministically, so the event stream is identical at any -j.
		cfg.Faults.SetObserver(func(hook string, call int) {
			fsp.Event("fault.injected", obs.S("hook", hook), obs.I("call", call))
		})
		defer cfg.Faults.SetObserver(nil)
	}

	rec := resilience.NewRecorder()
	a0 := tm.Analyze(d.Tree)
	alphas := sta.Alphas(a0, pairs)

	res := &FlowResult{Alphas: alphas, Pairs: len(pairs), Trees: map[string]*ctree.Tree{}}
	res.Orig = Snapshot(tm, d.Tree, pairs, alphas)
	res.Orig.Norm = 1
	res.Trees["orig"] = d.Tree

	finish := func(err error) (*FlowResult, error) {
		res.Faults = rec.Counts()
		res.Degraded = rec.Total() > 0
		if cfg.Obs != nil {
			// Terminal gauges. Cache traffic is exact but schedule-dependent
			// under concurrent trials, so it lives here in the metrics
			// snapshot and never in the trace (docs/PARALLELISM.md).
			cs := tm.CacheStats()
			cfg.Obs.Gauge("sta.net_cache.hits").Set(float64(cs.Hits))
			cfg.Obs.Gauge("sta.net_cache.misses").Set(float64(cs.Misses))
			cfg.Obs.Gauge("sta.net_cache.evictions").Set(float64(cs.Evictions))
			cfg.Obs.Gauge("sta.net_cache.hit_rate").Set(cs.HitRate())
			if tried := cfg.Obs.Counter("local.moves.tried").Value(); tried > 0 {
				acc := cfg.Obs.Counter("local.moves.accepted").Value()
				cfg.Obs.Gauge("local.move_accept_rate").Set(float64(acc) / float64(tried))
			}
			fsp.End()
		}
		return res, err
	}
	snap := func(tr *ctree.Tree) Metrics {
		m := Snapshot(tm, tr, pairs, alphas)
		m.Norm = m.SumVarPS / res.Orig.SumVarPS
		return m
	}

	// Resume state.
	doneTrees := map[string]*ctree.Tree{}
	resumeStage := ""
	resumeIter := 0
	var partial *ctree.Tree
	if cfg.Resume != nil {
		for _, s := range cfg.Resume.Done {
			if t := cfg.Resume.Trees[s]; t != nil {
				doneTrees[s] = t
			}
		}
		resumeStage = cfg.Resume.Stage
		resumeIter = cfg.Resume.Iter
		partial = cfg.Resume.Trees["partial"]
	}

	var completed []string
	save := func(stage string, iter int, partialTree *ctree.Tree) {
		if cfg.Checkpoint.Path == "" || errors.Is(context.Cause(ctx), ErrAbandoned) {
			return
		}
		cp := &Checkpoint{Stage: stage, Iter: iter, Done: completed, Trees: map[string]*ctree.Tree{}}
		for _, s := range completed {
			cp.Trees[s] = res.Trees[s]
		}
		if partialTree != nil {
			cp.Trees["partial"] = partialTree
		}
		// Saves run under a fresh context: the most important checkpoint is
		// the one written after cancellation, and it must not be vetoed by
		// the very deadline it is rescuing progress from.
		// Checkpoint events carry the stage/iter but never the path: the
		// canonical trace must compare across runs in different directories.
		if err := SaveCheckpoint(context.Background(), cfg.Checkpoint.Path, d, cp, cfg.Faults); err != nil {
			rec.Record("checkpoint-write")
			logf("warning: checkpoint save failed: %v", err)
			if fsp != nil {
				fsp.Event("flow.checkpoint.failed", obs.S("stage", stage), obs.I("iter", iter))
			}
			return
		}
		if fsp != nil {
			fsp.Event("flow.checkpoint.saved", obs.S("stage", stage), obs.I("iter", iter))
		}
	}
	every := cfg.Checkpoint.EveryIters
	if every <= 0 {
		every = 1
	}

	gcfg := cfg.Global
	gcfg.TopPairs = cfg.TopPairs
	gcfg.Faults, gcfg.Rec, gcfg.Obs = cfg.Faults, rec, cfg.Obs
	lcfg := cfg.Local
	lcfg.Model = model
	lcfg.TopPairs = cfg.TopPairs
	lcfg.Faults, lcfg.Rec, lcfg.Obs = cfg.Faults, rec, cfg.Obs
	lcfg.Workers = workers

	// runLocal runs one local stage on base with mid-stage checkpointing
	// and resume. It returns the stage's tree, if any, and the last
	// completed iteration for the cancellation save.
	runLocal := func(stage string, base *ctree.Design, lres **LocalResult) (*ctree.Tree, int, error) {
		lc := lcfg
		lastIter := 0
		userOnIter := lcfg.OnIter
		lc.OnIter = func(iter int, tree *ctree.Tree) {
			lastIter = iter
			if cfg.Checkpoint.Path != "" && iter%every == 0 {
				save(stage, iter, tree)
			}
			if userOnIter != nil {
				userOnIter(iter, tree)
			}
		}
		if resumeStage == stage && partial != nil {
			base = base.Clone()
			base.Tree = partial.Clone()
			lc.StartIter = resumeIter
			lastIter = resumeIter
		}
		var err error
		if *lres, err = LocalOpt(ctx, tm, base, alphas, lc); *lres == nil {
			return nil, lastIter, err
		}
		return (*lres).Tree, lastIter, err
	}

	// runStage restores a stage from the resume checkpoint, or runs it
	// and, if it fails, falls back to in, the stage's input tree; then it
	// snapshots the stage's tree into m and checkpoints the stage as
	// completed. run returns the tree the stage produced (nil if none) and
	// its last completed local iteration; keep records the stage's result.
	// A canceled stage keeps what it produced and returns the
	// cancellation, on which the flow stops.
	runStage := func(stage string, in *ctree.Tree, m *Metrics, run func() (*ctree.Tree, int, error), keep func()) (*ctree.Tree, error) {
		ssp := fsp.StartChild("flow.stage", obs.S("stage", stage))
		defer ssp.End()
		out, restored := doneTrees[stage]
		// A restored global stage reports itself before its snapshot, a
		// restored local stage after it.
		if restored && stage == "global" {
			ssp.Event("flow.stage.restored", obs.S("stage", stage))
		}
		if !restored {
			var tree *ctree.Tree
			var lastIter int
			err := resilience.Safely(stage+" stage", func() error {
				var e error
				tree, lastIter, e = run()
				return e
			})
			switch {
			case errors.Is(err, resilience.ErrCanceled):
				if tree != nil {
					keep()
					res.Trees[stage] = tree
					*m = snap(tree)
					// The global stage checkpoints only at its end.
					if stage != "global" {
						save(stage, lastIter, tree)
					}
				}
				return nil, err
			case err != nil:
				rec.Record("stage-fallback")
				ssp.Event("flow.stage.fallback", obs.S("stage", stage))
				logf("warning: %s stage failed (%v); keeping its input tree", stage, err)
				out = in
			default:
				keep()
				out = tree
			}
		}
		res.Trees[stage] = out
		*m = snap(out)
		if restored && stage != "global" {
			ssp.Event("flow.stage.restored", obs.S("stage", stage))
		}
		completed = append(completed, stage)
		save("", 0, nil)
		return out, nil
	}

	// Global stage — also the input of global-local.
	globalTree := d.Tree
	if want["global"] || want["global-local"] {
		var gres *GlobalResult
		run := func() (*ctree.Tree, int, error) {
			var err error
			if gres, err = GlobalOpt(ctx, tm, ch, d, alphas, gcfg); gres == nil {
				return nil, 0, err
			}
			return gres.Tree, 0, err
		}
		var err error
		if globalTree, err = runStage("global", d.Tree, &res.Global, run, func() { res.GRes = gres }); err != nil {
			return finish(err)
		}
	}

	// Local alone.
	if want["local"] {
		var lres *LocalResult
		run := func() (*ctree.Tree, int, error) { return runLocal("local", d, &lres) }
		if _, err := runStage("local", d.Tree, &res.Local, run, func() { res.LRes = lres }); err != nil {
			return finish(err)
		}
	}

	// Global then local.
	if want["global-local"] {
		var glres *LocalResult
		run := func() (*ctree.Tree, int, error) {
			dg := d.Clone()
			dg.Tree = globalTree.Clone()
			return runLocal("global-local", dg, &glres)
		}
		if _, err := runStage("global-local", globalTree, &res.GLocal, run, func() { res.GLRes = glres }); err != nil {
			return finish(err)
		}
	}
	return finish(nil)
}
