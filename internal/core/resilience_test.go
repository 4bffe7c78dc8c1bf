package core

import (
	"context"
	"errors"
	"math"
	"os"
	"path/filepath"
	"testing"

	"skewvar/internal/ctree"
	"skewvar/internal/faults"
	"skewvar/internal/resilience"
	"skewvar/internal/sta"
)

// fastFlowConfig returns a flow configuration small enough for fault-matrix
// runs while still exercising every stage.
func fastFlowConfig() FlowConfig {
	return FlowConfig{
		TopPairs: 100,
		Global: GlobalConfig{
			MaxPairsPerLP: 40, MaxArcsPerLP: 80, USweep: []float64{0.8},
		},
		Local: LocalConfig{MaxIters: 3, MaxMoves: 400, Seed: 11},
	}
}

// TestFaultClassesDegradeGracefully is the acceptance matrix of the
// robustness tentpole: for every fault class the injector supports, the flow
// must finish without a panic, return a non-nil result whose trees are no
// worse than the original under the objective, and report Degraded with the
// fault counted.
func TestFaultClassesDegradeGracefully(t *testing.T) {
	if testing.Short() {
		t.Skip("fault matrix in short mode")
	}
	d, tm := smallDesign(t, 100)
	_, ch := testTech(t)
	model := cheapModel(t, tm.Tech)
	ckpt := filepath.Join(t.TempDir(), "faulty.ckpt")

	cases := []struct {
		name string
		arm  func(in *faults.Injector)
	}{
		{"lp-solve", func(in *faults.Injector) { in.Arm(faults.LPSolve, faults.Spec{}) }},
		{"nan-delay", func(in *faults.Injector) { in.Arm(faults.NaNDelay, faults.Spec{}) }},
		{"move-apply", func(in *faults.Injector) { in.Arm(faults.MoveApply, faults.Spec{}) }},
		{"checkpoint-write", func(in *faults.Injector) { in.Arm(faults.CheckpointWrite, faults.Spec{}) }},
		{"everything-half", func(in *faults.Injector) {
			for _, h := range faults.Hooks {
				in.Arm(h, faults.Spec{Prob: 0.5})
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			in := faults.New(42)
			tc.arm(in)
			cfg := fastFlowConfig()
			cfg.Faults = in
			cfg.Checkpoint = CheckpointConfig{Path: ckpt}
			res, err := RunFlows(context.Background(), tm, ch, d, model, cfg)
			if err != nil {
				t.Fatalf("flow aborted: %v", err)
			}
			if res == nil {
				t.Fatal("nil result")
			}
			if !res.Degraded {
				t.Error("Degraded not set despite injected faults")
			}
			if len(res.Faults) == 0 {
				t.Error("no fault counts reported")
			}
			for _, stage := range FlowStages {
				m := map[string]Metrics{
					"global": res.Global, "local": res.Local, "global-local": res.GLocal,
				}[stage]
				if m.SumVarPS > res.Orig.SumVarPS+1e-6 {
					t.Errorf("stage %s worse than original: %v > %v", stage, m.SumVarPS, res.Orig.SumVarPS)
				}
				if tr := res.Trees[stage]; tr == nil {
					t.Errorf("stage %s has no tree", stage)
				} else if err := tr.Validate(); err != nil {
					t.Errorf("stage %s tree invalid: %v", stage, err)
				}
			}
		})
	}
}

func TestRunFlowsCancellation(t *testing.T) {
	d, tm := smallDesign(t, 100)
	_, ch := testTech(t)
	model := cheapModel(t, tm.Tech)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := RunFlows(ctx, tm, ch, d, model, fastFlowConfig())
	if !errors.Is(err, resilience.ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	if res == nil {
		t.Fatal("canceled flow returned no result")
	}
	if res.Orig.SumVarPS <= 0 {
		t.Error("original metrics missing from canceled result")
	}
}

func TestLocalOptCancelReturnsBestSoFar(t *testing.T) {
	d, tm := smallDesign(t, 100)
	model := cheapModel(t, tm.Tech)
	a0 := tm.Analyze(d.Tree)
	pairs := d.TopPairs(0)
	alphas := sta.Alphas(a0, pairs)
	ctx, cancel := context.WithCancel(context.Background())
	iters := 0
	res, err := LocalOpt(ctx, tm, d, alphas, LocalConfig{
		Model: model, MaxIters: 10, MaxMoves: 400, Seed: 5,
		OnIter: func(iter int, _ *ctree.Tree) {
			iters = iter
			if iter >= 2 {
				cancel()
			}
		},
	})
	if !errors.Is(err, resilience.ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	if res == nil || res.Tree == nil {
		t.Fatal("no best-so-far result")
	}
	if res.SumVar > res.SumVar0+1e-9 {
		t.Errorf("canceled result worse than original: %v > %v", res.SumVar, res.SumVar0)
	}
	// Cancellation hits the next iteration boundary, not several later.
	if iters > 3 {
		t.Errorf("ran %d iterations after cancel at 2", iters)
	}
}

func TestGlobalOptBudgetHalving(t *testing.T) {
	d, tm := smallDesign(t, 100)
	_, ch := testTech(t)
	a0 := tm.Analyze(d.Tree)
	pairs := d.TopPairs(0)
	alphas := sta.Alphas(a0, pairs)
	// The first sweep's block solve fails; the retry at the halved budget
	// runs clean.
	in := faults.New(1).Arm(faults.LPSolve, faults.Spec{First: 1})
	rec := resilience.NewRecorder()
	res, err := GlobalOpt(context.Background(), tm, ch, d, alphas, GlobalConfig{
		TopPairs: 80, MaxPairsPerLP: 64, MaxArcsPerLP: 80,
		USweep: []float64{0.8},
		Faults: in, Rec: rec,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Degraded {
		t.Error("Degraded not set after LP failure")
	}
	if res.PairBudget >= 64 {
		t.Errorf("pair budget not halved: %d", res.PairBudget)
	}
	if res.SumVar > res.SumVar0+1e-9 {
		t.Errorf("degraded run worse than original: %v > %v", res.SumVar, res.SumVar0)
	}
	c := rec.Counts()
	if c["lp-solve"] == 0 || c["lp-budget-halved"] == 0 {
		t.Errorf("fault counts missing: %v", c)
	}
}

func TestCheckpointSaveLoadRoundTrip(t *testing.T) {
	d, _ := smallDesign(t, 100)
	path := filepath.Join(t.TempDir(), "cp.json")
	cp := &Checkpoint{
		Stage: "local", Iter: 3, Done: []string{"global"},
		Trees: map[string]*ctree.Tree{"global": d.Tree, "partial": d.Tree.Clone()},
	}
	if err := SaveCheckpoint(context.Background(), path, d, cp, nil); err != nil {
		t.Fatal(err)
	}
	got, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Stage != "local" || got.Iter != 3 || len(got.Done) != 1 || got.Done[0] != "global" {
		t.Fatalf("state = %+v", got)
	}
	for _, name := range []string{"global", "partial"} {
		tr := got.Trees[name]
		if tr == nil {
			t.Fatalf("tree %q missing", name)
		}
		if tr.NumNodes() != d.Tree.NumNodes() {
			t.Errorf("tree %q: %d nodes, want %d", name, tr.NumNodes(), d.Tree.NumNodes())
		}
	}
	// Injected write failures exhaust retries into a typed error.
	in := faults.New(1).Arm(faults.CheckpointWrite, faults.Spec{})
	err = SaveCheckpoint(context.Background(), path, d, cp, in)
	if !errors.Is(err, resilience.ErrCheckpoint) {
		t.Fatalf("err = %v, want ErrCheckpoint", err)
	}
	// The earlier checkpoint survives the failed overwrite.
	if _, err := LoadCheckpoint(path); err != nil {
		t.Fatalf("checkpoint damaged by failed write: %v", err)
	}
	// Transient failures are retried through.
	in2 := faults.New(1).Arm(faults.CheckpointWrite, faults.Spec{First: 2})
	if err := SaveCheckpoint(context.Background(), path, d, cp, in2); err != nil {
		t.Fatalf("transient write failure not retried: %v", err)
	}
	if _, err := LoadCheckpoint(filepath.Join(t.TempDir(), "missing.json")); !errors.Is(err, resilience.ErrCheckpoint) {
		t.Errorf("missing file: err = %v", err)
	}
}

// TestCheckpointResumeMatchesUninterrupted interrupts a local flow
// mid-stage, resumes it from the checkpoint, and requires the resumed
// result to match the uninterrupted run within 1%.
func TestCheckpointResumeMatchesUninterrupted(t *testing.T) {
	if testing.Short() {
		t.Skip("resume comparison in short mode")
	}
	d, tm := smallDesign(t, 100)
	_, ch := testTech(t)
	model := cheapModel(t, tm.Tech)

	base := FlowConfig{
		TopPairs: 100,
		Local:    LocalConfig{MaxIters: 6, MaxMoves: 400, Seed: 11},
		Only:     []string{"local"},
	}

	// Reference: uninterrupted.
	ref, err := RunFlows(context.Background(), tm, ch, d, model, base)
	if err != nil {
		t.Fatal(err)
	}

	// Interrupted after 2 iterations, checkpointing every iteration.
	ckpt := filepath.Join(t.TempDir(), "resume.ckpt")
	ctx, cancel := context.WithCancel(context.Background())
	icfg := base
	icfg.Checkpoint = CheckpointConfig{Path: ckpt, EveryIters: 1}
	icfg.Local.OnIter = func(iter int, _ *ctree.Tree) {
		if iter >= 2 {
			cancel()
		}
	}
	_, err = RunFlows(ctx, tm, ch, d, model, icfg)
	if !errors.Is(err, resilience.ErrCanceled) {
		t.Fatalf("interrupted run: err = %v, want ErrCanceled", err)
	}

	cp, err := LoadCheckpoint(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	if cp.Stage != "local" || cp.Trees["partial"] == nil {
		t.Fatalf("checkpoint missing partial local state: %+v", cp)
	}

	// Resume to completion.
	rcfg := base
	rcfg.Resume = cp
	res, err := RunFlows(context.Background(), tm, ch, d, model, rcfg)
	if err != nil {
		t.Fatal(err)
	}
	if diff := math.Abs(res.Local.SumVarPS - ref.Local.SumVarPS); diff > 0.01*ref.Local.SumVarPS {
		t.Errorf("resumed ΣV %.2f differs from uninterrupted %.2f by more than 1%%",
			res.Local.SumVarPS, ref.Local.SumVarPS)
	}
}

// TestRunFlowsStageSubset checks Only: a single-stage run produces that
// stage (plus global when it feeds global-local) and nothing else.
func TestRunFlowsStageSubset(t *testing.T) {
	d, tm := smallDesign(t, 100)
	_, ch := testTech(t)
	model := cheapModel(t, tm.Tech)
	cfg := fastFlowConfig()
	cfg.Only = []string{"local"}
	res, err := RunFlows(context.Background(), tm, ch, d, model, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Trees["local"] == nil {
		t.Error("local tree missing")
	}
	if res.Trees["global"] != nil || res.Trees["global-local"] != nil {
		t.Error("unrequested stages ran")
	}
	cfg.Only = []string{"bogus"}
	if _, err := RunFlows(context.Background(), tm, ch, d, model, cfg); err == nil {
		t.Error("unknown stage name accepted")
	}
}

// cancelAfterCalls is a context whose Err reports cancellation from its
// limit-th call on. With Workers=1 every cancellation check LocalOpt makes
// is one call, so a limit lands the cancellation at an exact point.
type cancelAfterCalls struct {
	context.Context
	calls, limit int
}

func (c *cancelAfterCalls) Err() error {
	c.calls++
	if c.calls >= c.limit {
		return context.Canceled
	}
	return nil
}

// TestLocalOptCancelMidBatchKeepsIteration cancels LocalOpt between two
// golden trials of its first batch. The cut-short batch must neither
// accept a move nor report its iteration complete, so a resume from the
// last reported iteration replays it and lands on the uninterrupted result.
func TestLocalOptCancelMidBatchKeepsIteration(t *testing.T) {
	d, tm := smallDesign(t, 100)
	model := cheapModel(t, tm.Tech)
	pairs := d.TopPairs(0)
	alphas := sta.Alphas(tm.Analyze(d.Tree), pairs)
	cfg := LocalConfig{Model: model, MaxIters: 2, MaxMoves: 400, Seed: 5, Workers: 1}
	ref, err := LocalOpt(context.Background(), tm, d, alphas, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(ref.Records) == 0 || ref.Records[0].Iter != 0 {
		t.Fatalf("uninterrupted run accepted nothing in iteration 0 (%+v); no batch to cut", ref.Records)
	}
	// Iteration 0 checks the context on entry, once per predicted move,
	// after predicting, and before each trial: cancel before its third.
	probe := cfg
	probe.MaxIters = 1
	p, err := LocalOpt(context.Background(), tm, d, alphas, probe)
	if err != nil {
		t.Fatal(err)
	}
	reported := 0
	cut := cfg
	cut.OnIter = func(iter int, _ *ctree.Tree) { reported = iter }
	res, err := LocalOpt(&cancelAfterCalls{Context: context.Background(), limit: p.MovesPred + 5}, tm, d, alphas, cut)
	if !errors.Is(err, resilience.ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	if reported != 0 || len(res.Records) != 0 {
		t.Fatalf("iteration cut mid-batch was reported complete (iteration %d, %d moves accepted)", reported, len(res.Records))
	}
	rd := d.Clone()
	rd.Tree = res.Tree
	resumed := cfg
	resumed.StartIter = reported
	got, err := LocalOpt(context.Background(), tm, rd, alphas, resumed)
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(got.SumVar) != math.Float64bits(ref.SumVar) {
		t.Errorf("resumed ΣV %v, uninterrupted %v", got.SumVar, ref.SumVar)
	}
}

// TestRunFlowsAbandonedSavesNoCheckpoint cancels a checkpointing flow at an
// iteration boundary. A plain cancellation saves a checkpoint there for a
// resume; one whose cause is ErrAbandoned — a simulated crash — leaves the
// checkpoint as a killed process would, here absent since iteration
// checkpoints are off.
func TestRunFlowsAbandonedSavesNoCheckpoint(t *testing.T) {
	d, tm := smallDesign(t, 100)
	_, ch := testTech(t)
	model := cheapModel(t, tm.Tech)
	for _, cause := range []error{nil, ErrAbandoned} {
		ckpt := filepath.Join(t.TempDir(), "flow.ckpt")
		ctx, cancel := context.WithCancelCause(context.Background())
		cfg := FlowConfig{
			TopPairs:   100,
			Local:      LocalConfig{MaxIters: 6, MaxMoves: 400, Seed: 11},
			Only:       []string{"local"},
			Checkpoint: CheckpointConfig{Path: ckpt, EveryIters: 1000},
		}
		cfg.Local.OnIter = func(iter int, _ *ctree.Tree) {
			if iter >= 1 {
				cancel(cause)
			}
		}
		if _, err := RunFlows(ctx, tm, ch, d, model, cfg); !errors.Is(err, resilience.ErrCanceled) {
			t.Fatalf("cause %v: err = %v, want ErrCanceled", cause, err)
		}
		_, statErr := os.Stat(ckpt)
		if saved := statErr == nil; saved != (cause == nil) {
			t.Errorf("cause %v: checkpoint saved = %v, want %v", cause, saved, cause == nil)
		}
	}
}
