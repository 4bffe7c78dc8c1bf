package core

import (
	"bytes"
	"context"
	"errors"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"

	"skewvar/internal/ctree"
	"skewvar/internal/eco"
	"skewvar/internal/faults"
	"skewvar/internal/legalize"
	"skewvar/internal/resilience"
	"skewvar/internal/route"
	"skewvar/internal/sta"
	"skewvar/internal/tech"
	"skewvar/internal/testgen"
)

// TestRunFlowsWorkerCountEquivalence is the flow-level half of the
// determinism contract: a fixed-seed run must produce identical FlowResult
// metrics and byte-identical checkpoints at every worker count.
func TestRunFlowsWorkerCountEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("worker-count equivalence sweep in short mode")
	}
	sweep := []int{1, 2, runtime.GOMAXPROCS(0)}
	if sweep[2] <= 2 {
		sweep[2] = 4
	}
	type outcome struct {
		alphas                      []float64
		orig, global, local, glocal Metrics
		ckpt                        []byte
	}
	var ref *outcome
	for _, j := range sweep {
		d, tm := smallDesign(t, 100)
		_, ch := testTech(t)
		model := cheapModel(t, tm.Tech)
		ckpt := filepath.Join(t.TempDir(), "eq.ckpt")
		cfg := fastFlowConfig()
		cfg.Workers = j
		cfg.Checkpoint = CheckpointConfig{Path: ckpt, EveryIters: 1}
		res, err := RunFlows(context.Background(), tm, ch, d, model, cfg)
		if err != nil {
			t.Fatalf("j=%d: %v", j, err)
		}
		raw, err := os.ReadFile(ckpt)
		if err != nil {
			t.Fatalf("j=%d: reading checkpoint: %v", j, err)
		}
		got := &outcome{res.Alphas, res.Orig, res.Global, res.Local, res.GLocal, raw}
		if ref == nil {
			ref = got
			continue
		}
		if !reflect.DeepEqual(ref.alphas, got.alphas) {
			t.Errorf("j=%d: alphas differ: %v vs %v", j, got.alphas, ref.alphas)
		}
		for name, pair := range map[string][2]Metrics{
			"orig":         {ref.orig, got.orig},
			"global":       {ref.global, got.global},
			"local":        {ref.local, got.local},
			"global-local": {ref.glocal, got.glocal},
		} {
			if !reflect.DeepEqual(pair[0], pair[1]) {
				t.Errorf("j=%d: %s metrics differ:\n serial %+v\n parallel %+v",
					j, name, pair[0], pair[1])
			}
		}
		if !bytes.Equal(ref.ckpt, got.ckpt) {
			t.Errorf("j=%d: checkpoint bytes differ from the serial run (%d vs %d bytes)",
				j, len(got.ckpt), len(ref.ckpt))
		}
	}
}

// TestLocalOptParallelTrialsDeterministic pins the concurrent trial reducer:
// the same seed must pick the same winners — and therefore produce the same
// tree, ΣV trajectory and move counts — at 1 and 8 workers.
func TestLocalOptParallelTrialsDeterministic(t *testing.T) {
	run := func(workers int) *LocalResult {
		d, tm := smallDesign(t, 100)
		model := cheapModel(t, tm.Tech)
		a0 := tm.Analyze(d.Tree)
		pairs := d.TopPairs(0)
		res, err := LocalOpt(context.Background(), tm, d, sta.Alphas(a0, pairs), LocalConfig{
			Model: model, MaxIters: 4, MaxMoves: 400, Seed: 11, Workers: workers,
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return res
	}
	serial, parallel := run(1), run(8)
	if serial.SumVar != parallel.SumVar || serial.SumVar0 != parallel.SumVar0 {
		t.Errorf("ΣV differs: serial %v/%v, parallel %v/%v",
			serial.SumVar0, serial.SumVar, parallel.SumVar0, parallel.SumVar)
	}
	if serial.MovesTried != parallel.MovesTried || serial.MovesPred != parallel.MovesPred {
		t.Errorf("move counts differ: serial %d/%d, parallel %d/%d",
			serial.MovesTried, serial.MovesPred, parallel.MovesTried, parallel.MovesPred)
	}
	if !reflect.DeepEqual(serial.Records, parallel.Records) {
		t.Errorf("iteration records differ:\n serial %+v\n parallel %+v",
			serial.Records, parallel.Records)
	}
	if serial.Tree.NumNodes() != parallel.Tree.NumNodes() {
		t.Fatal("trees differ in node count")
	}
	for i := range serial.Tree.Nodes {
		a, b := serial.Tree.Nodes[i], parallel.Tree.Nodes[i]
		if (a == nil) != (b == nil) {
			t.Fatalf("node %d liveness differs", i)
		}
		if a == nil {
			continue
		}
		if !a.Loc.Eq(b.Loc) || a.Parent != b.Parent || a.CellName != b.CellName ||
			a.Detour != b.Detour {
			t.Fatalf("node %d differs between worker counts", i)
		}
	}
}

// TestCancelMidParallelIteration cancels a flow while its local stage is
// running concurrent trials: the pool must drain, the flow must stop at the
// iteration boundary with ErrCanceled, and the best-so-far tree must
// survive.
func TestCancelMidParallelIteration(t *testing.T) {
	d, tm := smallDesign(t, 100)
	_, ch := testTech(t)
	model := cheapModel(t, tm.Tech)
	ctx, cancel := context.WithCancel(context.Background())
	cfg := fastFlowConfig()
	cfg.Only = []string{"local"}
	cfg.Workers = 4
	cfg.Local.MaxIters = 10
	cfg.Local.OnIter = func(iter int, _ *ctree.Tree) {
		if iter >= 1 {
			cancel()
		}
	}
	res, err := RunFlows(ctx, tm, ch, d, model, cfg)
	if !errors.Is(err, resilience.ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	if res == nil {
		t.Fatal("canceled flow returned no result")
	}
	if tr := res.Trees["local"]; tr != nil {
		if err := tr.Validate(); err != nil {
			t.Errorf("best-so-far tree invalid: %v", err)
		}
	}
}

// TestFaultInParallelWorker injects trial-level faults while trials run on a
// 4-worker pool: the corruption must surface as a typed, counted fault — a
// NaN objective inside a worker never poisons an acceptance decision — and
// the flow must degrade, not die.
func TestFaultInParallelWorker(t *testing.T) {
	for _, tc := range []struct {
		name string
		hook string
	}{
		{"nan-delay", faults.NaNDelay},
		{"move-apply", faults.MoveApply},
	} {
		t.Run(tc.name, func(t *testing.T) {
			d, tm := smallDesign(t, 100)
			_, ch := testTech(t)
			model := cheapModel(t, tm.Tech)
			cfg := fastFlowConfig()
			cfg.Only = []string{"local"}
			cfg.Workers = 4
			cfg.Faults = faults.New(7).Arm(tc.hook, faults.Spec{First: 3})
			res, err := RunFlows(context.Background(), tm, ch, d, model, cfg)
			if err != nil {
				t.Fatalf("flow aborted: %v", err)
			}
			if !res.Degraded {
				t.Error("Degraded not set")
			}
			if res.Faults[tc.name] == 0 {
				t.Errorf("fault %q not counted: %v", tc.name, res.Faults)
			}
			if res.Local.SumVarPS > res.Orig.SumVarPS+1e-6 {
				t.Errorf("degraded run worse than original: %v > %v",
					res.Local.SumVarPS, res.Orig.SumVarPS)
			}
		})
	}
}

// TestDatasetIncrementalMatchesFull is the regression net under the
// BuildDataset optimization (incremental re-timing per sampled move): the
// incremental dataset must keep the full-analysis sample set and stay within
// the slew-convergence tolerance on every target.
func TestDatasetIncrementalMatchesFull(t *testing.T) {
	th, _ := testTech(t)
	const cases, movesPer, seed = 2, 6, int64(5)
	got, err := BuildDataset(context.Background(), th, cases, movesPer, seed)
	if err != nil {
		t.Fatalf("BuildDataset: %v", err)
	}
	want := fullAnalysisDataset(th, cases, movesPer, seed)
	if len(got.X) != len(want.X) {
		t.Fatalf("corner counts differ: %d vs %d", len(got.X), len(want.X))
	}
	for k := range want.X {
		if len(got.Y[k]) != len(want.Y[k]) {
			t.Fatalf("corner %d: sample counts differ: %d vs %d (incremental changed the filter)",
				k, len(got.Y[k]), len(want.Y[k]))
		}
		for i := range want.Y[k] {
			if !reflect.DeepEqual(got.X[k][i], want.X[k][i]) {
				t.Fatalf("corner %d sample %d: features differ (features must not depend on the timing backend)", k, i)
			}
			if got.Base[k][i] != want.Base[k][i] {
				t.Fatalf("corner %d sample %d: base %v vs %v", k, i, got.Base[k][i], want.Base[k][i])
			}
			if d := math.Abs(got.Y[k][i] - want.Y[k][i]); d > 0.1 {
				t.Fatalf("corner %d sample %d: target drifted %.4f ps (incremental %v, full %v)",
					k, i, d, got.Y[k][i], want.Y[k][i])
			}
		}
	}
}

// fullAnalysisDataset replays BuildDataset's exact sampling (same rng
// consumption order) with a full golden analysis per move — the reference
// the incremental path is pinned against.
func fullAnalysisDataset(th *tech.Tech, cases, movesPer int, seed int64) *Dataset {
	rng := rand.New(rand.NewSource(seed))
	k := th.NumCorners()
	ds := &Dataset{
		X:    make([][][]float64, k),
		Y:    make([][]float64, k),
		Base: make([][]float64, k),
	}
	for c := 0; c < cases; c++ {
		tc := testgen.NewTrainingCase(th, rng)
		tm := sta.New(th)
		tm.Cong = route.NewCongestion(tc.Die, 8, 8, 0.18, uint64(seed)+uint64(c)*7919)
		lg := legalize.New(tc.Die, th.SiteW, th.RowH)
		preA := tm.Analyze(tc.Tree)
		est := newStageEstimator(th, tc.Tree, preA)
		moves := eco.Enumerate(tc.Tree, th, tc.Target, tc.Die)
		rng.Shuffle(len(moves), func(i, j int) { moves[i], moves[j] = moves[j], moves[i] })
		if len(moves) > movesPer {
			moves = moves[:movesPer]
		}
		for _, mv := range moves {
			post := tc.Tree.Clone()
			if err := eco.Apply(post, th, lg, mv); err != nil {
				continue
			}
			postA := tm.Analyze(post)
			for _, net := range affectedStages(post, mv) {
				// A fresh estimate of every net, resized ones included.
				feats := est.features(post, netStages{d: net.d, pins: net.pins}, nil)
				for i, pin := range net.pins {
					for kk := 0; kk < k; kk++ {
						base := GoldenStageDelay(preA, net.d, pin, kk)
						target := GoldenStageDelta(preA, postA, net.d, pin, kk)
						if math.IsNaN(target) || math.IsNaN(base) || base <= 0 {
							continue
						}
						ds.X[kk] = append(ds.X[kk], featureRow(feats, i, kk, k))
						ds.Y[kk] = append(ds.Y[kk], target)
						ds.Base[kk] = append(ds.Base[kk], base)
					}
				}
			}
		}
	}
	return ds
}
