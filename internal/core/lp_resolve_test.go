package core

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"testing"

	"skewvar/internal/ctree"
	"skewvar/internal/edaio"
	"skewvar/internal/lp"
	"skewvar/internal/obs"
	"skewvar/internal/sta"
	"skewvar/internal/testgen"
)

// readBack writes d as a document and reads it back, the way skewopt and
// skewd receive designs, and returns it with a timer over its corners.
func readBack(t *testing.T, d *ctree.Design) (*ctree.Design, *sta.Timer) {
	t.Helper()
	base, _ := testTech(t)
	var buf bytes.Buffer
	if err := edaio.WriteDesign(&buf, d); err != nil {
		t.Fatal(err)
	}
	d, err := edaio.ReadDesign(&buf, edaio.WithCells(func(name string) bool { return base.CellByName(name) != nil }))
	if err != nil {
		t.Fatal(err)
	}
	view, err := base.SubCorners(d.CornerNames...)
	if err != nil {
		t.Fatal(err)
	}
	return d, sta.New(view)
}

// solveRecord is one block LP solve seen through solveHook: a copy of the
// problem as it was solved, and the answer.
type solveRecord struct {
	prob    *lp.Problem
	sol     *lp.Solution
	err     error
	resolve bool // the problem had been solved before
}

// recordSolves runs f with solveHook recording every block LP solve.
func recordSolves(t *testing.T, f func()) []solveRecord {
	t.Helper()
	var recs []solveRecord
	seen := map[*lp.Problem]bool{}
	solveHook = func(prob *lp.Problem, sol *lp.Solution, err error) {
		recs = append(recs, solveRecord{prob.Clone(), sol, err, seen[prob]})
		seen[prob] = true
	}
	defer func() { solveHook = nil }()
	f()
	return recs
}

// TestLPIterationsCountEverySolve checks that lp.iterations counts the
// pivots of every solve the global stage runs — both passes of every
// block, at every U — and lp.solves the solves.
func TestLPIterationsCountEverySolve(t *testing.T) {
	d, tm := smallDesign(t, 150)
	_, ch := testTech(t)
	a0 := tm.Analyze(d.Tree)
	alphas := sta.Alphas(a0, d.TopPairs(60))
	rec := obs.New()
	var res *GlobalResult
	recs := recordSolves(t, func() {
		var err error
		res, err = GlobalOpt(context.Background(), tm, ch, d, alphas, GlobalConfig{TopPairs: 60, MaxPairsPerLP: 30, Obs: rec})
		if err != nil {
			t.Fatal(err)
		}
	})
	var iters, statIters, statSolves int
	for _, r := range recs {
		iters += r.sol.Iterations
	}
	for _, st := range res.LPStats {
		statIters += st.Iters
		statSolves += st.Solves
	}
	snap := rec.Snapshot()
	if got := snap.Counters["lp.iterations"]; got != int64(iters) || statIters != iters {
		t.Errorf("lp.iterations %d, LPStat iterations %d, solves' iterations %d", got, statIters, iters)
	}
	if got := snap.Counters["lp.solves"]; got != int64(len(recs)) || statSolves != len(recs) {
		t.Errorf("lp.solves %d, LPStat solves %d, %d solves ran", got, statSolves, len(recs))
	}
	if len(recs) <= len(res.LPStats) {
		t.Errorf("%d solves for %d block LPs: pass 2 never ran", len(recs), len(res.LPStats))
	}
}

// TestGlobalLPResolvesMatchCold captures every block LP the global stage
// solves on the global-lp benchmark's pool (CLS1v1 at 160 flip-flops, 60
// pairs in one block), and in free-Δ mode on its first design, and solves
// each again cold. Every re-solve must finish warm, with the cold solve's
// status and an objective within 1e-6 relative; a cold solve must repeat
// bit for bit.
func TestGlobalLPResolvesMatchCold(t *testing.T) {
	base, ch := testTech(t)
	designs := 10
	if testing.Short() {
		designs = 2
	}
	var warm, pivots int
	check := func(what string, recs []solveRecord) {
		t.Helper()
		for i, r := range recs {
			pivots += r.sol.Iterations
			cold, err := r.prob.Solve()
			if (err == nil) != (r.err == nil) {
				t.Fatalf("%s solve %d: error %v, cold %v", what, i, r.err, err)
			}
			if r.sol.Status != cold.Status {
				t.Fatalf("%s solve %d: status %v, cold %v", what, i, r.sol.Status, cold.Status)
			}
			if r.resolve && !r.sol.Warm {
				t.Errorf("%s solve %d: the re-solve fell back to a cold solve", what, i)
			}
			if r.sol.Warm {
				warm++
			}
			if r.sol.Status != lp.Optimal {
				continue
			}
			if !r.sol.Warm && (math.Float64bits(r.sol.Obj) != math.Float64bits(cold.Obj) || !sameBits(r.sol.X, cold.X)) {
				t.Errorf("%s solve %d: a cold solve did not repeat bit for bit", what, i)
			}
			if diff := math.Abs(r.sol.Obj - cold.Obj); diff > 1e-6*math.Max(1, math.Abs(cold.Obj)) {
				t.Errorf("%s solve %d: objective %v, cold %v", what, i, r.sol.Obj, cold.Obj)
			}
		}
	}
	for k := 0; k < designs; k++ {
		v := testgen.CLS1v1(160)
		v.Seed += int64(k)
		gd, _, err := testgen.Build(base, v)
		if err != nil {
			t.Fatal(err)
		}
		d, tm := readBack(t, gd)
		check(fmt.Sprintf("seed %d", v.Seed), recordSolves(t, func() {
			res, err := RunFlows(context.Background(), tm, ch, d, nil, FlowConfig{
				TopPairs: 60, Global: GlobalConfig{MaxPairsPerLP: 60}, Only: []string{"global"}, Workers: 1,
			})
			if err != nil {
				t.Fatal(err)
			}
			if res.Degraded {
				t.Errorf("seed %d: flow degraded: %v", v.Seed, res.Faults)
			}
		}))
		if k > 0 {
			continue
		}
		// Free-Δ mode adds W-window rows to the live problem between solves.
		alphas := sta.Alphas(tm.Analyze(d.Tree), d.TopPairs(60))
		check(fmt.Sprintf("seed %d free-Δ", v.Seed), recordSolves(t, func() {
			if _, err := GlobalOpt(context.Background(), tm, ch, d, alphas, GlobalConfig{
				TopPairs: 60, MaxPairsPerLP: 60, FreeDelta: true,
			}); err != nil {
				t.Fatal(err)
			}
		}))
	}
	t.Logf("%d designs: %d warm re-solves, %d pivots", designs, warm, pivots)
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestGlobalSeed7303NotDegraded replays the CLS2v1 design at 160
// flip-flops, seed 7303, written and read back as a document, with one
// 50-pair block. Solved cold at every rung, its U=0.6 LP hit a singular
// refactorization and the iteration limit, and the global stage degraded
// (lp-solve, then lp-budget-halved). Re-solved from the previous rung's
// basis it reaches the optimum.
func TestGlobalSeed7303NotDegraded(t *testing.T) {
	base, ch := testTech(t)
	v := testgen.CLS2v1(160)
	v.Seed = 7303
	gd, _, err := testgen.Build(base, v)
	if err != nil {
		t.Fatal(err)
	}
	d, tm := readBack(t, gd)
	res, err := RunFlows(context.Background(), tm, ch, d, nil, FlowConfig{
		TopPairs: 50, Global: GlobalConfig{MaxPairsPerLP: 50}, Only: []string{"global"}, Workers: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Degraded || res.GRes.Degraded {
		t.Errorf("global stage degraded: faults %v", res.Faults)
	}
	for _, f := range []string{"lp-solve", "lp-budget-halved"} {
		if n := res.Faults[f]; n > 0 {
			t.Errorf("fault %s recorded %d times", f, n)
		}
	}
}
