package exp

import (
	"context"
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"skewvar/internal/sta"
)

// tiny returns a configuration small enough for CI.
func tiny() Config {
	return Config{
		NumFFs:     150,
		TopPairs:   120,
		ModelKind:  "ridge",
		TrainCases: 8,
		TrainMoves: 8,
		LocalIters: 4,
		Seed:       3,
	}
}

func TestTable3(t *testing.T) {
	out := Table3().Render()
	for _, w := range []string{"c0", "c1", "c2", "c3", "ss", "ff", "Cmax", "Cmin"} {
		if !strings.Contains(out, w) {
			t.Errorf("Table 3 missing %q:\n%s", w, out)
		}
	}
}

func TestBuildTestcasesAndTable4(t *testing.T) {
	envs, err := BuildTestcases(tiny())
	if err != nil {
		t.Fatal(err)
	}
	if len(envs) != 3 {
		t.Fatalf("envs = %d", len(envs))
	}
	out := Table4(envs).Render()
	for _, w := range []string{"CLS1v1", "CLS1v2", "CLS2v1"} {
		if !strings.Contains(out, w) {
			t.Errorf("Table 4 missing %q", w)
		}
	}
}

func TestFigure2(t *testing.T) {
	res, tb, err := Figure2()
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 2 {
		t.Fatalf("corner pairs = %d", len(res))
	}
	// (c1,c0) ratios > 1; (c2,c0) ratios < 1 — the paper's qualitative shape.
	if res[0].RatioMin <= 1 {
		t.Errorf("c1/c0 min ratio = %v", res[0].RatioMin)
	}
	if res[1].RatioMax >= 1 {
		t.Errorf("c2/c0 max ratio = %v", res[1].RatioMax)
	}
	if !strings.Contains(res[0].CSV, "scatter_c1/c0") || !strings.Contains(res[0].CSV, "wmax_c1/c0") {
		t.Error("CSV series missing")
	}
	if tb.Render() == "" {
		t.Error("empty table")
	}
}

func TestFigure5(t *testing.T) {
	res, tb, err := Figure5(tiny())
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 4 {
		t.Fatalf("corners = %d", len(res))
	}
	for _, r := range res {
		if r.N < 50 {
			t.Errorf("corner %d: only %d samples", r.Corner, r.N)
		}
		// The paper reports 2.8% mean error; our substrate differs, but the
		// model must stay within a two-digit percentage band.
		if r.MeanAbsPct > 10 {
			t.Errorf("corner %d: mean |err| = %.2f%%", r.Corner, r.MeanAbsPct)
		}
		if r.Correlation < 0.95 {
			t.Errorf("corner %d: correlation = %v", r.Corner, r.Correlation)
		}
		if r.Histogram == "" || r.CSV == "" {
			t.Error("missing artifacts")
		}
	}
	if tb.Render() == "" {
		t.Error("empty table")
	}
}

func TestFigure6(t *testing.T) {
	if testing.Short() {
		t.Skip("golden sweep in short mode")
	}
	res, tb, err := Figure6(tiny())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Models) != 6 {
		t.Fatalf("models = %v", res.Models)
	}
	if res.Buffers < 5 {
		t.Fatalf("usable buffers = %d", res.Buffers)
	}
	for i, c := range res.Curves {
		// Curves are monotone non-decreasing in attempts.
		for k := 1; k < len(c); k++ {
			if c[k] < c[k-1] {
				t.Errorf("model %s: non-monotone curve", res.Models[i])
			}
		}
	}
	// Every predictor must be far better than chance (≈k/45 at attempt k),
	// and the strongest predictor must find most best moves within a few
	// attempts. (The paper's ML-vs-analytic ordering does not transfer to
	// this substrate — our D2M delta estimators share the golden timer's
	// models and are near-oracle; see EXPERIMENTS.md for the discussion.)
	for i, c := range res.Curves {
		if c[2] < 0.3 {
			t.Errorf("%s@3 = %.2f, barely above chance", res.Models[i], c[2])
		}
	}
	best := 0.0
	for _, c := range res.Curves {
		if c[4] > best {
			best = c[4]
		}
	}
	if best < 0.7 {
		t.Errorf("no predictor reaches 70%% identification by attempt 5 (best %.2f)", best)
	}
	if tb.Render() == "" {
		t.Error("empty table")
	}
}

func TestTable5AndFigures89(t *testing.T) {
	if testing.Short() {
		t.Skip("full flows in short mode")
	}
	cfg := tiny()
	t5, tb, err := Table5(cfg)
	if err != nil {
		t.Fatal(err)
	}
	out := tb.Render()
	for _, w := range []string{"orig", "global", "local", "global-local"} {
		if strings.Count(out, w) < 3 {
			t.Errorf("Table 5 missing flow rows %q:\n%s", w, out)
		}
	}
	// Paper-shape assertions on every testcase.
	for name, fr := range t5.Flows {
		if fr.GLocal.SumVarPS > fr.Orig.SumVarPS {
			t.Errorf("%s: global-local worse than orig", name)
		}
		if fr.Global.SumVarPS > fr.Orig.SumVarPS+1e-6 {
			t.Errorf("%s: global worse than orig", name)
		}
		if fr.Local.SumVarPS > fr.Orig.SumVarPS+1e-6 {
			t.Errorf("%s: local worse than orig", name)
		}
		// Local skew never degrades.
		for k := range fr.GLocal.SkewPS {
			if fr.GLocal.SkewPS[k] > sta.SkewGuard(fr.Orig.SkewPS[k]) {
				t.Errorf("%s: corner %d local skew degraded", name, k)
			}
		}
	}
	// Figure 8 from the same config.
	f8, tb8, err := Figure8(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(f8.Records) == 0 {
		t.Error("no guided iterations recorded")
	}
	if !strings.Contains(f8.CSV, "model-guided") || !strings.Contains(f8.CSV, "random-moves") {
		t.Error("figure 8 CSV series missing")
	}
	if tb8.Render() == "" {
		t.Error("empty fig8 table")
	}
	// Figure 9 reusing the Table-5 trees.
	f9, tb9, err := Figure9(cfg, t5)
	if err != nil {
		t.Fatal(err)
	}
	if len(f9) != 2 {
		t.Fatalf("figure 9 corners = %d", len(f9))
	}
	for _, r := range f9 {
		if r.OrigHist == "" || r.OptHist == "" {
			t.Error("missing histograms")
		}
	}
	if tb9.Render() == "" {
		t.Error("empty fig9 table")
	}
}

func TestBalancingStudy(t *testing.T) {
	tb, err := BalancingStudy(tiny())
	if err != nil {
		t.Fatal(err)
	}
	out := tb.Render()
	// 3 row mentions + 1 title mention each.
	if strings.Count(out, "MCSM") != 4 || strings.Count(out, "MCMM") != 4 {
		t.Fatalf("scenario rows missing:\n%s", out)
	}
	if strings.Count(out, "start point") != 3 {
		t.Fatalf("selection markers missing:\n%s", out)
	}
}

// TestStageModelErrors pins the error texts the commands print for each
// way the -model fallback can fail.
func TestStageModelErrors(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := StageModel(ctx, ""); err == nil || !strings.HasPrefix(err.Error(), "quick training: ") {
		t.Errorf("canceled quick training: err = %v", err)
	}
	missing := filepath.Join(t.TempDir(), "missing.json")
	if _, err := StageModel(context.Background(), missing); err == nil ||
		!strings.HasPrefix(err.Error(), "opening "+missing+": ") || !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("missing bundle: err = %v", err)
	}
	garbage := filepath.Join(t.TempDir(), "garbage.json")
	if err := os.WriteFile(garbage, []byte("not a model"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := StageModel(context.Background(), garbage); err == nil || !strings.HasPrefix(err.Error(), "loading model: ") {
		t.Errorf("garbage bundle: err = %v", err)
	}
}
