// Package exp reproduces every table and figure of the paper's evaluation
// (§5). It is the single implementation behind both cmd/exptab and the
// repository-level benchmarks, so the numbers in EXPERIMENTS.md regenerate
// identically from either entry point.
//
// Scaling note (see DESIGN.md §5): the paper's testcases carry 35K–270K
// flip-flops and are timed by PrimeTime on servers; this harness runs the
// same floorplan shapes at a configurable flip-flop count (default 420) and
// optimizes the top-N critical pairs, which keeps a full Table-5 regeneration
// in CPU-minutes. Shape conclusions — who wins, roughly by how much, no
// local-skew degradation, negligible power/area cost — are the reproduction
// targets, not absolute picoseconds.
package exp

import (
	"context"
	"fmt"
	"os"
	"sync"

	"skewvar/internal/core"
	"skewvar/internal/ctree"
	"skewvar/internal/lut"
	"skewvar/internal/report"
	"skewvar/internal/sta"
	"skewvar/internal/tech"
	"skewvar/internal/testgen"
)

// Config scales the experiments.
type Config struct {
	NumFFs     int    // flip-flops per testcase (default 420)
	TopPairs   int    // critical pairs in the objective (default 300)
	ModelKind  string // predictor kind: "hsm" (default), "ann", "svr", "ridge"
	TrainCases int    // artificial training testcases (default 40)
	TrainMoves int    // sampled moves per training case (default 25)
	LocalIters int    // Algorithm-2 iteration cap (default 12)
	Seed       int64
}

// Default returns the configuration used for the committed EXPERIMENTS.md
// numbers.
func Default() Config {
	return Config{
		NumFFs:     420,
		TopPairs:   300,
		ModelKind:  "hsm",
		TrainCases: 40,
		TrainMoves: 25,
		LocalIters: 12,
		Seed:       1,
	}
}

func (c *Config) setDefaults() {
	d := Default()
	if c.NumFFs == 0 {
		c.NumFFs = d.NumFFs
	}
	if c.TopPairs == 0 {
		c.TopPairs = d.TopPairs
	}
	if c.ModelKind == "" {
		c.ModelKind = d.ModelKind
	}
	if c.TrainCases == 0 {
		c.TrainCases = d.TrainCases
	}
	if c.TrainMoves == 0 {
		c.TrainMoves = d.TrainMoves
	}
	if c.LocalIters == 0 {
		c.LocalIters = d.LocalIters
	}
	if c.Seed == 0 {
		c.Seed = d.Seed
	}
}

var (
	techOnce sync.Once
	techInst *tech.Tech
	charInst *lut.Char
)

// Technology returns the shared characterized technology (built once).
func Technology() (*tech.Tech, *lut.Char) {
	techOnce.Do(func() {
		techInst = tech.Default28nm()
		charInst = lut.Characterize(techInst)
	})
	return techInst, charInst
}

// StageModel returns the stage model the commands' -model flag names: the
// bundle at path, or, for an empty path, a quick ridge predictor trained
// on the spot (12 cases × 12 moves, seed 1).
func StageModel(ctx context.Context, path string) (*core.MLStageModel, error) {
	if path == "" {
		t, _ := Technology()
		m, err := core.TrainStageModel(ctx, t, core.TrainConfig{
			Kind: "ridge", Cases: 12, MovesPerCase: 12, Seed: 1,
		})
		if err != nil {
			return nil, fmt.Errorf("quick training: %w", err)
		}
		return m, nil
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("opening %s: %w", path, err)
	}
	defer f.Close()
	m, err := core.LoadStageModel(f)
	if err != nil {
		return nil, fmt.Errorf("loading model: %w", err)
	}
	return m, nil
}

// Env is one built benchmark testcase.
type Env struct {
	Variant testgen.Variant
	Design  *ctree.Design
	Timer   *sta.Timer
}

// Table3 renders the corner table (paper Table 3).
func Table3() *report.Table {
	t := &report.Table{
		Title:   "Table 3: description of corners",
		Headers: []string{"Corner", "Process", "Voltage", "Temperature", "BEOL"},
	}
	for _, c := range tech.Table3Corners() {
		t.AddRowf(c.Name, c.Process, fmt.Sprintf("%.2fV", c.Voltage),
			fmt.Sprintf("%g°C", c.TempC), c.BEOL)
	}
	return t
}

// BuildTestcases generates the three benchmark designs (CLS1v1, CLS1v2,
// CLS2v1) at the configured scale.
func BuildTestcases(cfg Config) ([]Env, error) {
	cfg.setDefaults()
	base, _ := Technology()
	var out []Env
	for _, v := range testgen.Variants(cfg.NumFFs) {
		d, tm, err := testgen.Build(base, v)
		if err != nil {
			return nil, fmt.Errorf("exp: building %s: %w", v.Name, err)
		}
		out = append(out, Env{Variant: v, Design: d, Timer: tm})
	}
	return out, nil
}

// Table4 renders the testcase summary (paper Table 4) for built testcases.
func Table4(envs []Env) *report.Table {
	t := &report.Table{
		Title:   "Table 4: summary of testcases (scaled reproduction)",
		Headers: []string{"Testcase", "#Cells", "#Flip-flops", "Area(mm2)", "Util", "Corners", "#Pairs"},
	}
	for _, e := range envs {
		t.AddRowf(
			e.Variant.Name,
			e.Design.NumCells,
			len(e.Design.Tree.Sinks()),
			fmt.Sprintf("%.1f", e.Design.Die.Area()/1e6),
			fmt.Sprintf("%.0f%%", e.Design.Util*100),
			fmt.Sprintf("%v", e.Design.CornerNames),
			len(e.Design.Pairs),
		)
	}
	return t
}

var (
	modelMu    sync.Mutex
	modelCache = map[string]*core.MLStageModel{}
)

// TrainedModel returns the per-corner delta-latency predictors for the
// configured kind, training them once per (kind, scale, seed) — mirroring
// the paper's one-time-per-technology model training.
func TrainedModel(cfg Config) (*core.MLStageModel, error) {
	cfg.setDefaults()
	key := fmt.Sprintf("%s/%d/%d/%d", cfg.ModelKind, cfg.TrainCases, cfg.TrainMoves, cfg.Seed)
	modelMu.Lock()
	defer modelMu.Unlock()
	if m, ok := modelCache[key]; ok {
		return m, nil
	}
	t, _ := Technology()
	m, err := core.TrainStageModel(context.Background(), t, core.TrainConfig{
		Cases:        cfg.TrainCases,
		MovesPerCase: cfg.TrainMoves,
		Kind:         cfg.ModelKind,
		Seed:         cfg.Seed,
	})
	if err != nil {
		return nil, err
	}
	modelCache[key] = m
	return m, nil
}
