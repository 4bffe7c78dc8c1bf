package exp

import (
	"context"
	"fmt"

	"skewvar/internal/core"
	"skewvar/internal/report"
)

// Table5Result bundles the full Table-5 reproduction.
type Table5Result struct {
	Flows map[string]*core.FlowResult // by testcase name
	Envs  []Env
}

// flowConfig builds the optimization configuration at the experiment scale.
func flowConfig(cfg Config) core.FlowConfig {
	return core.FlowConfig{
		TopPairs: cfg.TopPairs,
		Global: core.GlobalConfig{
			// A single LP block covering every optimized pair: blocks freeze
			// arcs shared with out-of-block pairs, so one block maximizes
			// the usable leverage.
			MaxPairsPerLP: cfg.TopPairs,
		},
		Local: core.LocalConfig{
			MaxIters: cfg.LocalIters,
			Seed:     cfg.Seed,
		},
	}
}

// Table5 runs the paper's three optimization flows (global, local,
// global-local) on all three testcases and renders the main results table.
func Table5(cfg Config) (*Table5Result, *report.Table, error) {
	cfg.setDefaults()
	_, ch := Technology()
	model, err := TrainedModel(cfg)
	if err != nil {
		return nil, nil, err
	}
	envs, err := BuildTestcases(cfg)
	if err != nil {
		return nil, nil, err
	}
	res := &Table5Result{Flows: map[string]*core.FlowResult{}, Envs: envs}
	tb := &report.Table{
		Title: "Table 5: experimental results (scaled reproduction)",
		Headers: []string{"Testcase", "Flow", "Variation(ps)", "[norm]",
			"Skew@c0", "Skew@c1", "Skew@c2/3", "#Cells", "Power(mW)", "Area(um2)"},
	}
	for _, e := range envs {
		fr, err := core.RunFlows(context.Background(), e.Timer, ch, e.Design, model, flowConfig(cfg))
		if err != nil {
			return nil, nil, fmt.Errorf("exp: flows on %s: %w", e.Variant.Name, err)
		}
		res.Flows[e.Variant.Name] = fr
		addRow := func(flow string, m core.Metrics) {
			tb.AddRowf(e.Variant.Name, flow,
				fmt.Sprintf("%.0f", m.SumVarPS),
				fmt.Sprintf("[%.2f]", m.Norm),
				fmt.Sprintf("%.0f", m.SkewPS[0]),
				fmt.Sprintf("%.0f", m.SkewPS[1]),
				fmt.Sprintf("%.0f", m.SkewPS[2]),
				m.NumCells,
				fmt.Sprintf("%.3f", m.PowerMW),
				fmt.Sprintf("%.0f", m.AreaUM2),
			)
		}
		addRow("orig", fr.Orig)
		addRow("global", fr.Global)
		addRow("local", fr.Local)
		addRow("global-local", fr.GLocal)
	}
	return res, tb, nil
}
