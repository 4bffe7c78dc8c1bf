package main

import (
	"math"
	"sort"
)

// metricDef names one reported metric. BENCHMARK.json lists the same
// names, units, directions and bounds; bench_test.go holds the two in step.
type metricDef struct {
	name, unit string
}

// endToEnd are the metrics a user of the system sees, printed by every
// untraced run of every workload. A "job" is one design document taken to
// its optimized result: one RunFlows call on the flow workloads, one
// skewd submission on served-mix.
var endToEnd = []metricDef{
	{"job_s", "s"},           // per-job time to solution, reference-host seconds (hostclock.go)
	{"cpu_s_per_job", "s"},   // process user+sys CPU in the measured window ÷ jobs, likewise
	{"sumvar_norm", "ratio"}, // final ΣV ÷ original ΣV, mean over jobs
	{"skew_ratio_max", "ratio"},
	{"setup_s", "s"},           // likewise
	{"alloc_mb_per_job", "MB"}, // heap bytes allocated per job
}

// perLayer are the metrics of single layers, printed by traced runs. Each
// one is listed in README.md with the end-to-end metric and workload it
// should move. Counts and times are per job (the mean over the run's
// jobs) unless the name says otherwise.
var perLayer = []metricDef{
	{"host.ref_ms", "ms"},
	{"job_wall_s", "s"},
	{"setup_wall_s", "s"},
	{"peak_rss_mb", "MB"},
	{"setup.characterize_s", "s"},
	{"setup.dataset_s", "s"},
	{"setup.fit_s", "s"},
	{"setup.dataset_rows", "count"},
	{"edaio.parse_ms", "ms"},
	{"edaio.design_kb", "KiB"},
	{"edaio.self_s", "s"},
	{"sta.analyze_cold_ms", "ms"},
	{"sta.analyze_warm_ms", "ms"},
	{"sta.analyses", "count"},
	{"sta.analyses_incremental", "count"},
	{"sta.self_s", "s"},
	{"sta.net_cache_hit_rate", "ratio"},
	{"global.stage_s", "s"},
	{"global.self_s", "s"},
	{"global.reverted_frac", "ratio"},
	{"global.arcs_rebuilt", "count"},
	{"global.sumvar_norm", "ratio"},
	{"lp.solves", "count"},
	{"lp.pivots", "count"},
	{"lp.refactors", "count"},
	{"lp.rows", "count"},
	{"lp.cols", "count"},
	{"lp.pivots_per_s", "1/s"},
	{"local.stage_s", "s"},
	{"local.self_s", "s"},
	{"local.moves_enumerated", "count"},
	{"local.moves_predicted", "count"},
	{"local.moves_tried", "count"},
	{"local.moves_accepted", "count"},
	{"local.accept_rate", "ratio"},
	{"local.enumerate_us_per_move", "us"},
	{"local.gain_us_per_move", "us"},
	{"local.golden_ms_per_trial", "ms"},
	{"flow.traced_s", "s"},
	{"flow.glue_s", "s"},
	{"trace.overhead_frac", "ratio"},
	{"trace.self_sum_frac", "ratio"},
	{"serve.admit_ms_p50", "ms"},
	{"serve.admit_ms_tail", "ms"},
	{"serve.run_s_p50", "s"},
	{"serve.queue_s_p50", "s"},
	{"serve.job_tail_s", "s"},
	{"serve.tail_q", "ratio"},
	{"serve.fsyncs_per_job", "count"},
	{"serve.busy_frac", "ratio"},
	{"serve.net_cache_hit_rate", "ratio"},
	{"serve.jobs_failed", "count"},
	{"serve.jobs_lost", "count"},
	{"load.gen_lag_ms_max", "ms"},
}

// median returns the middle value (the mean of the two middle values for
// an even count); NaN for no values.
func median(v []float64) float64 { return quantile(v, 0.5) }

// quantile is the q-quantile by the "exclusive" method of Python's
// statistics.quantiles, the one this benchmark's spreads are judged by:
// rank q·(n+1), interpolated between its neighbours and extrapolated past
// the ends. NaN for no values.
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s) == 1 {
		return s[0]
	}
	p := q * float64(len(s)+1)
	j := int(math.Floor(p))
	if j < 1 {
		j = 1
	} else if j > len(s)-1 {
		j = len(s) - 1
	}
	return s[j-1] + (p-float64(j))*(s[j]-s[j-1])
}

// mean returns the arithmetic mean; NaN for no values.
func mean(v []float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, x := range v {
		sum += x
	}
	return sum / float64(len(v))
}

// tailQuantile is the highest quantile of n samples that still has ten
// samples beyond it (never below the median).
func tailQuantile(n int) float64 {
	if n <= 20 {
		return 0.5
	}
	return 1 - 10/float64(n)
}
