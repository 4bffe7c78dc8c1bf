package main

import (
	"context"
	"encoding/json"
	"os"
	"strings"
	"testing"

	"skewvar/internal/obs"
)

// benchmarkJSON is the subset of ../BENCHMARK.json the tests hold the
// program to.
type benchmarkJSON struct {
	Command    []string   `json:"command"`
	Paths      []string   `json:"paths"`
	RunSeconds int        `json:"run_seconds"`
	EndToEnd   []boundDef `json:"end_to_end"`
	PerLayer   []boundDef `json:"per_layer"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	return bj
}

func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	bj := readBenchmarkJSON(t)
	var names []string
	for _, w := range bj.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(workloadNames(), ",") {
		t.Errorf("BENCHMARK.json workloads %v, program has %v", names, workloadNames())
	}
	for _, tc := range []struct {
		listed []boundDef
		defs   []metricDef
	}{{bj.EndToEnd, endToEnd}, {bj.PerLayer, perLayer}} {
		if len(tc.listed) != len(tc.defs) {
			t.Errorf("BENCHMARK.json lists %d metrics, program reports %d", len(tc.listed), len(tc.defs))
			continue
		}
		for i, d := range tc.defs {
			if tc.listed[i].Name != d.name || tc.listed[i].Unit != d.unit {
				t.Errorf("metric %d: BENCHMARK.json has %s [%s], program %s [%s]",
					i, tc.listed[i].Name, tc.listed[i].Unit, d.name, d.unit)
			}
		}
	}
	var setupBound, maxBound float64
	for _, d := range bj.EndToEnd {
		// checkQoR holds a QoR ratio near or below 1, so a 1% bound lets it
		// worsen by about 0.01 at most. Allocation repeats within 0.1% for a
		// pool, so 5% is wide. A time carries the host's noise (README.md);
		// only set-up may have the widest bound a benchmark may set.
		limit := map[string]float64{"ratio": 0.01, "MB": 0.05, "s": 0.2}[d.Unit]
		if d.Name == "setup_s" {
			limit = 0.25
		}
		if d.Bound <= 0 || d.Bound > limit || (d.Better != "lower" && d.Better != "higher") {
			t.Errorf("%s: bound %g (at most %g), better %q", d.Name, d.Bound, limit, d.Better)
		}
		if d.Bound > maxBound {
			maxBound = d.Bound
		}
		if d.Name == "setup_s" {
			setupBound = d.Bound
		}
	}
	if setupBound != maxBound {
		t.Errorf("setup_s bound %g is not the largest (%g)", setupBound, maxBound)
	}
}

// smoke shrinks a workload to a few small jobs so that all four, traced
// and untraced, run in seconds.
func smoke(sp spec) spec {
	sp.setup = setupSpec{reps: 1, cases: 6, moves: 8}
	if sp.flow != nil {
		f := *sp.flow
		f.ffs, f.pairs, f.iters, f.pool = 120, 30, 1, 2
		sp.flow = &f
	}
	if sp.served != nil {
		s := *sp.served
		s.classes = append([]jobClass(nil), s.classes...)
		for i := range s.classes {
			s.classes[i].ffs, s.classes[i].pairs, s.classes[i].iters = 120, 30, 1
		}
		s.rate, s.designsPerClass = 3, 1 // 6 jobs over the 2-second window
		sp.served = &s
	}
	return sp
}

func TestWorkloadsEmitEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, sp := range workloads() {
		for _, traced := range []bool{false, true} {
			sp, traced := sp, traced
			name := sp.name + "/untraced"
			defs := endToEnd
			if traced {
				name, defs = sp.name+"/traced", perLayer
			}
			t.Run(name, func(t *testing.T) {
				o, err := runWorkload(context.Background(), smoke(sp), options{
					seed: 1, placement: 1, seconds: 2, trace: traced, workDir: t.TempDir(), logf: t.Logf,
				})
				if err != nil {
					t.Fatal(err)
				}
				r := o.result(traced)
				for _, p := range o.problems {
					t.Errorf("check failed: %s", p)
				}
				if !r.Correct || r.Failed != 0 {
					t.Errorf("correct %v, attempted %d, failed %d", r.Correct, r.Attempted, r.Failed)
				}
				if len(r.Metrics) != len(defs) {
					t.Errorf("%d metrics, want %d", len(r.Metrics), len(defs))
				}
				for _, d := range defs {
					if m, ok := r.Metrics[d.name]; !ok || m.Unit != d.unit {
						t.Errorf("metric %s missing or not in %s: %+v", d.name, d.unit, m)
					}
				}
				if !traced {
					for _, d := range endToEnd {
						if r.Metrics[d.name].Value <= 0 {
							t.Errorf("end-to-end metric %s is %g; it must never be 0", d.name, r.Metrics[d.name].Value)
						}
					}
				}
			})
		}
	}
}

func TestChecksRejectDoctoredResults(t *testing.T) {
	good := qor{sumVar0: 100, sumVar: 80, skew0: []float64{200, 300}, skew: []float64{201, 299}, stages: 1}
	if err := checkQoR(good); err != nil {
		t.Fatalf("sound result rejected: %v", err)
	}
	worse := good
	worse.sumVar = 100.5
	breach := good
	breach.skew = []float64{200, 306} // guard: 300 + 1.5% = 304.5
	twoStage := breach
	twoStage.stages = 2 // 304.5 + 1.5% ≈ 309.07 holds 306
	for name, q := range map[string]qor{"ΣV above the original": worse, "skew-guard breach": breach} {
		if checkQoR(q) == nil {
			t.Errorf("%s accepted", name)
		}
	}
	if err := checkQoR(twoStage); err != nil {
		t.Errorf("two-stage guard band rejected a skew within it: %v", err)
	}

	done := servedJob{acked: true, state: "done", resultOK: true}
	if err := checkServedJob(done); err != nil {
		t.Fatalf("sound job rejected: %v", err)
	}
	for name, j := range map[string]servedJob{
		"lost job":        {acked: true},
		"failed job":      {acked: true, state: "failed"},
		"degraded job":    {acked: true, state: "done", degraded: true, resultOK: true},
		"unparsed result": {acked: true, state: "done"},
		"unacknowledged":  {},
	} {
		if checkServedJob(j) == nil {
			t.Errorf("%s accepted", name)
		}
	}

	for _, s := range []string{"optimal", "infeasible"} {
		if err := checkLPStatus(s); err != nil {
			t.Errorf("LP %s rejected: %v", s, err)
		}
	}
	for _, s := range []string{"iteration-limit", "unbounded"} {
		if checkLPStatus(s) == nil {
			t.Errorf("LP %s accepted", s)
		}
	}
}

func span(id uint64, name string, start, dur int64) obs.Record {
	return obs.Record{Kind: obs.KindSpan, ID: id, Name: name, Start: start, Dur: dur}
}

func TestSelfTimesNestByInterval(t *testing.T) {
	recs := []obs.Record{
		span(9, "sta.analyze", 0, 5), // before the flow: not counted
		span(1, "flow", 10, 100),
		span(2, "sta.analyze", 12, 4),
		span(3, "flow.stage", 20, 50),
		span(4, "global.opt", 21, 48),
		span(5, "sta.analyze_inc", 30, 10),
		span(6, "sta.corner", 31, 3),
		span(7, "flow.stage", 75, 30),
		span(11, "local.opt", 76, 28),
		span(8, "sta.analyze_inc", 80, 5),
	}
	lt, err := selfTimes(recs)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{"flow": 20e-9, "sta": 19e-9, "global": 38e-9, "local": 23e-9}
	for l, w := range want {
		if d := lt.self[l] - w; d > 1e-15 || d < -1e-15 {
			t.Errorf("%s self %g s, want %g s", l, lt.self[l], w)
		}
	}
	if d := lt.selfSum() - lt.flow; lt.flow != 100e-9 || d > 1e-15 || d < -1e-15 {
		t.Errorf("flow %g s, self sum %g s", lt.flow, lt.selfSum())
	}

	// Starts inside local.opt [76, 104) and ends after it, inside the flow.
	overlap := append(recs[:len(recs):len(recs)], span(10, "sta.analyze", 100, 8))
	if _, err := selfTimes(overlap); err == nil {
		t.Error("overlapping spans accepted")
	}
}

func TestScheduleIsSeededWithExactShares(t *testing.T) {
	ss := workloads()[3].served
	a, b := schedule(ss, 7, 12), schedule(ss, 7, 12)
	c := schedule(ss, 8, 12)
	if len(a) != int(ss.rate*12) {
		t.Fatalf("%d arrivals, want %d", len(a), int(ss.rate*12))
	}
	same := true
	counts := make([]int, len(ss.classes))
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("seed 7 drew two schedules")
		}
		same = same && a[i] == c[i]
		if i > 0 && a[i].at < a[i-1].at {
			t.Fatalf("arrivals out of order")
		}
		counts[a[i].class]++
	}
	if same {
		t.Error("seeds 7 and 8 drew the same schedule")
	}
	for cl, n := range counts {
		if want := len(a) * ss.classes[cl].share / 100; n < want {
			t.Errorf("class %d has %d jobs, want at least %d", cl, n, want)
		}
	}
}

func TestVerdict(t *testing.T) {
	d := boundDef{Name: "job_s", Better: "lower", Bound: 0.1}
	mk := func(v ...float64) arm {
		a := arm{vals: v, bySeed: map[int64][]float64{}}
		for i, x := range v {
			a.bySeed[int64(i+1)] = []float64{x}
		}
		return a
	}
	parent := mk(1.00, 1.01, 0.99, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00, 1.00)
	for _, tc := range []struct {
		name string
		b    arm
		want string
	}{
		{"same", mk(1.00, 1.00, 1.01, 0.99, 1.00, 1.01, 0.99, 1.00, 1.02, 0.98), "unchanged"},
		{"slower", mk(1.20, 1.21, 1.19, 1.22, 1.18, 1.20, 1.21, 1.19, 1.20, 1.20), "regression"},
		{"faster", mk(0.50, 0.51, 0.49, 0.52, 0.48, 0.50, 0.51, 0.49, 0.50, 0.50), "gain"},
	} {
		if got, _, _ := verdict(parent, tc.b, d); got != tc.want {
			t.Errorf("%s: verdict %s, want %s", tc.name, got, tc.want)
		}
	}
	noisy := mk(0.7, 1.3, 0.8, 1.2, 1.0, 0.9, 1.1, 0.75, 1.25, 1.0)
	if got, _, _ := verdict(noisy, mk(1.05, 1.0, 1.1, 0.95, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0), d); got != "unresolved" {
		t.Errorf("noisy parent: verdict %s, want unresolved", got)
	}
}

func TestComparePairsOnePlacementOnly(t *testing.T) {
	recs := []record{{Placement: 1}, {Placement: 1}}
	if err := onePlacement(recs); err != nil {
		t.Fatalf("one placement refused: %v", err)
	}
	if onePlacement(append(recs, record{Placement: 2})) == nil {
		t.Error("runs of two design pools compared")
	}
}

func TestQuantileMatchesPythonExclusive(t *testing.T) {
	// statistics.quantiles([3, 1, 4, 1, 5, 9, 2, 6, 5, 3], n=4) == [1.75, 3.5, 5.25]
	v := []float64{3, 1, 4, 1, 5, 9, 2, 6, 5, 3}
	for i, want := range []float64{1.75, 3.5, 5.25} {
		if got := quantile(v, float64(i+1)/4); got != want {
			t.Errorf("quartile %d = %g, want %g", i+1, got, want)
		}
	}
	if got := median([]float64{2, 8}); got != 5 {
		t.Errorf("median of {2, 8} = %g", got)
	}
}
