package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// boundDef is one end-to-end metric of BENCHMARK.json.
type boundDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// readBounds loads the end-to-end metrics and their regression bounds.
func readBounds(path string) ([]boundDef, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var spec struct {
		EndToEnd []boundDef `json:"end_to_end"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(spec.EndToEnd) == 0 {
		return nil, fmt.Errorf("%s lists no end-to-end metrics", path)
	}
	return spec.EndToEnd, nil
}

// readRecords loads the untraced result records of an --out file.
func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for line := 1; sc.Scan(); line++ {
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		if !r.Trace {
			out = append(out, r)
		}
	}
	return out, sc.Err()
}

// arm is one side's values of one metric on one workload, keyed by seed
// for pairing (a seed run twice on one side pairs in run order).
type arm struct {
	vals   []float64
	bySeed map[int64][]float64
}

func collect(recs []record, workload, name string) arm {
	a := arm{bySeed: map[int64][]float64{}}
	for _, r := range recs {
		m, ok := r.Result.Metrics[name]
		if r.Workload != workload || !ok || !r.Result.Correct {
			continue
		}
		a.vals = append(a.vals, m.Value)
		a.bySeed[r.Seed] = append(a.bySeed[r.Seed], m.Value)
	}
	return a
}

// verdict judges arm b (the change) against arm a (the parent) by the
// rule of the choosing-metrics guide, §6 and §8. Every run of one
// placement measures the same designs (the seed only orders the jobs, or
// draws served-mix's arrivals), so a's quartile distance is the spread
// between the parent's repeat runs, not between designs:
//   - unresolved: a's own spread (quartile distance ÷ median) exceeds the
//     bound and not every run of b beats every run of a;
//   - regression: b's median is worse than a's by more than the bound;
//   - gain: b wins at least 9 of 10 seed-paired runs (ties count for
//     neither) and the medians differ by more than a's quartile distance;
//   - unchanged otherwise.
func verdict(a, b arm, d boundDef) (string, int, int) {
	better := func(x, y float64) bool { // x better than y
		if d.Better == "higher" {
			return x > y
		}
		return x < y
	}
	wins, pairs := 0, 0
	seeds := make([]int64, 0, len(a.bySeed))
	for s := range a.bySeed {
		seeds = append(seeds, s)
	}
	sort.Slice(seeds, func(i, j int) bool { return seeds[i] < seeds[j] })
	for _, s := range seeds {
		av, bv := a.bySeed[s], b.bySeed[s]
		for i := 0; i < len(av) && i < len(bv); i++ {
			pairs++
			if better(bv[i], av[i]) {
				wins++
			}
		}
	}
	ma, mb := median(a.vals), median(b.vals)
	iqrA := quantile(a.vals, 0.75) - quantile(a.vals, 0.25)
	allBetter := true
	for _, x := range b.vals {
		for _, y := range a.vals {
			allBetter = allBetter && better(x, y)
		}
	}
	worse := better(ma, mb) && math.Abs(mb-ma) > d.Bound*math.Abs(ma)
	switch {
	case iqrA > d.Bound*math.Abs(ma) && !allBetter:
		return "unresolved", wins, pairs
	case worse:
		return "regression", wins, pairs
	case better(mb, ma) && pairs > 0 && float64(wins) >= 0.9*float64(pairs) && math.Abs(mb-ma) > iqrA:
		return "gain", wins, pairs
	}
	return "unchanged", wins, pairs
}

// compare prints the paired A/B report of two --out files, one row per
// workload × end-to-end metric, and reports whether any row regressed.
func compare(specPath, aPath, bPath string, w io.Writer) (bool, error) {
	defs, err := readBounds(specPath)
	if err != nil {
		return false, err
	}
	ra, err := readRecords(aPath)
	if err != nil {
		return false, err
	}
	rb, err := readRecords(bPath)
	if err != nil {
		return false, err
	}
	if err := onePlacement(append(ra[:len(ra):len(ra)], rb...)); err != nil {
		return false, err
	}
	regressed := false
	fmt.Fprintf(w, "%-14s %-17s %-32s %-32s %7s %6s  %s\n", "workload", "metric", "A median [q1, q3]", "B median [q1, q3]", "B-A", "B wins", "verdict")
	for _, wl := range workloadNames() {
		for _, d := range defs {
			a, b := collect(ra, wl, d.Name), collect(rb, wl, d.Name)
			if len(a.vals) == 0 || len(b.vals) == 0 {
				continue
			}
			v, wins, pairs := verdict(a, b, d)
			regressed = regressed || v == "regression"
			ma, mb := median(a.vals), median(b.vals)
			fmt.Fprintf(w, "%-14s %-17s %-32s %-32s %+6.1f%% %6s  %s (n=%d/%d, bound %.0f%%)\n",
				wl, d.Name, arm3(a.vals, d.Unit), arm3(b.vals, d.Unit), 100*(mb-ma)/math.Abs(ma),
				fmt.Sprintf("%d/%d", wins, pairs), v, len(a.vals), len(b.vals), 100*d.Bound)
		}
	}
	return regressed, nil
}

// onePlacement refuses to compare runs of different design pools: their
// spread would be the spread between designs, not between runs.
func onePlacement(recs []record) error {
	for _, r := range recs {
		if r.Placement != recs[0].Placement {
			return fmt.Errorf("runs of placements %d and %d measure different designs; compare one placement at a time",
				recs[0].Placement, r.Placement)
		}
	}
	return nil
}

// arm3 formats a median with its quartiles.
func arm3(v []float64, unit string) string {
	return fmt.Sprintf("%.4g [%.4g, %.4g] %s", median(v), quantile(v, 0.25), quantile(v, 0.75), unit)
}
