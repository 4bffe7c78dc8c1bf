package main

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strings"

	"skewvar/internal/obs"
)

// layers are the layers a flow's self time is charged to, in print order.
var layers = []string{"sta", "global", "local", "flow"}

// layerOf maps one of the program's span names to its layer. RunFlows
// opens flow and flow.stage, which also cover the QoR snapshots and the
// power analysis between stages; GlobalOpt, LocalOpt and the timer open
// global.*, local.* and sta.*.
func layerOf(name string) string {
	switch {
	case strings.HasPrefix(name, "sta."):
		return "sta"
	case strings.HasPrefix(name, "global."):
		return "global"
	case strings.HasPrefix(name, "local."):
		return "local"
	}
	return "flow"
}

// layerTimes is one traced job: its flow span's duration and each layer's
// self time within it, in seconds.
type layerTimes struct {
	flow float64
	self map[string]float64
}

// selfTimes charges the self time of every span under the first span
// named "flow" — its duration minus the time its direct children cover —
// to the span's layer. The program records its stage and timer spans as
// separate roots, so nesting is recovered from the time intervals: a job
// runs on one goroutine (Workers=1), so a span that starts inside another
// also ends inside it, and an overlap is an error.
func selfTimes(recs []obs.Record) (layerTimes, error) {
	var spans []obs.Record
	for _, r := range recs {
		if r.Kind == obs.KindSpan {
			spans = append(spans, r)
		}
	}
	sort.SliceStable(spans, func(i, j int) bool {
		if spans[i].Start != spans[j].Start {
			return spans[i].Start < spans[j].Start
		}
		return spans[i].Dur > spans[j].Dur
	})
	lt := layerTimes{self: map[string]float64{}}
	root := -1
	for i := range spans {
		if spans[i].Name == "flow" {
			root = i
			break
		}
	}
	if root < 0 {
		return lt, fmt.Errorf("no flow span in the trace")
	}
	end := func(i int) int64 { return spans[i].Start + spans[i].Dur }
	self := make([]int64, len(spans))
	var stack []int
	for i := root; i < len(spans); i++ {
		if end(i) > end(root) || spans[i].Start >= end(root) {
			continue
		}
		for len(stack) > 0 && spans[i].Start >= end(stack[len(stack)-1]) {
			stack = stack[:len(stack)-1]
		}
		if len(stack) > 0 {
			parent := stack[len(stack)-1]
			if end(i) > end(parent) {
				return lt, fmt.Errorf("span %s overlaps %s without nesting", spans[i].Name, spans[parent].Name)
			}
			self[parent] -= spans[i].Dur
		}
		self[i] += spans[i].Dur
		stack = append(stack, i)
	}
	byLayer := map[string]int64{}
	for i, ns := range self {
		byLayer[layerOf(spans[i].Name)] += ns
	}
	for _, l := range layers {
		lt.self[l] = float64(byLayer[l]) / 1e9
	}
	lt.flow = float64(spans[root].Dur) / 1e9
	return lt, nil
}

// selfSum is the flow time the layers account for.
func (lt layerTimes) selfSum() float64 {
	var sum float64
	for _, l := range layers {
		sum += lt.self[l]
	}
	return sum
}

// jobTrace is what one traced RunFlows job recorded: its own metrics
// snapshot (counters, gauges, span_ns.* histograms), its layer self times
// and its lp.solve events. The flow workloads take it from the recorder
// they passed as FlowConfig.Obs; served-mix from the job's spooled
// metrics.json and trace.jsonl, which skewd writes from the same recorder.
type jobTrace struct {
	snap              obs.Snapshot
	lt                layerTimes
	solves, refactors int
	reverted          int
	rows, cols        float64 // largest LP of the job
}

// traceJob reads one job's records and snapshot, and fails on an LP that
// ended neither optimal nor infeasible.
func traceJob(recs []obs.Record, snap obs.Snapshot) (jobTrace, error) {
	jt := jobTrace{snap: snap}
	for _, r := range recs {
		if r.Name != "lp.solve" {
			continue
		}
		jt.solves++
		for _, at := range r.Attrs {
			switch at.Key {
			case "status":
				if err := checkLPStatus(at.Str); err != nil {
					return jt, err
				}
			case "reverted":
				if at.Str == "yes" {
					jt.reverted++
				}
			case "refactors":
				jt.refactors += int(at.Num)
			case "rows":
				jt.rows = math.Max(jt.rows, at.Num)
			case "cols":
				jt.cols = math.Max(jt.cols, at.Num)
			}
		}
	}
	var err error
	jt.lt, err = selfTimes(recs)
	return jt, err
}

// jobLayerMetrics reports the per-job means of the traced jobs' self
// times, program counters and LP events.
func jobLayerMetrics(out *outcome, jts []jobTrace, logf func(string, ...interface{})) {
	n := float64(len(jts))
	var m obs.Snapshot
	var flow, sum, solves, refactors, reverted, rows, cols, hitRate float64
	self := map[string]float64{}
	for _, jt := range jts {
		m = obs.Merge(m, jt.snap)
		flow += jt.lt.flow
		sum += jt.lt.selfSum()
		for _, l := range layers {
			self[l] += jt.lt.self[l]
		}
		solves += float64(jt.solves)
		refactors += float64(jt.refactors)
		reverted += float64(jt.reverted)
		rows += jt.rows
		cols += jt.cols
		hitRate += jt.snap.Gauges["sta.net_cache.hit_rate"]
	}
	per := func(v int64) float64 { return float64(v) / n }
	hist := func(name string) float64 { return float64(m.Histograms[name].Sum) / 1e9 / n }

	out.layer["flow.traced_s"] = flow / n
	out.layer["sta.self_s"] = self["sta"] / n
	out.layer["global.self_s"] = self["global"] / n
	out.layer["local.self_s"] = self["local"] / n
	out.layer["flow.glue_s"] = self["flow"] / n
	out.layer["trace.self_sum_frac"] = sum / flow
	// The self times partition the flow span by construction; a sum off
	// by more than 5% means the spans did not nest.
	if f := sum / flow; f < 0.95 || f > 1.05 {
		out.fail("layer self times sum to %.3f of the traced flow time", f)
	}
	logf("self time per job, mean over %d traced job(s):", len(jts))
	for _, l := range layers {
		logf("  %-7s %9.4f s  %5.1f%%", l, self[l]/n, 100*self[l]/flow)
	}
	logf("  %-7s %9.4f s", "total", flow/n)

	out.layer["sta.analyses"] = per(m.Counters["sta.analyses"])
	out.layer["sta.analyses_incremental"] = per(m.Counters["sta.analyses_incremental"])
	out.layer["sta.net_cache_hit_rate"] = hitRate / n
	out.layer["global.stage_s"] = hist("span_ns.global.opt")
	out.layer["local.stage_s"] = hist("span_ns.local.opt")
	out.layer["lp.solves"] = solves / n
	out.layer["lp.pivots"] = per(m.Counters["lp.iterations"])
	out.layer["lp.refactors"] = refactors / n
	out.layer["lp.rows"] = rows / n
	out.layer["lp.cols"] = cols / n
	out.layer["lp.pivots_per_s"] = ratio(float64(m.Counters["lp.iterations"]), self["global"])
	out.layer["global.reverted_frac"] = ratio(reverted, solves)
	out.layer["local.moves_enumerated"] = per(m.Counters["local.moves.enumerated"])
	out.layer["local.moves_predicted"] = per(m.Counters["local.moves.predicted"])
	out.layer["local.moves_tried"] = per(m.Counters["local.moves.tried"])
	out.layer["local.moves_accepted"] = per(m.Counters["local.moves.accepted"])
	out.layer["local.accept_rate"] = ratio(float64(m.Counters["local.moves.accepted"]), float64(m.Counters["local.moves.tried"]))
}

// ratio is a/b, or 0 when nothing was attempted.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// appendRecords appends trace records to a JSONL file. Each job has its
// own recorder, so span ids restart with every job's records.
func appendRecords(path string, recs []obs.Record) error {
	var b []byte
	for _, r := range recs {
		line, err := json.Marshal(r)
		if err != nil {
			return err
		}
		b = append(append(b, line...), '\n')
	}
	return appendBytes(path, b)
}
