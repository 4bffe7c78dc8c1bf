package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"time"

	"skewvar/internal/core"
	"skewvar/internal/ctree"
	"skewvar/internal/eco"
	"skewvar/internal/edaio"
	"skewvar/internal/obs"
	"skewvar/internal/sta"
	"skewvar/internal/tech"
)

// runFlows runs a flow workload: set up, then either the untraced
// measurement (end-to-end metrics) or the traced one (per-layer metrics).
func runFlows(ctx context.Context, sp spec, o options) (*outcome, error) {
	fs := sp.flow
	docs, err := genDocs(tech.Default28nm(), fs.variant, fs.corners, fs.ffs, o.placement, 0, fs.pool)
	if err != nil {
		return nil, err
	}
	out := newOutcome()
	hc := newHostClock()
	e, err := setUpAll(ctx, sp.setup, docs, hc, out, nil)
	if err != nil {
		return nil, err
	}
	if err := startPeakRSS(); err != nil {
		return nil, err
	}
	// The seed orders the jobs. The pool itself stays put, so that QoR and
	// time per job compare from one run to the next.
	order := rand.New(rand.NewSource(o.seed)).Perm(len(docs))
	if o.trace {
		err = traceFlows(ctx, e, docs, order, fs, o, hc, out)
	} else {
		err = measureFlows(ctx, e, docs, order, fs, o, hc, out)
	}
	if err != nil {
		return nil, err
	}
	out.layer["peak_rss_mb"] = peakRSSMB()
	hc.normalize(out, o.logf)
	return out, nil
}

// flowConfig is the flow configuration skewopt and skewd build from the
// same knobs, at Workers=1.
func flowConfig(fs *flowSpec) core.FlowConfig {
	return core.FlowConfig{
		TopPairs: fs.pairs,
		Global:   core.GlobalConfig{MaxPairsPerLP: fs.pairs},
		Local:    core.LocalConfig{MaxIters: fs.iters},
		Only:     []string{fs.stage},
		Workers:  1,
	}
}

// stageOf picks the stage's metrics from a flow result.
func stageOf(res *core.FlowResult, stage string) core.Metrics {
	switch stage {
	case "global":
		return res.Global
	case "local":
		return res.Local
	}
	return res.GLocal
}

func stagesIn(stage string) int {
	if stage == "global-local" {
		return 2
	}
	return 1
}

// flowRun is one job: design document in, result document out.
type flowRun struct {
	wall, cpu float64 // the whole job
	alloc     float64 // MB allocated by the whole job
	flowWall  float64 // RunFlows alone
	res       *core.FlowResult
	final     *ctree.Tree
	out       []byte
}

// flowJob takes one design document to its optimized result document,
// the way skewopt -design -o does. rec, when set, is the flow's Obs
// recorder: RunFlows then records its spans, LP events and counters there.
func flowJob(ctx context.Context, e *env, doc []byte, fs *flowSpec, rec *obs.Recorder) (*flowRun, error) {
	a0, c0, w0 := allocMB(), cpuSeconds(), time.Now()
	d, err := e.read(doc)
	if err != nil {
		return nil, err
	}
	tm, err := e.timer(d)
	if err != nil {
		return nil, err
	}
	cfg := flowConfig(fs)
	cfg.Obs = rec
	f0 := time.Now()
	res, err := core.RunFlows(ctx, tm, e.char, d, e.model, cfg)
	if err != nil {
		return nil, err
	}
	flowWall := time.Since(f0).Seconds()
	final := res.Trees[fs.stage]
	if final == nil {
		return nil, fmt.Errorf("flow returned no %s tree", fs.stage)
	}
	od := d.Clone()
	od.Tree = final
	var buf bytes.Buffer
	if err := edaio.WriteDesign(&buf, od); err != nil {
		return nil, err
	}
	wall, cpu := time.Since(w0).Seconds(), cpuSeconds()-c0
	return &flowRun{
		wall: wall, cpu: cpu, alloc: allocMB() - a0, flowWall: flowWall,
		res: res, final: final, out: buf.Bytes(),
	}, nil
}

// checkFlow holds one job's result to the flow contract and returns its QoR.
func checkFlow(e *env, r *flowRun, fs *flowSpec) (qor, error) {
	m := stageOf(r.res, fs.stage)
	q := qor{sumVar0: r.res.Orig.SumVarPS, sumVar: m.SumVarPS, skew0: r.res.Orig.SkewPS, skew: m.SkewPS, stages: stagesIn(fs.stage)}
	if err := r.final.Validate(); err != nil {
		return q, fmt.Errorf("result tree invalid: %w", err)
	}
	if r.res.Degraded {
		return q, fmt.Errorf("flow degraded: %v", r.res.Faults)
	}
	if r.res.GRes != nil {
		for _, st := range r.res.GRes.LPStats {
			if err := checkLPStatus(st.Status.String()); err != nil {
				return q, fmt.Errorf("LP block %d at U=%.2f: %w", st.Block, st.UFrac, err)
			}
		}
	}
	if err := checkQoR(q); err != nil {
		return q, err
	}
	// The result document must carry the tree the flow measured.
	rd, err := e.read(r.out)
	if err != nil {
		return q, fmt.Errorf("result document: %w", err)
	}
	tm, err := e.timer(rd)
	if err != nil {
		return q, err
	}
	a := tm.Analyze(rd.Tree)
	v := sta.SumVariation(a, r.res.Alphas, rd.TopPairs(fs.pairs))
	a.Release()
	if math.Abs(v-m.SumVarPS) > 1e-9*q.sumVar0 {
		return q, fmt.Errorf("result document re-times to ΣV %.9g ps, the flow reported %.9g ps", v, m.SumVarPS)
	}
	return q, nil
}

// measureFlows cycles over the design pool in the seeded order until the
// window closes, after at least one full pass. job_s and cpu_s_per_job are
// the mean over the pool of each design's median, so every design weighs
// the same however many times it ran.
func measureFlows(ctx context.Context, e *env, docs [][]byte, order []int, fs *flowSpec, o options, hc *hostClock, out *outcome) error {
	window := time.Duration(o.seconds * float64(time.Second))
	wall := make([][]float64, len(docs))
	cpu := make([][]float64, len(docs))
	alloc := make([][]float64, len(docs))
	var norms, ratios []float64
	start := time.Now()
	for pass := 0; pass == 0 || time.Since(start) < window; pass++ {
		for _, i := range order {
			if pass > 0 && time.Since(start) >= window {
				break
			}
			if err := ctx.Err(); err != nil {
				return err
			}
			hc.probe()
			out.attempted++
			r, err := flowJob(ctx, e, docs[i], fs, nil)
			if err != nil {
				out.fail("design %d: %v", i, err)
				continue
			}
			wall[i] = append(wall[i], r.wall)
			cpu[i] = append(cpu[i], r.cpu)
			alloc[i] = append(alloc[i], r.alloc)
			if pass > 0 {
				continue
			}
			q, err := checkFlow(e, r, fs)
			if err != nil {
				out.fail("design %d: %v", i, err)
				continue
			}
			norms = append(norms, q.norm())
			ratios = append(ratios, q.skewRatioMax())
		}
	}
	var jobWall, jobCPU, jobAlloc []float64
	for i := range docs {
		if len(wall[i]) > 0 {
			jobWall = append(jobWall, median(wall[i]))
			jobCPU = append(jobCPU, median(cpu[i]))
			jobAlloc = append(jobAlloc, median(alloc[i]))
		}
	}
	o.logf("%d jobs over %d designs in %.1f s", out.attempted, len(docs), time.Since(start).Seconds())
	out.e2e["job_s"] = mean(jobWall)
	out.e2e["cpu_s_per_job"] = mean(jobCPU)
	out.e2e["alloc_mb_per_job"] = mean(jobAlloc)
	out.e2e["sumvar_norm"] = mean(norms)
	out.e2e["skew_ratio_max"] = mean(ratios)
	return nil
}

// traceFlows runs each design of the pool in the seeded order, untraced and
// then traced with a recorder of its own as FlowConfig.Obs, until the
// window closes (at least one design). It checks that tracing changed
// nothing and reports the per-layer metrics.
func traceFlows(ctx context.Context, e *env, docs [][]byte, order []int, fs *flowSpec, o options, hc *hostClock, out *outcome) error {
	window := time.Duration(o.seconds * float64(time.Second))
	var jts []jobTrace
	var walls []float64
	var untraced, traced, edaioS, arcs, gnorm float64
	start := time.Now()
	for n, i := range order {
		if n > 0 && time.Since(start) >= window {
			break
		}
		hc.probe()
		out.attempted++
		r, err := flowJob(ctx, e, docs[i], fs, nil)
		if err != nil {
			out.fail("design %d: %v", i, err)
			continue
		}
		if _, err := checkFlow(e, r, fs); err != nil {
			out.fail("design %d: %v", i, err)
		}
		rec := obs.New()
		t, err := flowJob(ctx, e, docs[i], fs, rec)
		if err != nil {
			out.fail("design %d traced: %v", i, err)
			continue
		}
		got, want := stageOf(t.res, fs.stage).SumVarPS, stageOf(r.res, fs.stage).SumVarPS
		if math.Float64bits(got) != math.Float64bits(want) {
			out.fail("design %d: traced ΣV %.17g ps differs from the untraced flow's %.17g ps", i, got, want)
		}
		jt, err := traceJob(rec.Records(), rec.Snapshot())
		if err != nil {
			out.fail("design %d traced: %v", i, err)
			continue
		}
		walls = append(walls, r.wall)
		untraced += r.flowWall
		traced += jt.lt.flow
		edaioS += t.wall - t.flowWall
		if g := t.res.GRes; g != nil {
			arcs += float64(g.ArcsRebuilt)
			gnorm += g.SumVar / g.SumVar0
		}
		jts = append(jts, jt)
		if o.traceOut != "" {
			if err := appendRecords(o.traceOut, rec.Records()); err != nil {
				return err
			}
		}
	}
	if len(jts) == 0 {
		return errNoJobs
	}
	n := float64(len(jts))
	out.e2e["job_s"] = mean(walls) // reported as job_wall_s
	jobLayerMetrics(out, jts, o.logf)
	out.layer["trace.overhead_frac"] = traced/untraced - 1
	out.layer["edaio.self_s"] = edaioS / n
	out.layer["global.arcs_rebuilt"] = arcs / n
	out.layer["global.sumvar_norm"] = gnorm / n
	// The flow workloads never reach skewd.
	for _, d := range perLayer {
		if strings.HasPrefix(d.name, "serve.") || strings.HasPrefix(d.name, "load.") {
			out.layer[d.name] = 0
		}
	}
	if err := probes(e, docs[order[0]], fs.pairs, out); err != nil {
		return fmt.Errorf("probes: %w", err)
	}
	return nil
}

// probes time single layer calls on one design: a warm re-analysis, move
// enumeration, the predictor on a fixed sample of up to 2000 moves, and
// golden trials of the 20 moves it ranks highest.
func probes(e *env, doc []byte, npairs int, out *outcome) error {
	d, err := e.read(doc)
	if err != nil {
		return err
	}
	tm, err := e.timer(d)
	if err != nil {
		return err
	}
	tm.Workers = 1
	pairs := d.TopPairs(npairs)
	a := tm.Analyze(d.Tree)
	alphas := sta.Alphas(a, pairs)
	a.Release()
	var warm []float64
	for i := 0; i < 20; i++ {
		t := time.Now()
		tm.Analyze(d.Tree).Release()
		warm = append(warm, time.Since(t).Seconds())
	}
	out.layer["sta.analyze_warm_ms"] = 1e3 * median(warm)

	t := time.Now()
	var moves []eco.Move
	for _, b := range d.Tree.Buffers() {
		moves = append(moves, eco.Enumerate(d.Tree, tm.Tech, b, d.Die)...)
	}
	if len(moves) == 0 {
		return fmt.Errorf("no candidate moves")
	}
	out.layer["local.enumerate_us_per_move"] = 1e6 * time.Since(t).Seconds() / float64(len(moves))
	if len(moves) > 2000 {
		moves = moves[:2000]
	}

	sc := core.NewMoveScorer(tm, d.Tree, d.Die, alphas, pairs, e.model)
	gains := make([]float64, len(moves))
	t = time.Now()
	for i, mv := range moves {
		gains[i] = sc.Gain(mv)
	}
	out.layer["local.gain_us_per_move"] = 1e6 * time.Since(t).Seconds() / float64(len(moves))

	order := make([]int, len(moves))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(i, j int) bool { return gains[order[i]] > gains[order[j]] })
	if len(order) > 20 {
		order = order[:20]
	}
	var golden []float64
	for _, i := range order {
		t := time.Now()
		core.ActualMoveGain(tm, d.Tree, d.Die, alphas, pairs, moves[i])
		golden = append(golden, time.Since(t).Seconds())
	}
	out.layer["local.golden_ms_per_trial"] = 1e3 * mean(golden)
	return nil
}
