// Command skewopt runs the paper's optimization flows on a design: the
// LP-guided global optimization, the model-guided local iterative
// optimization, or both in sequence (the full framework).
//
// Usage:
//
//	skewopt -design cls1v1.json -flow global-local -model models.json -o optimized.json
//	skewopt -case CLS1v1 -ffs 420 -flow all
//	skewopt -case CLS1v1 -flow all -checkpoint run.ckpt -timeout 10m
//	skewopt -case CLS1v1 -flow all -checkpoint run.ckpt -resume
//
// Exit codes: 0 success, 1 flow failure, 2 usage error, 3 interrupted
// (signal or -timeout; a -checkpoint file, if enabled, holds the progress).
// A run that survived faults prints a DEGRADED warning line on stderr with
// per-class fault counts and still exits 0 — the result is valid, just not
// everything the flow attempted.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof handlers, served behind -pprof
	"os"
	"os/signal"
	"runtime"
	"syscall"

	"skewvar/internal/core"
	"skewvar/internal/ctree"
	"skewvar/internal/edaio"
	"skewvar/internal/edaio/atomicio"
	"skewvar/internal/exp"
	"skewvar/internal/faults"
	"skewvar/internal/obs"
	"skewvar/internal/report"
	"skewvar/internal/resilience"
	"skewvar/internal/sta"
	"skewvar/internal/testgen"
)

const (
	exitFlowFailure = 1
	exitUsage       = 2
	exitInterrupted = 3
)

func main() {
	designPath := flag.String("design", "", "input design JSON (from gentest)")
	caseName := flag.String("case", "", "generate a built-in testcase instead: CLS1v1, CLS1v2, CLS2v1")
	ffs := flag.Int("ffs", 0, "flip-flop count for -case (0 = default)")
	flow := flag.String("flow", "global-local", "flow: global, local, global-local or all")
	modelPath := flag.String("model", "", "trained model bundle (from trainml); trains a quick model if empty")
	pairs := flag.Int("pairs", 300, "top critical pairs in the objective")
	iters := flag.Int("iters", 12, "local-optimization iteration cap")
	out := flag.String("o", "", "write the optimized design JSON here")
	checkpoint := flag.String("checkpoint", "", "checkpoint file for periodic progress saves")
	resume := flag.Bool("resume", false, "resume from the -checkpoint file")
	ckptEvery := flag.Int("checkpoint-every", 1, "local iterations between checkpoint saves")
	timeout := flag.Duration("timeout", 0, "overall flow deadline (0 = none)")
	jobs := flag.Int("j", runtime.GOMAXPROCS(0), "worker count for the local stage's concurrent move trials (1 = exact serial path; results are identical at any -j)")
	faultSpec := flag.String("faults", "", "deterministic fault injection spec, e.g. 'lp-solve:first=1,checkpoint-write:p=0.5' (testing)")
	faultSeed := flag.Int64("fault-seed", 1, "seed for probabilistic fault injection")
	tracePath := flag.String("trace", "", "write a JSONL run trace here (docs/OBSERVABILITY.md)")
	metricsPath := flag.String("metrics", "", "write a JSON metrics snapshot here")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof on this address (e.g. :6060 or 127.0.0.1:0)")
	flag.Parse()

	// Context: Ctrl-C / SIGTERM and -timeout both cancel the flow at the
	// next iteration boundary; the best-so-far result is still reported.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	var stages []string
	switch *flow {
	case "all":
		stages = nil // all three
	case "global", "local", "global-local":
		stages = []string{*flow}
	default:
		usagef("unknown flow %q (want global, local, global-local or all)", *flow)
	}
	inj, err := faults.Parse(*faultSpec, *faultSeed)
	if err != nil {
		usagef("bad -faults spec: %v", err)
	}
	if *resume && *checkpoint == "" {
		usagef("-resume needs -checkpoint")
	}

	// Instrumentation is opt-in: the recorder stays nil (every obs call a
	// no-op) unless a sink was requested.
	var rec *obs.Recorder
	if *tracePath != "" || *metricsPath != "" {
		rec = obs.New()
	}
	if *pprofAddr != "" {
		ln, err := net.Listen("tcp", *pprofAddr)
		if err != nil {
			usagef("-pprof %s: %v", *pprofAddr, err)
		}
		fmt.Fprintf(os.Stderr, "skewopt: pprof on http://%s/debug/pprof/\n", ln.Addr())
		// The pprof server must outlive every flow stage, so it cannot run
		// inside the bounded worker pools; it dies with the process.
		//lint:ignore poolbound pprof listener is process-lifetime by design
		go func() { _ = http.Serve(ln, nil) }()
	}

	d, tm := loadDesign(*designPath, *caseName, *ffs)
	_, ch := exp.Technology()
	if *modelPath == "" {
		fmt.Fprintln(os.Stderr, "skewopt: no -model given; training a quick ridge predictor")
	}
	model, err := exp.StageModel(ctx, *modelPath)
	if err != nil {
		fatalf("%v", err)
	}

	var cp *core.Checkpoint
	if *resume {
		cp, err = core.LoadCheckpoint(*checkpoint)
		if err != nil {
			// A truncated or bit-flipped checkpoint must not strand the
			// run: warn and start fresh — the flow is deterministic, so a
			// fresh run reaches the same result, just without the head
			// start.
			fmt.Fprintf(os.Stderr, "skewopt: resume: checkpoint unusable (%v); starting fresh\n", err)
			cp = nil
		} else {
			fmt.Fprintf(os.Stderr, "skewopt: resuming from %s (done: %v, stage %q at iter %d)\n",
				*checkpoint, cp.Done, cp.Stage, cp.Iter)
		}
	}

	if *jobs < 1 {
		usagef("-j must be >= 1 (got %d)", *jobs)
	}
	pairSet := d.TopPairs(*pairs)
	a0 := tm.Analyze(d.Tree)
	alphas := sta.Alphas(a0, pairSet)
	fmt.Printf("design %s: %d sinks, %d pairs (top %d used), alphas %.3v\n",
		d.Name, len(d.Tree.Sinks()), len(d.Pairs), len(pairSet), alphas)

	res, err := core.RunFlows(ctx, tm, ch, d, model, core.FlowConfig{
		TopPairs: *pairs,
		Global:   core.GlobalConfig{MaxPairsPerLP: *pairs},
		Local:    core.LocalConfig{MaxIters: *iters},
		Only:     stages,
		Workers:  *jobs,
		Faults:   inj,
		Checkpoint: core.CheckpointConfig{
			Path:       *checkpoint,
			EveryIters: *ckptEvery,
		},
		Resume: cp,
		Obs:    rec,
		Logf: func(format string, args ...interface{}) {
			fmt.Fprintf(os.Stderr, "skewopt: "+format+"\n", args...)
		},
	})
	// Sinks are written for interrupted runs too: a canceled flow's partial
	// trace is often exactly what the operator wants to look at.
	writeObs := func() bool {
		ok := true
		if *tracePath != "" {
			if err := rec.WriteTrace(*tracePath); err != nil {
				fmt.Fprintf(os.Stderr, "skewopt: writing trace: %v\n", err)
				ok = false
			}
		}
		if *metricsPath != "" {
			if err := rec.WriteMetrics(*metricsPath); err != nil {
				fmt.Fprintf(os.Stderr, "skewopt: writing metrics: %v\n", err)
				ok = false
			}
		}
		return ok
	}
	interrupted := errors.Is(err, resilience.ErrCanceled)
	if err != nil && !interrupted {
		fatalf("flows: %v", err)
	}
	if res == nil {
		fatalf("flows returned no result")
	}
	obsOK := writeObs()

	tb := &report.Table{
		Title:   "skew variation results",
		Headers: []string{"Flow", "Variation(ps)", "[norm]", "Skew@c0", "Skew@c1", "Skew@c2/3", "#Cells", "Power(mW)"},
	}
	addRow(tb, "orig", res.Orig)
	final := res.Trees["orig"]
	for _, stage := range core.FlowStages {
		tree, ok := res.Trees[stage]
		if !ok {
			continue
		}
		var m core.Metrics
		switch stage {
		case "global":
			m = res.Global
		case "local":
			m = res.Local
		case "global-local":
			m = res.GLocal
		}
		addRow(tb, stage, m)
		final = tree
	}
	fmt.Println(tb.Render())

	if res.Degraded {
		fmt.Fprintf(os.Stderr, "skewopt: DEGRADED: flow absorbed faults (%s); result is valid but reduced\n",
			resilience.FormatCounts(res.Faults))
	}
	if *out != "" && final != nil {
		od := d.Clone()
		od.Tree = final
		if err := atomicio.WriteFile(*out, func(w io.Writer) error {
			return edaio.WriteDesign(w, od)
		}); err != nil {
			fatalf("writing optimized design: %v", err)
		}
	}
	if interrupted {
		fmt.Fprintf(os.Stderr, "skewopt: interrupted (%v); best-so-far result reported above\n", err)
		if *checkpoint != "" {
			fmt.Fprintf(os.Stderr, "skewopt: rerun with -resume to continue from %s\n", *checkpoint)
		}
		os.Exit(exitInterrupted)
	}
	// A requested -trace/-metrics artifact that failed to write fails the
	// run, like -o does; interrupted runs keep exit 3 (the warning stands).
	if !obsOK {
		os.Exit(exitFlowFailure)
	}
}

func addRow(tb *report.Table, flow string, m core.Metrics) {
	skew23 := "-"
	if len(m.SkewPS) > 2 {
		skew23 = fmt.Sprintf("%.0f", m.SkewPS[2])
	}
	tb.AddRowf(flow,
		fmt.Sprintf("%.0f", m.SumVarPS), fmt.Sprintf("[%.2f]", m.Norm),
		fmt.Sprintf("%.0f", m.SkewPS[0]), fmt.Sprintf("%.0f", m.SkewPS[1]),
		skew23, m.NumCells, fmt.Sprintf("%.3f", m.PowerMW))
}

func loadDesign(path, caseName string, ffs int) (*ctree.Design, *sta.Timer) {
	base, _ := exp.Technology()
	if path != "" {
		f, err := os.Open(path)
		if err != nil {
			fatalf("opening %s: %v", path, err)
		}
		defer f.Close()
		d, err := edaio.ReadDesign(f, edaio.WithCells(func(name string) bool {
			return base.CellByName(name) != nil
		}))
		if err != nil {
			fatalf("reading design: %v", err)
		}
		view, err := base.SubCorners(d.CornerNames...)
		if err != nil {
			fatalf("corner view: %v", err)
		}
		return d, sta.New(view)
	}
	var v testgen.Variant
	switch caseName {
	case "CLS1v1":
		v = testgen.CLS1v1(ffs)
	case "CLS1v2":
		v = testgen.CLS1v2(ffs)
	case "CLS2v1":
		v = testgen.CLS2v1(ffs)
	default:
		usagef("need -design or a valid -case (got %q)", caseName)
	}
	d, tm, err := testgen.Build(base, v)
	if err != nil {
		fatalf("building %s: %v", v.Name, err)
	}
	return d, tm
}

func fatalf(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "skewopt: "+format+"\n", args...)
	os.Exit(exitFlowFailure)
}

func usagef(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "skewopt: "+format+"\n", args...)
	os.Exit(exitUsage)
}
