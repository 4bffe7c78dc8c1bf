// Command bench is the pipeline benchmark of this repository: four seeded
// workloads driven through the public entry points of every layer — design
// I/O (edaio), predictor training (core dataset, ml), STA, the LP global
// stage, the local stage (enumerate, predict, golden trials), the flow
// runner, and the skewd service over loopback HTTP. Every run checks the
// outputs it measures and ends its standard output with one JSON line:
//
//	{"correct":true,"attempted":12,"failed":0,"metrics":{"job_s":{"value":1.02,"unit":"s"},...}}
//
// An untraced run (--trace 0) reports the end-to-end metrics; a traced run
// (--trace 1) records each job's spans and counters in an obs.Recorder of
// its own and reports the per-layer metrics instead (metrics.go lists both;
// README.md maps each layer metric to the end-to-end metric it should move).
//
// Usage, from the repository root (run.sh builds the module first):
//
//	bash bench/run.sh --workload global-lp --seed 1 --seconds 12 --trace 0
//	bash bench/run.sh --seed 2 --out runs.jsonl     # every workload, one child process each
//	bash bench/run.sh --compare a.jsonl b.jsonl     # paired A/B report against BENCHMARK.json bounds
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"os/signal"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"runtime/pprof"
	"strings"
	"syscall"
)

const (
	exitFailed = 1 // a check failed or the workload could not run
	exitUsage  = 2
)

// options are one run's settings, shared by the command line and tests.
type options struct {
	seed      int64 // orders the flow jobs; draws served-mix's arrivals
	placement int64 // picks the design pool
	seconds   float64
	trace     bool
	traceOut  string // traced spans as JSONL (traced runs only)
	workDir   string // scratch space for the skewd spool
	logf      func(format string, args ...interface{})
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line every run prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// record is one line of an --out file: a result with the run that made it.
type record struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Placement int64              `json:"placement"`
	Seconds   int                `json:"seconds"`
	Trace     bool               `json:"trace"`
	Host      host               `json:"host"`
	Result    result             `json:"result"`
	Raw       map[string]float64 `json:"raw,omitempty"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	wl := fs.String("workload", "", "workload to run (empty: every workload, each in a child process)")
	seed := fs.Int64("seed", 1, "input seed: orders the flow jobs and draws served-mix's arrival schedule")
	placement := fs.Int64("placement", 1, "design pool: 1 is the documented testcases; another value places every design anew")
	seconds := fs.Int("seconds", 12, "measurement window per run, seconds")
	trace := fs.Int("trace", 0, "1: traced run reporting per-layer metrics; 0: untraced end-to-end run")
	traceOut := fs.String("trace-out", "", "traced runs: write the recorded spans here as JSONL")
	out := fs.String("out", "", "append this run's result record (with the host record) to this JSONL file")
	cmp := fs.Bool("compare", false, "compare two --out files: bench --compare a.jsonl b.jsonl")
	specPath := fs.String("spec", "BENCHMARK.json", "benchmark definition holding the regression bounds (--compare)")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile of the run here (go tool pprof -top -cum FILE)")
	if err := fs.Parse(args); err != nil {
		return exitUsage
	}
	if *cmp {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: --compare needs two result files")
			return exitUsage
		}
		regressed, err := compare(*specPath, fs.Arg(0), fs.Arg(1), stdout)
		if err != nil {
			fmt.Fprintf(stderr, "bench: compare: %v\n", err)
			return exitFailed
		}
		if regressed {
			return exitFailed
		}
		return 0
	}
	if fs.NArg() != 0 || *seed < 1 || *placement < 1 || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "bench: want --seed >= 1, --placement >= 1, --seconds >= 1, --trace 0|1 and no positional arguments")
		return exitUsage
	}
	if *wl == "" {
		if *cpuProfile != "" {
			fmt.Fprintln(stderr, "bench: --cpuprofile profiles one workload; name it with --workload")
			return exitUsage
		}
		child := []string{"--seed", fmt.Sprint(*seed), "--placement", fmt.Sprint(*placement),
			"--seconds", fmt.Sprint(*seconds), "--trace", fmt.Sprint(*trace)}
		if *out != "" {
			child = append(child, "--out", *out)
		}
		return runAll(child, *traceOut, stdout, stderr)
	}
	sp, ok := lookup(*wl)
	if !ok {
		fmt.Fprintf(stderr, "bench: unknown workload %q (want %s)\n", *wl, strings.Join(workloadNames(), ", "))
		return exitUsage
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return exitFailed
	}
	work, err := os.MkdirTemp(".bench_build", "run-")
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return exitFailed
	}
	defer os.RemoveAll(work)

	opts := options{
		seed: *seed, placement: *placement, seconds: float64(*seconds), trace: *trace == 1,
		traceOut: *traceOut, workDir: work,
		logf: func(format string, a ...interface{}) { fmt.Fprintf(stderr, "bench: "+format+"\n", a...) },
	}
	if sp.flow != nil {
		// The flows run serially (Workers=1), so a second P would only
		// host the concurrent GC; on a 2-vCPU host with a busy neighbour
		// that cross-CPU coupling tripled the spread of one design's job
		// time (31% → 10%). One P keeps the measurement to the flow's work.
		runtime.GOMAXPROCS(1)
	}
	var prof *os.File
	if *cpuProfile != "" {
		if prof, err = os.Create(*cpuProfile); err == nil {
			err = pprof.StartCPUProfile(prof)
		}
		if err != nil {
			fmt.Fprintf(stderr, "bench: CPU profile: %v\n", err)
			return exitFailed
		}
	}
	h := hostBefore()
	o, err := runWorkload(ctx, sp, opts)
	h.after()
	if prof != nil {
		pprof.StopCPUProfile()
		if cerr := prof.Close(); cerr != nil {
			fmt.Fprintf(stderr, "bench: writing the CPU profile: %v\n", cerr)
			return exitFailed
		}
	}
	hj, _ := json.Marshal(h)
	fmt.Fprintf(stderr, "bench: host %s\n", hj)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %s: %v\n", sp.name, err)
		return exitFailed
	}
	res := o.result(opts.trace)
	for _, p := range o.problems {
		fmt.Fprintf(stderr, "bench: CHECK FAILED: %s\n", p)
	}
	if *out != "" {
		rec := record{Workload: sp.name, Seed: *seed, Placement: *placement, Seconds: *seconds, Trace: opts.trace, Host: h, Result: res, Raw: o.raw}
		if err := appendJSONLine(*out, rec); err != nil {
			fmt.Fprintf(stderr, "bench: writing %s: %v\n", *out, err)
			return exitFailed
		}
	}
	printMetrics(stdout, res)
	line, _ := json.Marshal(res)
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return exitFailed
	}
	return 0
}

// runAll runs every workload in a fresh child process, so the technology,
// the model, net caches and peak RSS never carry over from one workload to
// the next. Each child prints its own result line; the last line here
// folds them into one. A --trace-out file gets one copy per workload,
// suffixed with the workload's name.
func runAll(args []string, traceOut string, stdout, stderr io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return exitFailed
	}
	total := result{Correct: true, Metrics: map[string]metric{}}
	for _, name := range workloadNames() {
		childArgs := append([]string{"--workload", name}, args...)
		if traceOut != "" {
			childArgs = append(childArgs, "--trace-out", traceOut+"."+name)
		}
		var buf strings.Builder
		cmd := exec.Command(self, childArgs...)
		cmd.Stdout = io.MultiWriter(stdout, &buf)
		cmd.Stderr = stderr
		runErr := cmd.Run()
		var r result
		lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
			fmt.Fprintf(stderr, "bench: %s: no result (%v)\n", name, runErr)
			total.Correct = false
			continue
		}
		total.Correct = total.Correct && r.Correct && runErr == nil
		total.Attempted += r.Attempted
		total.Failed += r.Failed
		for k, m := range r.Metrics {
			total.Metrics[name+"/"+k] = m
		}
	}
	line, _ := json.Marshal(total)
	fmt.Fprintln(stdout, string(line))
	if !total.Correct {
		return exitFailed
	}
	return 0
}

// outcome collects what one workload run measured and checked.
type outcome struct {
	e2e, layer map[string]float64
	raw        map[string]float64 // end-to-end times before normalization
	attempted  int
	failed     int
	problems   []string // one line per failed check
}

func newOutcome() *outcome {
	return &outcome{e2e: map[string]float64{}, layer: map[string]float64{}}
}

// fail records a failed job or check.
func (o *outcome) fail(format string, args ...interface{}) {
	o.failed++
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

// result renders the outcome: every end-to-end metric for untraced runs,
// every per-layer metric for traced ones. A metric the run could not
// measure is a failed check, never a silent zero.
func (o *outcome) result(traced bool) result {
	defs, vals := endToEnd, o.e2e
	if traced {
		defs, vals = perLayer, o.layer
	}
	r := result{Attempted: o.attempted, Failed: o.failed, Metrics: map[string]metric{}}
	for _, d := range defs {
		v, ok := vals[d.name]
		if !ok || math.IsNaN(v) {
			o.fail("metric %s was not measured", d.name)
			r.Failed = o.failed
			v = 0
		}
		r.Metrics[d.name] = metric{Value: v, Unit: d.unit}
	}
	if r.Attempted < 1 {
		r.Attempted = 1
		o.fail("no job was attempted")
		r.Failed = o.failed
	}
	r.Correct = len(o.problems) == 0
	return r
}

// printMetrics prints one "name value unit" line per metric, in table order.
func printMetrics(w io.Writer, r result) {
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			if m, ok := r.Metrics[d.name]; ok {
				fmt.Fprintf(w, "%-30s %14.6g %s\n", d.name, m.Value, m.Unit)
			}
		}
	}
}

func appendJSONLine(path string, v interface{}) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	return appendBytes(path, append(b, '\n'))
}

// appendBytes appends b to the file at path, creating it if needed.
func appendBytes(path string, b []byte) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(b); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// host records the machine a result was measured on. The load average is
// read before and after the run: a busy neighbour shows up there.
type host struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPUModel   string `json:"cpu_model"`
	GoVersion  string `json:"go_version"`
	LoadBefore string `json:"loadavg_before"`
	LoadAfter  string `json:"loadavg_after"`
}

func hostBefore() host {
	h := host{
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), LoadBefore: loadavg(),
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, l := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(l, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	return h
}

func (h *host) after() { h.LoadAfter = loadavg() }

func loadavg() string {
	b, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return ""
	}
	f := strings.Fields(string(b))
	if len(f) < 3 {
		return ""
	}
	return strings.Join(f[:3], " ")
}

// cpuSeconds is the process's user+sys CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// startPeakRSS starts the peak_rss_mb window: set-up garbage is collected
// and returned to the OS, then the kernel's peak-RSS mark is reset to the
// current resident set (Linux clear_refs "5"), so the peak reported at the
// end is what the measured jobs held on top of what set-up left live.
func startPeakRSS() error {
	debug.FreeOSMemory()
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return fmt.Errorf("resetting the peak-RSS mark: %w", err)
	}
	return nil
}

// allocMB is the heap the process has allocated so far, in MB.
func allocMB() float64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64()) / (1 << 20)
}

// peakRSSMB is the process's peak resident set since startPeakRSS (Linux
// reports KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

var errNoJobs = errors.New("no job completed")
