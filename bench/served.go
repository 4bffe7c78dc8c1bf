package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"time"

	"skewvar/internal/ctree"
	"skewvar/internal/obs"
	"skewvar/internal/serve"
	"skewvar/internal/sta"
	"skewvar/internal/tech"
)

// arrival is one scheduled submission of the served-mix traffic.
type arrival struct {
	at    time.Duration // due time after the window opens
	class int
	doc   int // index into the class's design pool
}

// refPeriod is how often served-mix times the reference computation in
// its window: 7–11% of one CPU, as the reference takes 27–45 ms here.
const refPeriod = 400 * time.Millisecond

// schedule draws the open-loop arrivals: round(rate·seconds) jobs, one at
// a uniformly drawn time in each of as many equal slots of the window, with
// exact class shares in a seeded order and each class cycling over its
// designs. Poisson arrivals made the median latency hinge on the draw: with
// 60% short local jobs the median falls between an unqueued and a queued
// local job, and whether it is queued depends on how the arrivals cluster.
// A two-worker queue simulated with fixed service times (0.30 s local,
// 0.45–0.50 s global-local) spread that median by 27% over seeds 1–10
// with Poisson arrivals, and by 0% with one arrival per slot.
func schedule(ss *servedSpec, seed int64, seconds float64) []arrival {
	rng := rand.New(rand.NewSource(seed))
	n := int(math.Round(ss.rate * seconds))
	var classes []int
	for c, cl := range ss.classes {
		for i := 0; i < n*cl.share/100; i++ {
			classes = append(classes, c)
		}
	}
	for len(classes) < n {
		classes = append(classes, 0)
	}
	rng.Shuffle(len(classes), func(i, j int) { classes[i], classes[j] = classes[j], classes[i] })
	slot := seconds / float64(n)
	next := make([]int, len(ss.classes))
	out := make([]arrival, n)
	for i := range out {
		c := classes[i]
		at := (float64(i) + rng.Float64()) * slot
		out[i] = arrival{at: time.Duration(at * float64(time.Second)), class: c, doc: next[c] % ss.designsPerClass}
		next[c]++
	}
	return out
}

// baseline is an original design's QoR reference, measured once before
// the window opens.
type baseline struct {
	pairs  []ctree.SinkPair
	alphas []float64
	sumVar float64
	skew   []float64
}

func measureBaseline(e *env, doc []byte, npairs int) (baseline, error) {
	d, err := e.read(doc)
	if err != nil {
		return baseline{}, err
	}
	tm, err := e.timer(d)
	if err != nil {
		return baseline{}, err
	}
	b := baseline{pairs: d.TopPairs(npairs)}
	a := tm.Analyze(d.Tree)
	defer a.Release()
	b.alphas = sta.Alphas(a, b.pairs)
	b.sumVar = sta.SumVariation(a, b.alphas, b.pairs)
	for k := 0; k < a.K; k++ {
		b.skew = append(b.skew, sta.MaxAbsSkew(a, k, b.pairs))
	}
	return b, nil
}

// server is one in-process skewd on a loopback port.
type server struct {
	srv *serve.Server
	url string
	dir string
}

func startServer(e *env, dir string, ss *servedSpec) (*server, error) {
	srv, err := serve.New(serve.Config{
		SpoolDir: dir, Workers: ss.workers, QueueDepth: ss.queue,
		Tech: e.tech, Char: e.char, Model: e.model, Obs: obs.New(),
	})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	srv.Start(ln)
	return &server{srv: srv, url: "http://" + ln.Addr().String(), dir: dir}, nil
}

// stop drains the server; it returns once every worker and the accept
// loop have exited.
func (s *server) stop() error {
	if !s.srv.Drain() {
		return fmt.Errorf("skewd drain did not settle")
	}
	<-s.srv.AcceptErr()
	return nil
}

// sent is the load generator's record of one job.
type sent struct {
	id        string
	lag       time.Duration // how late the submission left
	admit     time.Duration // POST → 202
	latency   time.Duration // due time → done seen by the poller
	job       servedJob
	submitErr error
}

// runServed runs served-mix: set up (including skewd itself), drive the
// open-loop schedule through HTTP, then fetch and check every result.
func runServed(ctx context.Context, sp spec, o options) (*outcome, error) {
	ss := sp.served
	base := tech.Default28nm()
	pools := make([][][]byte, len(ss.classes))
	var all [][]byte
	for c, cl := range ss.classes {
		docs, err := genDocs(base, cl.variant, cl.corners, cl.ffs, o.placement, 100*c, ss.designsPerClass)
		if err != nil {
			return nil, err
		}
		pools[c] = docs
		all = append(all, docs...)
	}
	arrivals := schedule(ss, o.seed, o.seconds)
	bodies := make([][]byte, len(arrivals))
	for i, a := range arrivals {
		cl := ss.classes[a.class]
		b, err := json.Marshal(serve.JobRequest{
			Design: pools[a.class][a.doc], Flow: cl.stage, Pairs: cl.pairs, Iters: cl.iters, Workers: 1,
		})
		if err != nil {
			return nil, err
		}
		bodies[i] = b
	}

	out := newOutcome()
	hc := newHostClock()
	// Each set-up starts its own skewd (serve.New and listen are set-up
	// work); all but the last are drained afterwards, outside the timing.
	var srv *server
	var stale []*server
	e, err := setUpAll(ctx, sp.setup, all, hc, out, func(e *env, r int) error {
		if srv != nil {
			stale = append(stale, srv)
		}
		var err error
		srv, err = startServer(e, filepath.Join(o.workDir, fmt.Sprintf("spool%d", r)), ss)
		return err
	})
	for _, s := range stale {
		if serr := s.stop(); serr != nil && err == nil {
			err = serr
		}
	}
	if err != nil {
		if srv != nil {
			srv.stop()
		}
		return nil, err
	}
	if err := startPeakRSS(); err != nil {
		srv.stop()
		return nil, err
	}
	runErr := driveServed(ctx, e, srv, sp, o, pools, arrivals, bodies, hc, out)
	if err := srv.stop(); err != nil && runErr == nil {
		runErr = err
	}
	if runErr != nil {
		return nil, runErr
	}
	out.layer["peak_rss_mb"] = peakRSSMB()
	hc.normalize(out, o.logf)
	return out, nil
}

func driveServed(ctx context.Context, e *env, srv *server, sp spec, o options, pools [][][]byte, arrivals []arrival, bodies [][]byte, hc *hostClock, out *outcome) error {
	ss := sp.served
	bases := make([][]baseline, len(pools))
	for c, docs := range pools {
		for _, doc := range docs {
			b, err := measureBaseline(e, doc, ss.classes[c].pairs)
			if err != nil {
				return err
			}
			bases[c] = append(bases[c], b)
		}
	}
	// Each loop owns one keep-alive connection, so the generator holds two.
	// The timeout bounds a request to a wedged server.
	submitter := &http.Client{Timeout: 30 * time.Second, Transport: &http.Transport{MaxIdleConnsPerHost: 1}}
	poller := &http.Client{Timeout: 30 * time.Second, Transport: &http.Transport{MaxIdleConnsPerHost: 1}}
	defer submitter.CloseIdleConnections()
	defer poller.CloseIdleConnections()

	m0, err := getMetrics(poller, srv.url)
	if err != nil {
		return err
	}
	jobs := make([]sent, len(arrivals))
	a0, c0 := allocMB(), cpuSeconds()
	start := time.Now()
	// Results outlive the window by at most this long before an
	// unfinished job counts as lost.
	deadline := start.Add(time.Duration(o.seconds*float64(time.Second)) + 90*time.Second)
	acked := make(chan int, len(arrivals)) // sized to the sends: never blocks
	var wg sync.WaitGroup
	wg.Add(3)
	// The reference computation runs every refPeriod through the window,
	// on whichever CPU is free. Timed only before and after the window, it
	// missed the host's slowdowns during it (README.md).
	stopRef := make(chan struct{})
	inWindow := len(hc.cpu)
	//lint:ignore poolbound the window's one reference prober, joined by wg below
	go func() {
		defer wg.Done()
		t := time.NewTicker(refPeriod)
		defer t.Stop()
		for {
			select {
			case <-stopRef:
				return
			case <-t.C:
				hc.probe()
			}
		}
	}()
	//lint:ignore poolbound the load generator's one submitter, joined by wg below
	go func() {
		defer wg.Done()
		defer close(acked)
		submit(ctx, submitter, srv.url, start, arrivals, bodies, jobs, acked)
	}()
	var lastDone time.Time
	//lint:ignore poolbound the load generator's one poller, joined by wg below
	go func() {
		defer wg.Done()
		lastDone = poll(ctx, poller, srv.url, start, ss.poll, deadline, arrivals, jobs, acked)
		close(stopRef)
	}()
	wg.Wait()
	cpu, alloc := cpuSeconds()-c0, allocMB()-a0
	for _, c := range hc.cpu[inWindow:] {
		cpu -= c // the reference computation is not the jobs' work
	}
	window := lastDone.Sub(start)
	m1, err := getMetrics(poller, srv.url)
	if err != nil {
		return err
	}
	if err := ctx.Err(); err != nil {
		return err
	}

	var latency, admit, run, queue, lags, norms, ratios []float64
	var jts []jobTrace
	done := 0
	for i := range jobs {
		j := &jobs[i]
		out.attempted++
		lags = append(lags, j.lag.Seconds())
		if j.submitErr != nil {
			out.fail("job %d: %v", i, j.submitErr)
			continue
		}
		if j.job.state == serve.StateDone {
			q, jt, err := collectJob(e, poller, srv, j, bases[arrivals[i].class][arrivals[i].doc], ss.classes[arrivals[i].class].stage)
			if err != nil {
				out.fail("job %d (%s): %v", i, j.id, err)
				continue
			}
			j.job.resultOK = true
			if checkServedJob(j.job) == nil {
				done++
				runS := float64(jt.snap.Histograms["span_ns.flow"].Sum) / 1e9
				latency = append(latency, j.latency.Seconds())
				admit = append(admit, j.admit.Seconds())
				run = append(run, runS)
				queue = append(queue, (j.latency-j.lag-j.admit).Seconds()-runS)
				norms = append(norms, q.norm())
				ratios = append(ratios, q.skewRatioMax())
				jts = append(jts, jt)
				if o.traceOut != "" {
					b, err := os.ReadFile(serve.SpoolArtifact(srv.dir, j.id, "trace.jsonl"))
					if err == nil {
						err = appendBytes(o.traceOut, b)
					}
					if err != nil {
						return err
					}
				}
				continue
			}
		}
		out.fail("job %d (%s): %v", i, j.id, checkServedJob(j.job))
	}
	if done == 0 {
		return errNoJobs
	}
	o.logf("%d of %d jobs done; last result %.1f s after the window opened", done, len(jobs), window.Seconds())
	out.e2e["job_s"] = median(latency)
	out.e2e["cpu_s_per_job"] = cpu / float64(done)
	out.e2e["alloc_mb_per_job"] = alloc / float64(done)
	out.e2e["sumvar_norm"] = mean(norms)
	out.e2e["skew_ratio_max"] = mean(ratios)

	tq := tailQuantile(len(latency))
	out.layer["serve.admit_ms_p50"] = 1e3 * median(admit)
	out.layer["serve.admit_ms_tail"] = 1e3 * quantile(admit, tq)
	out.layer["serve.run_s_p50"] = median(run)
	out.layer["serve.queue_s_p50"] = median(queue)
	out.layer["serve.job_tail_s"] = quantile(latency, tq)
	out.layer["serve.tail_q"] = tq
	out.layer["serve.fsyncs_per_job"] = float64(m1.Counters["serve.journal.fsyncs"]-m0.Counters["serve.journal.fsyncs"]) / float64(len(jobs))
	busy := m1.Histograms["serve.job.duration_ns"].Sum - m0.Histograms["serve.job.duration_ns"].Sum
	out.layer["serve.busy_frac"] = float64(busy) / 1e9 / (float64(ss.workers) * window.Seconds())
	hits := m1.Counters["serve.sta.net_cache.hits"] - m0.Counters["serve.sta.net_cache.hits"]
	misses := m1.Counters["serve.sta.net_cache.misses"] - m0.Counters["serve.sta.net_cache.misses"]
	out.layer["serve.net_cache_hit_rate"] = ratio(float64(hits), float64(hits+misses))
	var failed, lost int
	for _, j := range jobs {
		switch {
		case j.job.acked && j.job.state == "":
			lost++
		case j.job.state != serve.StateDone:
			failed++
		}
	}
	out.layer["serve.jobs_failed"] = float64(failed)
	out.layer["serve.jobs_lost"] = float64(lost)
	out.layer["load.gen_lag_ms_max"] = 1e3 * slices.Max(lags)
	if o.trace {
		jobLayerMetrics(out, jts, o.logf)
		// Every served job is traced inside skewd; there is no untraced
		// twin to compare against. A served job's GlobalResult and its
		// document I/O stay inside skewd.
		out.layer["trace.overhead_frac"] = 0
		out.layer["global.arcs_rebuilt"] = 0
		out.layer["global.sumvar_norm"] = 0
		out.layer["edaio.self_s"] = 0
		return probes(e, pools[0][0], ss.classes[0].pairs, out)
	}
	return nil
}

// submit posts each job at its due time and hands acknowledged ones to the
// poller. A late submission is not skipped: its lag is recorded and its
// latency still counts from the due time.
func submit(ctx context.Context, c *http.Client, url string, start time.Time, arrivals []arrival, bodies [][]byte, jobs []sent, acked chan<- int) {
	for i, a := range arrivals {
		due := start.Add(a.at)
		if d := time.Until(due); d > 0 {
			t := time.NewTimer(d)
			select {
			case <-ctx.Done():
				t.Stop()
				return
			case <-t.C:
			}
		}
		t0 := time.Now()
		jobs[i].lag = t0.Sub(due)
		resp, err := c.Post(url+"/jobs", "application/json", bytes.NewReader(bodies[i]))
		if err != nil {
			jobs[i].submitErr = err
			continue
		}
		var body struct {
			ID string `json:"id"`
		}
		err = json.NewDecoder(resp.Body).Decode(&body)
		resp.Body.Close()
		jobs[i].admit = time.Since(t0)
		if resp.StatusCode != http.StatusAccepted || err != nil || body.ID == "" {
			jobs[i].submitErr = fmt.Errorf("submit answered %s", resp.Status)
			continue
		}
		jobs[i].id = body.ID
		jobs[i].job.acked = true
		acked <- i
	}
}

// poll sweeps the acknowledged, unfinished jobs every period until each
// is terminal or the deadline passes, and returns when the last one was
// seen finishing.
func poll(ctx context.Context, c *http.Client, url string, start time.Time, period time.Duration, deadline time.Time, arrivals []arrival, jobs []sent, acked <-chan int) time.Time {
	var inflight []int
	last := start
	open := true
	for open || len(inflight) > 0 {
	drain:
		for open {
			select {
			case i, ok := <-acked:
				if !ok {
					open = false
					break drain
				}
				inflight = append(inflight, i)
			default:
				break drain
			}
		}
		kept := inflight[:0]
		for _, i := range inflight {
			st, err := getStatus(c, url, jobs[i].id)
			if err == nil && st.State != serve.StateQueued && st.State != serve.StateRunning {
				now := time.Now()
				jobs[i].job.state = st.State
				jobs[i].job.degraded = st.Degraded
				jobs[i].latency = now.Sub(start.Add(arrivals[i].at))
				last = now
				continue
			}
			kept = append(kept, i)
		}
		inflight = kept
		if time.Now().After(deadline) {
			return last // whatever is still in flight is lost
		}
		t := time.NewTimer(period)
		select {
		case <-ctx.Done():
			t.Stop()
			return last
		case <-t.C:
		}
	}
	return last
}

func getStatus(c *http.Client, url, id string) (serve.JobStatus, error) {
	var st serve.JobStatus
	resp, err := c.Get(url + "/jobs/" + id)
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("status answered %s", resp.Status)
	}
	return st, json.NewDecoder(resp.Body).Decode(&st)
}

func getMetrics(c *http.Client, url string) (obs.Snapshot, error) {
	var snap obs.Snapshot
	resp, err := c.Get(url + "/metrics")
	if err != nil {
		return snap, err
	}
	defer resp.Body.Close()
	return snap, json.NewDecoder(resp.Body).Decode(&snap)
}

// collectJob fetches a done job's result over HTTP and its spooled
// metrics and trace, and checks the result against the original design.
func collectJob(e *env, c *http.Client, srv *server, j *sent, b baseline, stage string) (qor, jobTrace, error) {
	var jt jobTrace
	resp, err := c.Get(srv.url + "/jobs/" + j.id + "/result")
	if err != nil {
		return qor{}, jt, err
	}
	doc, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		return qor{}, jt, fmt.Errorf("result answered %s (%v)", resp.Status, err)
	}
	d, err := e.read(doc)
	if err != nil {
		return qor{}, jt, fmt.Errorf("result: %w", err)
	}
	if err := d.Tree.Validate(); err != nil {
		return qor{}, jt, fmt.Errorf("result tree invalid: %w", err)
	}
	tm, err := e.timer(d)
	if err != nil {
		return qor{}, jt, err
	}
	a := tm.Analyze(d.Tree)
	q := qor{sumVar0: b.sumVar, sumVar: sta.SumVariation(a, b.alphas, b.pairs), skew0: b.skew, stages: stagesIn(stage)}
	for k := 0; k < a.K; k++ {
		q.skew = append(q.skew, sta.MaxAbsSkew(a, k, b.pairs))
	}
	a.Release()
	if err := checkQoR(q); err != nil {
		return q, jt, err
	}

	raw, err := os.ReadFile(serve.SpoolArtifact(srv.dir, j.id, "metrics.json"))
	if err != nil {
		return q, jt, err
	}
	var snap obs.Snapshot
	if err := json.Unmarshal(raw, &snap); err != nil {
		return q, jt, fmt.Errorf("job metrics: %w", err)
	}
	f, err := os.Open(serve.SpoolArtifact(srv.dir, j.id, "trace.jsonl"))
	if err != nil {
		return q, jt, err
	}
	defer f.Close()
	recs, err := obs.ReadTrace(f)
	if err != nil {
		return q, jt, err
	}
	jt, err = traceJob(recs, snap)
	return q, jt, err
}
