// Command skewload is a deterministic load generator for a live skewd or
// skewfleet daemon: it slams POST /jobs with a seeded arrival pattern and
// reports admission throughput, fsync amortization, and admission latency
// quantiles — the observables the journal group-commit work moves.
//
// Usage:
//
//	skewload -addr http://127.0.0.1:7077 -design d.json -jobs 64 -clients 8
//	skewload -addr ... -design d.json -pattern hotkey -tenants 8 -seed 3
//
// The tenant of each request is drawn from a seeded generator before any
// client starts, so a (seed, pattern, jobs) triple always produces the
// same request sequence whatever the goroutine scheduling:
//
//	uniform  every tenant equally likely
//	hotkey   one hot tenant takes -hot of the traffic, the rest uniform
//
// After the run every acknowledged job id is fetched back; an acked id
// the daemon no longer knows is a lost job and exits 1 — the load run
// doubles as a durability check. Results go to stdout both human-readable
// and as "OBSMETRIC name=value" lines, which the load-e2e harness
// (internal/clitest) parses:
//
//	OBSMETRIC skewload.jobs_per_sec=412.7
//	OBSMETRIC skewload.fsyncs_per_job=0.18
//	OBSMETRIC skewload.admit_p99_us=1834
//
// Exit codes: 0 success, 1 lost/failed jobs or no successful admissions,
// 2 usage error.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"skewvar/internal/obs"
)

const (
	exitFailure = 1
	exitUsage   = 2
)

func main() {
	addr := flag.String("addr", "", "base URL of a running skewd/skewfleet, e.g. http://127.0.0.1:7077 (required)")
	designPath := flag.String("design", "", "design document to submit with every job (required)")
	jobs := flag.Int("jobs", 64, "total jobs to submit")
	clients := flag.Int("clients", 8, "concurrent submitters")
	pattern := flag.String("pattern", "uniform", "tenant arrival pattern: uniform or hotkey")
	tenants := flag.Int("tenants", 4, "distinct tenants (X-Tenant values t0..tN-1)")
	hot := flag.Float64("hot", 0.8, "traffic share of tenant t0 under -pattern hotkey")
	seed := flag.Int64("seed", 1, "seed for the arrival pattern")
	flow := flag.String("flow", "local", "flow requested for every job")
	pairs := flag.Int("pairs", 40, "pairs knob for every job")
	iters := flag.Int("iters", 2, "iters knob for every job")
	retries := flag.Int("retries", 50, "max retries per job on 429/503 backpressure")
	flag.Parse()

	if *addr == "" || *designPath == "" {
		usagef("-addr and -design are required")
	}
	if *jobs < 1 || *clients < 1 || *tenants < 1 {
		usagef("-jobs, -clients, and -tenants must be >= 1")
	}
	design, err := os.ReadFile(*designPath)
	if err != nil {
		fatalf("reading design: %v", err)
	}
	body, err := json.Marshal(map[string]interface{}{
		"design": json.RawMessage(design), "flow": *flow, "pairs": *pairs, "iters": *iters,
	})
	if err != nil {
		fatalf("encoding job body: %v", err)
	}

	// The whole arrival schedule is drawn up front from one seeded
	// generator: the i-th job's tenant is fixed before any client runs.
	rng := rand.New(rand.NewSource(*seed))
	tenantOf := make([]string, *jobs)
	for i := range tenantOf {
		switch *pattern {
		case "uniform":
			tenantOf[i] = fmt.Sprintf("t%d", rng.Intn(*tenants))
		case "hotkey":
			if rng.Float64() < *hot || *tenants == 1 {
				tenantOf[i] = "t0"
			} else {
				tenantOf[i] = fmt.Sprintf("t%d", 1+rng.Intn(*tenants-1))
			}
		default:
			usagef("unknown -pattern %q (want uniform or hotkey)", *pattern)
		}
	}

	before, err := fetchMetrics(*addr)
	if err != nil {
		fatalf("fetching /metrics: %v", err)
	}

	rec := obs.New()
	lat := rec.Histogram("skewload.admit_ns")
	var acked sync.Map // id -> true
	var ackedN, rejected429, rejected503, failed atomic.Int64

	start := time.Now()
	runClients(*clients, *jobs, func(i int) {
		id, status := submitWithRetry(*addr, tenantOf[i], body, *retries, lat)
		switch {
		case id != "":
			acked.Store(id, true)
			ackedN.Add(1)
		case status == http.StatusTooManyRequests:
			rejected429.Add(1)
		case status == http.StatusServiceUnavailable:
			rejected503.Add(1)
		default:
			failed.Add(1)
		}
	})
	elapsed := time.Since(start)

	after, err := fetchMetrics(*addr)
	if err != nil {
		fatalf("fetching /metrics after the run: %v", err)
	}

	// Durability audit: every acknowledged id must still be known.
	lost := 0
	acked.Range(func(k, _ interface{}) bool {
		resp, err := http.Get(*addr + "/jobs/" + k.(string))
		if err != nil || resp.StatusCode != http.StatusOK {
			fmt.Fprintf(os.Stderr, "skewload: acked job %s not retrievable (err=%v)\n", k, err)
			lost++
		}
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
		return true
	})

	n := ackedN.Load()
	fsyncs := after.Counters["serve.journal.fsyncs"] - before.Counters["serve.journal.fsyncs"]
	throttled := after.Counters["serve.jobs.rejected.ratelimited"] - before.Counters["serve.jobs.rejected.ratelimited"]
	h := rec.Snapshot().Histograms["skewload.admit_ns"]
	jobsPerSec := float64(n) / elapsed.Seconds()
	fsyncsPerJob := 0.0
	if n > 0 {
		fsyncsPerJob = float64(fsyncs) / float64(n)
	}

	fmt.Printf("skewload: %d/%d jobs admitted in %v (%.1f jobs/s), %d fsyncs (%.3f per job), 429=%d 503=%d failed=%d lost=%d\n",
		n, *jobs, elapsed.Round(time.Millisecond), jobsPerSec, fsyncs, fsyncsPerJob,
		rejected429.Load(), rejected503.Load(), failed.Load(), lost)
	fmt.Printf("skewload: admission latency p50=%dus p95=%dus p99=%dus\n",
		h.Quantile(0.50)/1000, h.Quantile(0.95)/1000, h.Quantile(0.99)/1000)

	fmt.Printf("OBSMETRIC skewload.jobs_per_sec=%.3f skewload.fsyncs_per_sec=%.3f skewload.fsyncs_per_job=%.4f\n",
		jobsPerSec, float64(fsyncs)/elapsed.Seconds(), fsyncsPerJob)
	fmt.Printf("OBSMETRIC skewload.admit_p50_us=%d skewload.admit_p95_us=%d skewload.admit_p99_us=%d\n",
		h.Quantile(0.50)/1000, h.Quantile(0.95)/1000, h.Quantile(0.99)/1000)
	fmt.Printf("OBSMETRIC skewload.acked=%d skewload.rejected_429=%d skewload.throttled_429s=%d skewload.lost=%d\n",
		n, rejected429.Load(), throttled, lost)

	if lost > 0 || failed.Load() > 0 || n == 0 {
		os.Exit(exitFailure)
	}
}

// runClients fans fn out over a bounded pool of client goroutines pulling
// job indices from a shared counter; it returns only after every index
// has been processed, so the pool is fully drained.
func runClients(clients, jobs int, fn func(i int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= jobs {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// submitWithRetry posts one job, retrying backpressure rejections with a
// short linear backoff. Only the final, successful attempt's round trip
// is recorded in the latency histogram — retries measure the server's
// queue, not its admission path. Returns the acked id ("" on failure)
// and the last HTTP status.
func submitWithRetry(addr, tenant string, body []byte, retries int, lat *obs.Histogram) (string, int) {
	status := 0
	for attempt := 0; attempt <= retries; attempt++ {
		req, err := http.NewRequest("POST", addr+"/jobs", bytes.NewReader(body))
		if err != nil {
			return "", 0
		}
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set("X-Tenant", tenant)
		t0 := time.Now()
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			return "", 0
		}
		rt := time.Since(t0)
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		status = resp.StatusCode
		if status == http.StatusAccepted {
			lat.Observe(int64(rt))
			var m map[string]string
			if json.Unmarshal(b, &m) == nil && m["id"] != "" {
				return m["id"], status
			}
			return "", status
		}
		if status != http.StatusTooManyRequests && status != http.StatusServiceUnavailable {
			return "", status
		}
		time.Sleep(time.Duration(attempt+1) * 2 * time.Millisecond)
	}
	return "", status
}

// fetchMetrics reads the daemon's /metrics snapshot (skewfleet serves the
// merged fold of its replicas, so the fsync counters aggregate the same
// way).
func fetchMetrics(addr string) (obs.Snapshot, error) {
	var snap obs.Snapshot
	resp, err := http.Get(addr + "/metrics")
	if err != nil {
		return snap, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return snap, fmt.Errorf("GET /metrics: status %d", resp.StatusCode)
	}
	err = json.NewDecoder(resp.Body).Decode(&snap)
	return snap, err
}

func fatalf(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "skewload: "+format+"\n", args...)
	os.Exit(exitFailure)
}

func usagef(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "skewload: "+format+"\n", args...)
	os.Exit(exitUsage)
}
