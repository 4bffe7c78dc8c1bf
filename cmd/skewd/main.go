// Command skewd is the fault-tolerant optimization service: a daemon
// accepting skew-optimization jobs over HTTP and running them through the
// same flows as skewopt, built to survive panicking jobs, torn journal
// writes, kill -9, and overload (docs/ROBUSTNESS.md).
//
// Usage:
//
//	skewd -addr 127.0.0.1:7077 -spool /var/lib/skewd
//	skewd -addr 127.0.0.1:0 -spool ./spool -workers 4 -queue 16
//
// API:
//
//	POST /jobs              submit a job {design, flow, pairs, iters, ...}
//	GET  /jobs/{id}         job status (state, degradation, fault counts)
//	GET  /jobs/{id}/result  optimized design of a finished job
//	GET  /healthz /readyz /metrics
//
// Lifecycle: SIGTERM/SIGINT starts a graceful drain — admission stops
// (503), in-flight jobs get -drain-timeout to finish, stragglers are
// canceled and suspended via their checkpoints, sinks are flushed. A
// restarted skewd replays the spool's job journal and resumes every job
// the previous process did not finish.
//
// Exit codes: 0 clean drain, 1 startup/serve failure, 2 usage error,
// 3 drain did not settle (a job was still wedged at the deadline).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"skewvar/internal/exp"
	"skewvar/internal/faults"
	"skewvar/internal/obs"
	"skewvar/internal/serve"
)

const (
	exitFailure   = 1
	exitUsage     = 2
	exitUnsettled = 3
)

func main() {
	addr := flag.String("addr", "127.0.0.1:7077", "listen address (host:port; :0 picks a free port)")
	spool := flag.String("spool", "", "spool directory for the job journal and per-job artifacts (required)")
	workers := flag.Int("workers", 2, "worker pool size (concurrent jobs)")
	queue := flag.Int("queue", 8, "max queued jobs before submits are rejected with 429")
	jobTimeout := flag.Duration("job-timeout", 10*time.Minute, "per-job deadline ceiling")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "drain budget before in-flight jobs are canceled and suspended")
	journalBatch := flag.Int("journal-batch", 1, "journal group-commit batch size (1 = fsync per record)")
	journalWindow := flag.Duration("journal-window", 0, "max wait for a journal batch to fill before flushing anyway")
	compactEvery := flag.Int("compact-every", 0, "journal records between snapshot compactions (0 = default 256, negative disables)")
	rate := flag.Float64("rate", 0, "per-tenant admission rate limit in jobs/second (0 = unlimited)")
	burst := flag.Int("burst", 0, "per-tenant admission burst (default: ceil of -rate)")
	modelPath := flag.String("model", "", "trained model bundle (from trainml); trains a quick model if empty")
	faultSpec := flag.String("faults", "", "deterministic fault injection spec, e.g. 'worker-panic:first=1' (testing)")
	faultSeed := flag.Int64("fault-seed", 1, "seed for probabilistic fault injection")
	metricsPath := flag.String("metrics", "", "also write the final server metrics snapshot here on exit")
	flag.Parse()

	if *spool == "" {
		usagef("-spool is required")
	}
	if *workers < 1 || *queue < 1 {
		usagef("-workers and -queue must be >= 1")
	}
	inj, err := faults.Parse(*faultSpec, *faultSeed)
	if err != nil {
		usagef("bad -faults spec: %v", err)
	}

	tech, ch := exp.Technology()
	if *modelPath == "" {
		fmt.Fprintln(os.Stderr, "skewd: no -model given; training a quick ridge predictor")
	}
	model, err := exp.StageModel(context.Background(), *modelPath)
	if err != nil {
		fatalf("%v", err)
	}

	rec := obs.New()
	s, err := serve.New(serve.Config{
		SpoolDir:      *spool,
		Workers:       *workers,
		QueueDepth:    *queue,
		JobTimeout:    *jobTimeout,
		DrainTimeout:  *drainTimeout,
		JournalBatch:  *journalBatch,
		JournalWindow: *journalWindow,
		CompactEvery:  *compactEvery,
		RatePerTenant: *rate,
		RateBurst:     *burst,
		Tech:          tech,
		Char:          ch,
		Model:         model,
		Faults:        inj,
		Obs:           rec,
		RetrySeed:     *faultSeed,
		Logf: func(format string, args ...interface{}) {
			fmt.Fprintf(os.Stderr, "skewd: "+format+"\n", args...)
		},
	})
	if err != nil {
		fatalf("%v", err)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatalf("listening on %s: %v", *addr, err)
	}
	s.Start(ln)
	// The address line is the readiness handshake for scripts and the e2e
	// harness (with -addr :0 it carries the picked port).
	fmt.Fprintf(os.Stderr, "skewd: listening on http://%s (spool %s)\n", ln.Addr(), *spool)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case got := <-sig:
		fmt.Fprintf(os.Stderr, "skewd: %v: draining\n", got)
	case err := <-s.AcceptErr():
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			fatalf("serve: %v", err)
		}
	}

	settled := s.Drain()
	if *metricsPath != "" {
		if err := rec.WriteMetrics(*metricsPath); err != nil {
			fmt.Fprintf(os.Stderr, "skewd: writing metrics: %v\n", err)
			settled = false
		}
	}
	if !settled {
		fmt.Fprintln(os.Stderr, "skewd: drain did not settle; unfinished jobs remain journaled for the next start")
		os.Exit(exitUnsettled)
	}
}

func fatalf(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "skewd: "+format+"\n", args...)
	os.Exit(exitFailure)
}

func usagef(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "skewd: "+format+"\n", args...)
	os.Exit(exitUsage)
}
