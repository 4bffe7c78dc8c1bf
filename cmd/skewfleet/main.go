// Command skewfleet runs a fault-tolerant skewd fleet in one process: a
// coordinator sharding jobs across N replicas by consistent hashing,
// with heartbeat failure detection, circuit-breaker quarantine, and
// journal-based work stealing when a replica dies (docs/ROBUSTNESS.md).
//
// Usage:
//
//	skewfleet -addr 127.0.0.1:7078 -spool /var/lib/skewfleet -replicas 3
//	skewfleet -addr 127.0.0.1:0 -spool ./spool -replicas 3 -workers 2
//
// API (skewd's, plus fleet introspection and chaos admin):
//
//	POST /jobs                    submit a job {design, flow, pairs, ...}
//	GET  /jobs/{id}               job status (+ owning replica)
//	GET  /jobs/{id}/result        optimized design of a finished job
//	GET  /replicas                per-replica health/quarantine/load
//	GET  /healthz /readyz /metrics
//	POST /admin/crash/{replica}   crash-stop a replica (chaos testing)
//	POST /admin/restart/{replica} restart it (journal replays; stolen
//	                              jobs stay with their thieves)
//
// Lifecycle: SIGTERM/SIGINT drains every replica; suspended jobs are
// journaled and resume on the next start. A restarted skewfleet replays
// every replica's journal and completes any steal a crash interrupted.
//
// Exit codes: 0 clean drain, 1 startup/serve failure, 2 usage error,
// 3 drain did not settle.
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
	"skewvar/internal/fleet"
	"skewvar/internal/obs"
)

const (
	exitFailure   = 1
	exitUsage     = 2
	exitUnsettled = 3
)

func main() {
	addr := flag.String("addr", "127.0.0.1:7078", "listen address (host:port; :0 picks a free port)")
	spool := flag.String("spool", "", "fleet spool root; replica i journals under <spool>/r<i> (required)")
	replicas := flag.Int("replicas", 3, "replica count")
	workers := flag.Int("workers", 2, "worker pool size per replica")
	queue := flag.Int("queue", 8, "max queued jobs per replica before dispatch moves on")
	jobTimeout := flag.Duration("job-timeout", 10*time.Minute, "per-job deadline ceiling")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "per-replica drain budget")
	journalBatch := flag.Int("journal-batch", 1, "replica journal group-commit batch size (1 = fsync per record)")
	journalWindow := flag.Duration("journal-window", 0, "max wait for a replica journal batch to fill before flushing anyway")
	heartbeat := flag.Duration("heartbeat", 25*time.Millisecond, "heartbeat tick period")
	missThreshold := flag.Int("miss-threshold", 3, "consecutive missed heartbeats before a replica is declared dead")
	modelPath := flag.String("model", "", "trained model bundle (from trainml); trains a quick model if empty")
	faultSpec := flag.String("faults", "", "deterministic fault spec, e.g. 'replica-crash:at=2' (testing)")
	faultSeed := flag.Int64("fault-seed", 1, "seed for probabilistic faults and breaker jitter")
	metricsPath := flag.String("metrics", "", "also write the final fleet-merged metrics snapshot here on exit")
	flag.Parse()

	if *spool == "" {
		usagef("-spool is required")
	}
	if *replicas < 1 || *workers < 1 || *queue < 1 {
		usagef("-replicas, -workers, and -queue must be >= 1")
	}
	inj, err := faults.Parse(*faultSpec, *faultSeed)
	if err != nil {
		usagef("bad -faults spec: %v", err)
	}

	tech, ch := exp.Technology()
	if *modelPath == "" {
		fmt.Fprintln(os.Stderr, "skewfleet: no -model given; training a quick ridge predictor")
	}
	model, err := exp.StageModel(context.Background(), *modelPath)
	if err != nil {
		fatalf("%v", err)
	}

	rec := obs.New()
	c, err := fleet.New(fleet.Config{
		SpoolDir:       *spool,
		Replicas:       *replicas,
		Workers:        *workers,
		QueueDepth:     *queue,
		JobTimeout:     *jobTimeout,
		DrainTimeout:   *drainTimeout,
		JournalBatch:   *journalBatch,
		JournalWindow:  *journalWindow,
		HeartbeatEvery: *heartbeat,
		MissThreshold:  *missThreshold,
		Tech:           tech,
		Char:           ch,
		Model:          model,
		Faults:         inj,
		Obs:            rec,
		Seed:           *faultSeed,
		Logf: func(format string, args ...interface{}) {
			fmt.Fprintf(os.Stderr, "skewfleet: "+format+"\n", args...)
		},
	})
	if err != nil {
		fatalf("%v", err)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatalf("listening on %s: %v", *addr, err)
	}
	c.StartHTTP(ln)
	// The address line is the readiness handshake for scripts and the e2e
	// harness (with -addr :0 it carries the picked port).
	fmt.Fprintf(os.Stderr, "skewfleet: listening on http://%s (spool %s, %d replicas)\n",
		ln.Addr(), *spool, *replicas)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case got := <-sig:
		fmt.Fprintf(os.Stderr, "skewfleet: %v: draining\n", got)
	case err := <-c.AcceptErr():
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			fatalf("serve: %v", err)
		}
	}

	c.ShutdownHTTP()
	settled := c.Drain()
	if *metricsPath != "" {
		if err := obs.WriteSnapshot(*metricsPath, c.Metrics()); err != nil {
			fmt.Fprintf(os.Stderr, "skewfleet: writing metrics: %v\n", err)
			settled = false
		}
	}
	if !settled {
		fmt.Fprintln(os.Stderr, "skewfleet: drain did not settle; unfinished jobs remain journaled for the next start")
		os.Exit(exitUnsettled)
	}
}

func fatalf(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "skewfleet: "+format+"\n", args...)
	os.Exit(exitFailure)
}

func usagef(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "skewfleet: "+format+"\n", args...)
	os.Exit(exitUsage)
}
