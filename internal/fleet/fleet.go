// Package fleet scales skewd out to a multi-replica cluster behind one
// coordinator: jobs are sharded across N skewd-style replicas by
// consistent hashing on the job id, replica failure is detected by
// heartbeats and repaired by journal-based work stealing, and repeated
// dispatch failures quarantine a replica behind a circuit breaker until a
// probe succeeds.
//
// The whole cluster runs in one process ("cluster in one binary",
// cmd/skewfleet): replicas are serve.Server instances on private spool
// directories, and the coordinator calls them directly through a
// transport that injects faults deterministically (faults.RPCDrop,
// faults.HeartbeatDelay, faults.ReplicaCrash), so replica kills, dropped
// RPCs, delayed heartbeats, and partitions all replay by seed.
//
// The failure/repair contract (docs/ROBUSTNESS.md):
//
//   - Shard ownership: a job's home replica is the first live replica at
//     or after hash(job id) on a virtual-node hash ring. Dead and
//     quarantined replicas are skipped, so ownership degrades
//     deterministically as the fleet shrinks.
//   - Failure detection: the coordinator's monitor pings every replica
//     each tick; MissThreshold consecutive failed pings declare it dead.
//   - Fencing, then stealing: a dead replica is fenced (its in-process
//     server is crash-stopped) before its journal is touched — a
//     false-positive detection can therefore never double-run a job. A
//     surviving peer then replays the fenced journal: terminal jobs are
//     adopted (artifacts copied, outcome re-journaled), non-terminal jobs
//     are re-admitted idempotently under their original ids and resume
//     from their flow checkpoints. Steal records appended to the victim's
//     journal make the theft durable and repeatable: a journal a peer
//     already partially stole replays without duplicating a single job.
//   - Quarantine: dispatch failures feed a per-replica circuit breaker
//     (resilience.Breaker). An open breaker takes the replica off the
//     ring; a successful half-open probe (piggybacked on the heartbeat)
//     re-admits it.
//   - Metrics: /metrics serves the associative obs.Merge fold of the
//     coordinator's and every live replica's snapshot — counters and
//     histograms add per-replica, CRDT-counter style.
package fleet

import (
	"fmt"
	"time"

	"skewvar/internal/core"
	"skewvar/internal/faults"
	"skewvar/internal/lut"
	"skewvar/internal/obs"
	"skewvar/internal/tech"
)

// Config tunes a Cluster. Zero values select the documented defaults;
// SpoolDir, Tech, Char, and Model are required.
type Config struct {
	// SpoolDir is the fleet root; replica i keeps its journal and job
	// artifacts in SpoolDir/r<i>.
	SpoolDir string

	Replicas     int           // replica count (default 3)
	Workers      int           // worker pool size per replica (default 2)
	QueueDepth   int           // queued-job bound per replica (default 8)
	JobTimeout   time.Duration // per-job deadline ceiling (default 10m)
	DrainTimeout time.Duration // per-replica drain budget (default 30s)

	// JournalBatch and JournalWindow tune every replica journal's group
	// commit (see serve.Config: the defaults — 1, 0 — are fsync per line,
	// and the admitted-before-ack durability contract is unchanged at any
	// setting, so journal steals see the same admitted-job set).
	JournalBatch  int
	JournalWindow time.Duration

	// CompactEvery is each replica journal's compaction threshold (see
	// serve.Config.CompactEvery; 0 = the serve default, negative
	// disables). Steals keep working against a compacted victim: the
	// snapshot is the fold base its steal records apply over.
	CompactEvery int

	// HeartbeatEvery is the monitor tick period (default 25ms). Every
	// tick pings each replica and advances quarantine cooldowns, so the
	// breaker's call-counted cooldown behaves like a time window.
	HeartbeatEvery time.Duration

	// MissThreshold is how many consecutive failed pings declare a
	// replica dead (default 3).
	MissThreshold int

	// BreakerThreshold / BreakerCooldown tune the per-replica dispatch
	// circuit breakers (defaults 3 and 8; see resilience.BreakerConfig).
	BreakerThreshold int
	BreakerCooldown  int

	Tech  *tech.Tech      // base technology, shared read-only by all replicas
	Char  *lut.Char       // characterized LUTs, shared read-only
	Model core.StageModel // stage model, shared read-only

	// Faults drives the fleet-level injection points rpc-drop,
	// heartbeat-delay, and replica-crash (nil = no injection). Replicas
	// get no injector of their own: fleet chaos is modeled at the
	// coordinator/transport boundary so a (seed, spec) pair replays the
	// same failure sequence regardless of replica goroutine scheduling.
	Faults *faults.Injector

	// Obs receives coordinator-level counters and gauges; /metrics merges
	// it with every live replica's snapshot. Nil disables coordinator
	// instrumentation (replica snapshots are still aggregated).
	Obs *obs.Recorder

	// Seed seeds the breakers' probe jitter and each replica's journal
	// retry jitter (default 1).
	Seed int64

	Logf func(format string, args ...interface{}) // nil = silent
}

func (c *Config) setDefaults() error {
	if c.SpoolDir == "" {
		return fmt.Errorf("fleet: Config.SpoolDir is required")
	}
	if c.Tech == nil || c.Char == nil || c.Model == nil {
		return fmt.Errorf("fleet: Config.Tech, Char, and Model are required")
	}
	if c.Replicas <= 0 {
		c.Replicas = 3
	}
	if c.DrainTimeout <= 0 {
		c.DrainTimeout = 30 * time.Second
	}
	if c.HeartbeatEvery <= 0 {
		c.HeartbeatEvery = 25 * time.Millisecond
	}
	if c.MissThreshold <= 0 {
		c.MissThreshold = 3
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Logf == nil {
		c.Logf = func(string, ...interface{}) {}
	}
	return nil
}
