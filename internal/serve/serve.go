// Package serve is the long-lived optimization service behind cmd/skewd:
// it accepts optimization jobs (a design plus flow configuration, as
// JSON over HTTP), runs them through core.RunFlows on a bounded worker
// pool, and is built to survive everything the flow layer can throw at it
// — slow jobs, panicking jobs, torn journal writes, and kill -9.
//
// The robustness contract (docs/ROBUSTNESS.md):
//
//   - Admission control with backpressure: the queue is bounded; a full
//     queue rejects with HTTP 429 and a Retry-After header, an invalid
//     design with 400, a draining server with 503. Accepted jobs are
//     durably journaled before the 202 is written — a job the client was
//     told about survives a crash.
//   - Per-job isolation: every job runs under resilience.Safely; a
//     panicking job becomes a typed failure ("panic" class) on that job
//     and never takes down the daemon.
//   - Crash-safe journal: an append-only journal of checksummed JSON lines
//     (atomicio.GroupAppender: fsync per line by default, group commit
//     when JournalBatch > 1; seeded-jitter retries) records every submit,
//     start, finish, and suspend. On startup the journal is replayed:
//     jobs without a terminal record are re-enqueued and resume from
//     their flow checkpoints; a corrupt checkpoint falls back to a fresh
//     run (the flows are deterministic, so the result is identical).
//   - Graceful drain: SIGTERM stops admission, lets in-flight jobs finish
//     within the drain budget, then cancels them — the flow layer
//     checkpoints on cancellation and the jobs are suspended for the next
//     process to resume. All sinks are flushed before exit.
package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"skewvar/internal/core"
	"skewvar/internal/ctree"
	"skewvar/internal/edaio"
	"skewvar/internal/edaio/atomicio"
	"skewvar/internal/faults"
	"skewvar/internal/lut"
	"skewvar/internal/obs"
	"skewvar/internal/resilience"
	"skewvar/internal/sta"
	"skewvar/internal/tech"
)

// Job states, as reported by GET /jobs/{id}.
const (
	StateQueued    = "queued"    // journaled, waiting for a worker
	StateRunning   = "running"   // a worker is executing the flow
	StateDone      = "done"      // finished; result available
	StateFailed    = "failed"    // flow error or recovered panic (terminal)
	StateCanceled  = "canceled"  // per-job deadline exceeded (terminal)
	StateSuspended = "suspended" // drain checkpointed it; resumes on restart
)

// Config tunes a Server. Zero values select the documented defaults;
// SpoolDir, Tech, Char, and Model are required.
type Config struct {
	// SpoolDir holds the job journal and all per-job artifacts
	// (<id>.ckpt, <id>.out.json, <id>.trace.jsonl, <id>.metrics.json).
	SpoolDir string

	Workers      int           // worker pool size (default 2)
	QueueDepth   int           // max queued (not yet running) jobs (default 8)
	JobTimeout   time.Duration // per-job deadline ceiling (default 10m)
	DrainTimeout time.Duration // budget for jobs to finish on drain (default 30s)
	MaxJobBytes  int64         // request body cap for POST /jobs (default 32MiB)

	// JournalBatch and JournalWindow tune journal group commit: up to
	// JournalBatch records share one write+fsync, and a record waits at
	// most JournalWindow for its batch to fill before the flush runs
	// anyway. The defaults (1, 0) keep the fsync-per-line discipline.
	// The durability contract is identical in every configuration: a
	// submission is acknowledged (202) only after the fsync covering its
	// submit record returned — batching moves fsyncs, never the ack.
	JournalBatch  int
	JournalWindow time.Duration

	// RatePerTenant and RateBurst arm per-tenant token-bucket admission
	// rate limiting on POST /jobs (RatePerTenant <= 0 disables it, the
	// default). The tenant is the request's X-Tenant header ("anon" when
	// absent). Each tenant's bucket holds RateBurst tokens (default:
	// ceil(RatePerTenant)) refilled at RatePerTenant tokens/second; a
	// drained bucket rejects with 429 and a Retry-After derived from the
	// bucket's refill deficit. RateClock injects the limiter's clock for
	// deterministic tests (nil = process-monotonic wall clock).
	RatePerTenant float64
	RateBurst     int
	RateClock     obs.Clock

	// Clock times job execution (the serve.job.duration_ns histogram) and
	// drain-budget polling (nil = process-monotonic wall clock). Injected
	// so tests can pin latency readings; it is deliberately separate from
	// RateClock — advancing a fake admission clock must not distort job
	// duration metrics.
	Clock obs.Clock

	Tech  *tech.Tech      // base technology designs are validated against
	Char  *lut.Char       // characterized LUTs for the global stage
	Model core.StageModel // stage model shared read-only across jobs

	// Faults drives the service-level injection points job-journal-write,
	// worker-panic, and slow-job (nil = no injection). It is deliberately
	// NOT threaded into the flows: concurrent jobs each install their own
	// trace observer, and a shared flow injector would interleave their
	// fault events nondeterministically.
	Faults *faults.Injector

	// Obs receives the server-level counters and gauges served by
	// /metrics (nil = all instrumentation no-ops). Per-job traces use
	// per-job recorders and land in the spool, never here.
	Obs *obs.Recorder

	// RetrySeed seeds the jittered backoff of journal-write retries
	// (default 1). Determinism: a given (seed, failure sequence) replays
	// the same wait schedule.
	RetrySeed int64

	// FS is the filesystem the journal, snapshot, and scrub paths go
	// through (nil = the real OS). Tests inject atomicio.WithFaults here;
	// when Faults is armed with storage hooks (disk-full, fsync-error,
	// read-corrupt, rename-torn) and FS is nil, the server wraps the OS
	// filesystem itself so -faults specs reach the storage seam.
	FS atomicio.FS

	// CompactEvery triggers journal compaction (snapshot + truncated
	// journal swap) once the running appender has written that many lines
	// (default 256; negative disables compaction). Startup compacts first
	// when the replayed journal already holds at least CompactEvery
	// records, and a clean drain compacts on the same threshold, so
	// replay work is bounded across restarts.
	CompactEvery int

	Logf func(format string, args ...interface{}) // nil = silent
}

func (c *Config) setDefaults() error {
	if c.SpoolDir == "" {
		return fmt.Errorf("serve: Config.SpoolDir is required")
	}
	if c.Tech == nil || c.Char == nil || c.Model == nil {
		return fmt.Errorf("serve: Config.Tech, Char, and Model are required")
	}
	if c.Workers <= 0 {
		c.Workers = 2
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 8
	}
	if c.JobTimeout <= 0 {
		c.JobTimeout = 10 * time.Minute
	}
	if c.DrainTimeout <= 0 {
		c.DrainTimeout = 30 * time.Second
	}
	if c.MaxJobBytes <= 0 {
		c.MaxJobBytes = 32 << 20
	}
	if c.JournalBatch <= 0 {
		c.JournalBatch = 1
	}
	if c.RateBurst <= 0 && c.RatePerTenant > 0 {
		c.RateBurst = int(c.RatePerTenant)
		if float64(c.RateBurst) < c.RatePerTenant {
			c.RateBurst++
		}
	}
	if c.RetrySeed == 0 {
		c.RetrySeed = 1
	}
	if c.CompactEvery == 0 {
		c.CompactEvery = 256
	}
	if c.FS == nil {
		c.FS = atomicio.OS
		if c.Faults != nil {
			c.FS = atomicio.WithFaults(atomicio.OS, c.Faults.Fire)
		}
	}
	if c.Clock == nil {
		c.Clock = wallClockNS{}
	}
	if c.Logf == nil {
		c.Logf = func(string, ...interface{}) {}
	}
	return nil
}

// JobRequest is the POST /jobs body: an edaio design document plus the
// flow knobs skewopt exposes as flags.
type JobRequest struct {
	Design json.RawMessage `json:"design"`

	Flow    string `json:"flow,omitempty"`    // global, local, global-local, or all (default global-local)
	Pairs   int    `json:"pairs,omitempty"`   // top critical pairs in the objective (default 300)
	Iters   int    `json:"iters,omitempty"`   // local-optimization iteration cap (default 12)
	Workers int    `json:"workers,omitempty"` // intra-job parallelism (default 1; results identical at any setting)

	// TimeoutMS shortens the per-job deadline below the server's
	// JobTimeout ceiling (0 = use the ceiling; larger values are capped).
	TimeoutMS int64 `json:"timeout_ms,omitempty"`

	// CheckpointEvery is the local-iteration period of mid-stage
	// checkpoint saves (default 1; large values effectively restrict
	// checkpoints to stage boundaries).
	CheckpointEvery int `json:"checkpoint_every,omitempty"`
}

// JobStatus is the GET /jobs/{id} body.
type JobStatus struct {
	ID       string         `json:"id"`
	State    string         `json:"state"`
	Flow     string         `json:"flow"`
	Attempts int            `json:"attempts,omitempty"` // run attempts incl. replayed ones
	Degraded bool           `json:"degraded,omitempty"`
	Faults   map[string]int `json:"faults,omitempty"`
	Class    string         `json:"class,omitempty"` // error taxonomy class when failed/canceled
	Error    string         `json:"error,omitempty"`
}

// job is the in-memory record of one submission. Mutable fields are
// guarded by the server mutex.
type job struct {
	id  string
	raw []byte // original request body, as journaled

	req    JobRequest
	resume *core.Checkpoint // replayed checkpoint (consumed by the next run)

	state    string
	attempts int
	degraded bool
	faults   map[string]int
	class    string
	errMsg   string

	// admitted, when non-nil, is closed once the job's submit record is
	// durable (or admission failed and the job was withdrawn — absence
	// from the job table after the close is how waiters tell). Replayed
	// jobs are durable by construction and leave it nil; admitted and
	// adopted jobs carry it while their records are journaling.
	// Idempotent re-admissions block on it so no caller is ever told
	// about a job whose submit has not yet been fsynced.
	admitted chan struct{}
}

// Server is the optimization service. Construct with New, start with
// Start, stop with Drain.
type Server struct {
	cfg  Config
	logf func(string, ...interface{})

	jl      *journal
	limiter *tenantLimiter // nil when rate limiting is disabled

	httpSrv   *http.Server
	acceptErr chan error

	// hardCtx dies when drained jobs are forcibly canceled; pickCtx (a
	// child) dies as soon as a drain begins, stopping job pickup.
	hardCtx    context.Context
	hardCancel context.CancelFunc
	pickCtx    context.Context
	pickCancel context.CancelFunc

	queue      chan *job
	draining   atomic.Bool
	crashed    atomic.Bool // kill -9 simulation armed by Crash (fleet harness)
	compacting atomic.Bool // one compaction at a time; extra triggers skip

	// views shares per-corner-signature technology sub-views and STA net
	// caches across jobs (see netcache.go).
	views *viewCache

	mu      sync.Mutex
	jobs    map[string]*job
	order   []string // submission order, for deterministic listings/replay
	queued  int      // jobs in StateQueued (admission bound)
	running int      // jobs in StateRunning
	active  int      // live worker goroutines
	submits int      // submit records ever journaled (job ID source)
}

// New opens (creating if needed) the spool directory, scrubs and
// replays the snapshot + job journal, and prepares — but does not start
// — the service. Jobs that were queued or running when the previous
// process died are re-admitted and will resume from their checkpoints
// once Start is called. Recovery heals everything a crash can leave:
// torn tails are truncated, corrupt mid-journal lines are quarantined, a
// half-finished compaction swap is completed. A corrupt snapshot is not
// locally repairable and fails construction with a typed
// resilience.ErrStorage.
func New(cfg Config) (*Server, error) {
	if err := cfg.setDefaults(); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(cfg.SpoolDir, 0o755); err != nil {
		return nil, fmt.Errorf("serve: creating spool %s: %w", cfg.SpoolDir, err)
	}
	s := &Server{
		cfg:   cfg,
		logf:  cfg.Logf,
		jobs:  map[string]*job{},
		views: newViewCache(),
	}
	s.hardCtx, s.hardCancel = context.WithCancel(context.Background())
	s.pickCtx, s.pickCancel = context.WithCancel(s.hardCtx)

	st, err := loadSpool(cfg.FS, cfg.SpoolDir, true)
	if err != nil {
		return nil, err
	}
	s.reportScrub(st.scrub)
	// Bound replay across restarts: fold an oversized journal into the
	// snapshot before opening it for appends. A failed compaction is
	// survivable — re-heal (the swap may have half-landed) and serve from
	// the uncompacted state.
	if cfg.CompactEvery > 0 && st.scrub.records >= cfg.CompactEvery {
		if cerr := compactSpool(cfg.FS, cfg.SpoolDir, nil); cerr != nil {
			s.logf("startup: compaction failed (%v); healing and continuing", cerr)
			if _, herr := loadSpool(cfg.FS, cfg.SpoolDir, true); herr != nil {
				return nil, herr
			}
		} else {
			s.counter("serve.journal.compactions").Add(1)
		}
	}
	pending := s.replay(st.entries)
	jl, err := openJournal(cfg.FS, filepath.Join(cfg.SpoolDir, journalName), cfg.Faults, cfg.RetrySeed,
		journalTuning{batch: cfg.JournalBatch, window: cfg.JournalWindow, obs: cfg.Obs}, st.seq)
	if err != nil {
		return nil, err
	}
	s.jl = jl
	if cfg.RatePerTenant > 0 {
		s.limiter = newTenantLimiter(cfg.RatePerTenant, cfg.RateBurst, cfg.RateClock)
	}

	// Channel slack: admission bounds the queue to QueueDepth, replayed
	// jobs bypass admission, and workers may momentarily hold one more.
	s.queue = make(chan *job, cfg.QueueDepth+len(pending)+cfg.Workers+1)
	for _, j := range pending {
		s.queued++
		s.queue <- j
	}
	s.counter("serve.jobs.replayed").Add(int64(len(pending)))
	s.setQueueGauges()
	if len(pending) > 0 {
		s.logf("replayed %d unfinished job(s) from %s", len(pending), cfg.SpoolDir)
	}
	return s, nil
}

// reportScrub logs and counts what spool recovery found and fixed.
func (s *Server) reportScrub(sc scrubStats) {
	if sc.quarantined > 0 {
		s.logf("scrub: quarantined %d corrupt journal line(s) to %s", sc.quarantined, quarantineName)
		s.counter("serve.journal.scrub.quarantined").Add(int64(sc.quarantined))
	}
	if sc.tornHealed {
		s.logf("scrub: healed a torn journal tail")
		s.counter("serve.journal.scrub.torn_healed").Add(1)
	}
	if sc.staleHealed {
		s.logf("scrub: completed an interrupted compaction swap")
		s.counter("serve.journal.scrub.stale_healed").Add(1)
	}
}

// Start launches the worker pool and begins serving HTTP on ln.
func (s *Server) Start(ln net.Listener) {
	s.startWorkers()
	s.startAccept(ln)
}

// AcceptErr reports the HTTP accept loop's exit (http.ErrServerClosed
// after a drain). Valid after Start.
func (s *Server) AcceptErr() <-chan error { return s.acceptErr }

// drainGrace bounds the wait for jobs to observe forced cancellation and
// checkpoint themselves after the drain budget expires.
const drainGrace = 15 * time.Second

// Drain executes the graceful shutdown sequence: stop admission, give
// in-flight jobs DrainTimeout to finish on their own, forcibly cancel the
// stragglers (the flow layer checkpoints on cancellation and the jobs are
// journaled as suspended), flush every sink, and stop the HTTP server.
// It reports whether everything settled — false means a worker was still
// wedged when the grace period expired.
func (s *Server) Drain() bool {
	if !s.draining.CompareAndSwap(false, true) {
		return true
	}
	s.logf("drain: admission stopped; waiting up to %v for %d running job(s)",
		s.cfg.DrainTimeout, s.snapshotRunning())
	s.pickCancel()

	settled := s.waitWorkers(s.cfg.DrainTimeout)
	if !settled {
		s.logf("drain: budget exhausted; canceling in-flight jobs for checkpointed suspension")
		s.hardCancel()
		settled = s.waitWorkers(drainGrace)
	}

	if s.httpSrv != nil {
		sctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		if err := s.httpSrv.Shutdown(sctx); err != nil {
			s.logf("drain: http shutdown: %v", err)
		}
	}
	s.hardCancel()
	lines := s.jl.lines()
	if err := s.jl.Close(); err != nil {
		s.logf("drain: closing journal: %v", err)
		settled = false
	}
	// A clean shutdown with an oversized journal folds it into the
	// snapshot so the next start replays a short tail. Skipped when
	// anything is unsettled — compaction requires exclusive, quiescent
	// ownership of the spool.
	if settled && !s.crashed.Load() && s.cfg.CompactEvery > 0 && lines >= int64(s.cfg.CompactEvery) {
		if err := compactSpool(s.cfg.FS, s.cfg.SpoolDir, nil); err != nil {
			s.logf("drain: compaction failed: %v", err)
		} else {
			s.counter("serve.journal.compactions").Add(1)
		}
	}
	s.logf("drain: complete (settled=%v)", settled)
	return settled
}

// waitWorkers polls until every worker goroutine has exited or the budget
// elapses.
func (s *Server) waitWorkers(budget time.Duration) bool {
	deadline := s.cfg.Clock.Now() + budget.Nanoseconds()
	for {
		s.mu.Lock()
		n := s.active
		s.mu.Unlock()
		if n == 0 {
			return true
		}
		if s.cfg.Clock.Now() >= deadline {
			return false
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func (s *Server) snapshotRunning() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.running
}

// Status returns a copy of the job's externally visible state.
func (s *Server) Status(id string) (JobStatus, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return JobStatus{}, false
	}
	return s.statusLocked(j), true
}

func (s *Server) statusLocked(j *job) JobStatus {
	st := JobStatus{
		ID:       j.id,
		State:    j.state,
		Flow:     flowLabel(j.req.Flow),
		Attempts: j.attempts,
		Degraded: j.degraded,
		Class:    j.class,
		Error:    j.errMsg,
	}
	if len(j.faults) > 0 {
		st.Faults = make(map[string]int, len(j.faults))
		for k, v := range j.faults {
			st.Faults[k] = v
		}
	}
	return st
}

func flowLabel(flow string) string {
	if flow == "" {
		return "global-local"
	}
	return flow
}

// jobSeq extracts the sequence number from an id in the server's own
// "j%06d" format (0 for any other shape).
func jobSeq(id string) int {
	var n int
	if _, err := fmt.Sscanf(id, "j%06d", &n); err != nil {
		return 0
	}
	return n
}

// flowStages maps a request's flow name to RunFlows' Only value,
// rejecting unknown names at admission time.
func flowStages(flow string) ([]string, error) {
	switch flow {
	case "all":
		return nil, nil
	case "", "global-local":
		return []string{"global-local"}, nil
	case "global", "local":
		return []string{flow}, nil
	default:
		return nil, fmt.Errorf("unknown flow %q (want global, local, global-local or all): %w",
			flow, resilience.ErrInvalidDesign)
	}
}

// parseDesign validates the request's design document against the serving
// technology, exactly as skewopt does for its -design input.
func (s *Server) parseDesign(raw []byte) (*ctree.Design, *sta.Timer, error) {
	if len(raw) == 0 {
		return nil, nil, fmt.Errorf("serve: job has no design document: %w", resilience.ErrInvalidDesign)
	}
	d, err := edaio.ReadDesign(bytes.NewReader(raw), edaio.WithCells(func(name string) bool {
		return s.cfg.Tech.CellByName(name) != nil
	}))
	if err != nil {
		return nil, nil, fmt.Errorf("serve: job design: %w", err)
	}
	cv, err := s.views.get(s.cfg.Tech, d.CornerNames)
	if err != nil {
		return nil, nil, fmt.Errorf("serve: job corner view: %v: %w", err, resilience.ErrInvalidDesign)
	}
	tm := sta.New(cv.view)
	// Jobs over the same corner signature share net electrical views:
	// resubmitting a design analyzes against a warm cache (visible in
	// /metrics as serve.sta.net_cache.* traffic).
	tm.SharedCache = cv.cache
	return d, tm, nil
}

// jobPath builds a per-job artifact path in the spool.
func (s *Server) jobPath(id, suffix string) string {
	return SpoolArtifact(s.cfg.SpoolDir, id, suffix)
}

// admitValidated is the shared admission core behind HTTP submission and
// fleet Admit: register, journal, enqueue. The spec has been validated by
// the caller. An empty id asks the server to assign the next sequential
// one (the HTTP path); a supplied id admits idempotently — a known id
// returns its current status with no second execution, waiting out an
// in-flight first admission so the status it reports is durable. A full
// queue is rejected with ErrBusy; a journal that cannot make the submit
// durable rejects the job entirely (never accepted, never run).
//
// The journal append deliberately runs OUTSIDE the admission lock:
// concurrent submissions must be able to share one group-commit batch,
// and an append can block for a flush window. Ids and queue slots are
// still claimed under the lock, so they always agree; journal file order
// may differ from id order under concurrency, which replay tolerates
// (reduction is keyed by job id, seq restarts from the maximum). A failed
// append withdraws the registration; its id stays burned — a concurrent
// admission may already hold a later one.
func (s *Server) admitValidated(ctx context.Context, id string, spec []byte, req JobRequest, resume *core.Checkpoint) (JobStatus, error) {
	s.mu.Lock()
	if id != "" {
		if j, ok := s.jobs[id]; ok {
			ch := j.admitted
			if ch == nil {
				st := s.statusLocked(j)
				s.mu.Unlock()
				return st, nil
			}
			// A first admission of this id is mid-journal-append. Wait for
			// its durability verdict rather than reporting a job whose
			// submit might still vanish in a crash.
			s.mu.Unlock()
			<-ch
			s.mu.Lock()
			if j, ok := s.jobs[id]; ok {
				st := s.statusLocked(j)
				s.mu.Unlock()
				return st, nil
			}
			s.mu.Unlock()
			return JobStatus{}, fmt.Errorf("serve: journaling job %s: concurrent admission failed: %w",
				id, resilience.ErrCheckpoint)
		}
	}
	if s.queued >= s.cfg.QueueDepth {
		s.mu.Unlock()
		s.counter("serve.jobs.rejected.full").Add(1)
		return JobStatus{}, fmt.Errorf("serve: queue full (%d queued): %w", s.cfg.QueueDepth, ErrBusy)
	}
	if id == "" {
		s.submits++
		id = fmt.Sprintf("j%06d", s.submits)
	} else if n := jobSeq(id); n > s.submits {
		// A supplied id in the server's own format advances the local
		// sequence so a later HTTP-assigned id can never collide with it.
		s.submits = n
	}
	j := &job{id: id, raw: spec, req: req, state: StateQueued, resume: resume,
		admitted: make(chan struct{})}
	s.jobs[id] = j
	s.order = append(s.order, id)
	s.queued++
	s.mu.Unlock()

	err := s.jl.append(ctx, record{Kind: recSubmit, Job: id, Spec: spec})

	s.mu.Lock()
	close(j.admitted)
	j.admitted = nil
	if err != nil {
		delete(s.jobs, id)
		for i := len(s.order) - 1; i >= 0; i-- {
			if s.order[i] == id {
				s.order = append(s.order[:i], s.order[i+1:]...)
				break
			}
		}
		s.queued--
		s.mu.Unlock()
		s.counter("serve.journal.write_failures").Add(1)
		s.counter("serve.jobs.rejected.journal").Add(1)
		return JobStatus{}, fmt.Errorf("serve: journaling job %s: %w", id, err)
	}
	s.mu.Unlock()

	s.queue <- j
	s.counter("serve.jobs.submitted").Add(1)
	s.setQueueGauges()
	return JobStatus{ID: id, State: StateQueued, Flow: flowLabel(req.Flow)}, nil
}

// errClass maps a flow error onto the taxonomy label reported in job
// status and result bodies.
func errClass(err error) string {
	switch {
	case errors.Is(err, resilience.ErrPanic):
		return "panic"
	case errors.Is(err, resilience.ErrCanceled):
		return "canceled"
	case errors.Is(err, resilience.ErrInvalidDesign):
		return "invalid-design"
	case errors.Is(err, resilience.ErrSolver):
		return "solver"
	// Storage before checkpoint: an exhausted journal append wraps both
	// (the storage class is the more specific diagnosis).
	case errors.Is(err, resilience.ErrStorage):
		return "storage"
	case errors.Is(err, resilience.ErrCheckpoint):
		return "checkpoint"
	case errors.Is(err, resilience.ErrTimer):
		return "timer"
	default:
		return "internal"
	}
}

// counter returns the named server counter (no-op when Obs is nil).
func (s *Server) counter(name string) *obs.Counter { return s.cfg.Obs.Counter(name) }

func (s *Server) setQueueGauges() {
	s.mu.Lock()
	q, r := s.queued, s.running
	s.mu.Unlock()
	s.cfg.Obs.Gauge("serve.queue.depth").Set(float64(q))
	s.cfg.Obs.Gauge("serve.jobs.running").Set(float64(r))
}

// writeResult writes the optimized design (the last completed stage's
// tree, falling back toward the original) for a finished job.
func (s *Server) writeResult(j *job, d *ctree.Design, res *core.FlowResult) error {
	final := res.Trees["orig"]
	for _, stage := range core.FlowStages {
		if t, ok := res.Trees[stage]; ok {
			final = t
		}
	}
	if final == nil {
		return fmt.Errorf("serve: job %s produced no tree", j.id)
	}
	od := d.Clone()
	od.Tree = final
	return edaio.AtomicWriteFile(s.jobPath(j.id, "out.json"), func(w io.Writer) error {
		return edaio.WriteDesign(w, od)
	})
}
