package fleet

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"sync"
	"time"

	"skewvar/internal/obs"
	"skewvar/internal/resilience"
	"skewvar/internal/serve"
)

// Cluster is the coordinator plus its in-process replicas: the whole
// fleet in one object. Construct with New, submit with Submit, stop
// with Drain.
type Cluster struct {
	cfg  Config
	ring *ring
	tr   localTransport

	mu       sync.Mutex
	replicas map[string]*replica
	names    []string          // fixed replica order r0..r{N-1}
	assign   map[string]string // job id → owning replica name
	submits  int               // fleet-wide job id counter

	monCtx    context.Context
	monCancel context.CancelFunc
	monDone   chan struct{}

	httpSrv   *http.Server
	acceptErr chan error

	draining bool
}

// ErrNoReplica reports a submission that found no admissible replica:
// every candidate was dead, quarantined, or at its queue bound.
var ErrNoReplica = errors.New("fleet: no replica available")

// ErrNoSuchReplica reports an admin operation naming a replica the
// cluster has never heard of (the HTTP layer maps it to 404).
var ErrNoSuchReplica = errors.New("fleet: no such replica")

// ErrReplicaState reports an admin operation that found the replica in
// the wrong state for it — restarting one that is already running, or
// one still being fenced. Retryable once the state settles (409).
var ErrReplicaState = errors.New("fleet: replica in wrong state")

// New builds the cluster: replicas start on their spools (replaying any
// journals already there, exactly like restarted skewd processes), the
// coordinator rebuilds its assignment table from those journals —
// completing any steal a previous incarnation left half-done — and the
// heartbeat monitor starts.
func New(cfg Config) (*Cluster, error) {
	if err := cfg.setDefaults(); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(cfg.SpoolDir, 0o755); err != nil {
		return nil, fmt.Errorf("fleet: spool dir: %w", err)
	}
	c := &Cluster{
		cfg:      cfg,
		replicas: make(map[string]*replica),
		assign:   make(map[string]string),
	}
	c.tr = localTransport{c: c}
	for i := 0; i < cfg.Replicas; i++ {
		name := fmt.Sprintf("r%d", i)
		c.names = append(c.names, name)
		c.replicas[name] = &replica{
			name:  name,
			spool: spoolFor(cfg.SpoolDir, name),
			breaker: resilience.NewBreaker(resilience.BreakerConfig{
				Threshold: cfg.BreakerThreshold,
				Cooldown:  cfg.BreakerCooldown,
				Rand:      rand.New(rand.NewSource(cfg.Seed + int64(i))),
			}),
		}
	}
	c.ring = newRing(c.names)
	for _, name := range c.names {
		if err := c.startReplica(c.replicas[name]); err != nil {
			return nil, err
		}
	}
	if err := c.rebuild(); err != nil {
		return nil, err
	}
	c.monCtx, c.monCancel = context.WithCancel(context.Background())
	c.startMonitor()
	return c, nil
}

// rebuild reconstructs the coordinator's assignment table and id
// counter from the replicas' journals, and completes orphaned steals: a
// job marked stolen in a victim's journal whose thief never journaled
// it means the previous coordinator crashed between MarkStolen and the
// thief's admission — the recoverable half of the steal crash window.
func (c *Cluster) rebuild() error {
	c.mu.Lock()
	defer c.mu.Unlock()

	type orphan struct {
		victim, thief string
		job           serve.JournalJob
	}
	var orphans []orphan
	present := make(map[string]map[string]bool, len(c.names))
	journals := make(map[string][]serve.JournalJob, len(c.names))
	for _, name := range c.names {
		//lint:ignore lockscope construction-time journal replay; no concurrent dispatchers yet
		jobs, err := serve.ReadJournalJobs(c.replicas[name].spool)
		if err != nil {
			return fmt.Errorf("fleet: rebuild: replica %s journal: %w", name, err)
		}
		journals[name] = jobs
		present[name] = make(map[string]bool, len(jobs))
		for _, j := range jobs {
			present[name][j.ID] = true
			if n := serve.JobSeq(j.ID); n > c.submits {
				c.submits = n
			}
		}
	}
	for _, name := range c.names {
		for _, j := range journals[name] {
			if !j.Stolen {
				c.assign[j.ID] = name
				continue
			}
			if p := present[j.Thief]; p != nil && p[j.ID] {
				c.assign[j.ID] = j.Thief
			} else {
				orphans = append(orphans, orphan{victim: name, thief: j.Thief, job: j})
			}
		}
	}
	for _, o := range orphans {
		thief := c.replicas[o.thief]
		if thief == nil || thief.srv == nil {
			c.cfg.Logf("rebuild: orphaned steal of %s (thief %s gone); leaving with victim %s",
				o.job.ID, o.thief, o.victim)
			c.assign[o.job.ID] = o.victim
			continue
		}
		//lint:ignore lockscope construction-time repair; no concurrent dispatchers yet
		if err := c.transferJob(c.replicas[o.victim], thief, o.job); err != nil {
			return fmt.Errorf("fleet: rebuild: completing orphaned steal of %s: %w", o.job.ID, err)
		}
		c.assign[o.job.ID] = o.thief
		c.counter("fleet.jobs.orphan_steals_completed").Add(1)
		c.cfg.Logf("rebuild: completed orphaned steal of %s: %s -> %s", o.job.ID, o.victim, o.thief)
	}
	return nil
}

// Submit assigns the job an id and dispatches it along the id's ring
// failover sequence. Candidates that are dead or quarantined are
// skipped; a queue-bound rejection (serve.ErrBusy) moves on without a
// breaker penalty; a storage-degraded replica (resilience.ErrStorage:
// its journal cannot acknowledge writes) is penalized and skipped like
// a dead one; a transport failure penalizes the candidate's breaker and
// moves on; an invalid spec fails immediately (no replica could ever
// run it). An ambiguous outcome (ErrAmbiguous) stops the
// walk: the job may be durable on the suspect replica, so it is parked
// there for the steal pipeline to recover rather than risked on a
// second admission.
func (c *Cluster) Submit(ctx context.Context, spec []byte) (serve.JobStatus, string, error) {
	c.mu.Lock()
	if c.draining {
		c.mu.Unlock()
		// Draining is "no replica will take this" by policy rather than
		// by health; callers shed it the same way.
		return serve.JobStatus{}, "", fmt.Errorf("fleet: draining: %w", ErrNoReplica)
	}
	c.submits++
	id := serve.JobID(c.submits)
	c.mu.Unlock()

	for _, name := range c.ring.Sequence(id) {
		c.mu.Lock()
		r := c.replicas[name]
		skip := r.dead || r.srv == nil
		if !skip && !r.breaker.Allow() {
			c.counter("fleet.dispatch.quarantined").Add(1)
			skip = true
		}
		c.mu.Unlock()
		if skip {
			continue
		}
		st, err := c.tr.Submit(ctx, name, id, spec)
		switch {
		case err == nil:
			r.breaker.Success()
			c.mu.Lock()
			c.assign[id] = name
			c.mu.Unlock()
			c.counter("fleet.jobs.submitted").Add(1)
			return st, name, nil
		case errors.Is(err, serve.ErrBusy):
			c.counter("fleet.dispatch.busy").Add(1)
		case errors.Is(err, resilience.ErrStorage):
			// The replica's journal cannot durably acknowledge anything —
			// ENOSPC, EIO, a poisoned appender. For new work that is a dead
			// replica, not backpressure: penalize its breaker so the walk
			// stops consulting it, and fail over to the next candidate.
			r.breaker.Failure()
			c.counter("fleet.dispatch.storage_degraded").Add(1)
			c.cfg.Logf("dispatch %s to %s: storage degraded: %v", id, name, err)
		case errors.Is(err, resilience.ErrInvalidDesign):
			c.counter("fleet.jobs.rejected.invalid").Add(1)
			return serve.JobStatus{}, "", err
		case errors.Is(err, ErrAmbiguous):
			r.breaker.Failure()
			c.mu.Lock()
			c.assign[id] = name
			c.mu.Unlock()
			c.counter("fleet.dispatch.ambiguous").Add(1)
			return serve.JobStatus{}, name, fmt.Errorf(
				"fleet: job %s: %w (recovered after failover if admitted)", id, err)
		default:
			r.breaker.Failure()
			c.counter("fleet.dispatch.failures").Add(1)
			c.cfg.Logf("dispatch %s to %s: %v", id, name, err)
		}
	}
	c.counter("fleet.jobs.rejected.unavailable").Add(1)
	return serve.JobStatus{}, "", ErrNoReplica
}

// Status returns a job's status and its owning replica. A job whose
// owner is down but not yet recovered reports its last journaled state.
func (c *Cluster) Status(ctx context.Context, id string) (serve.JobStatus, string, bool) {
	c.mu.Lock()
	name, ok := c.assign[id]
	if !ok {
		c.mu.Unlock()
		return serve.JobStatus{}, "", false
	}
	r := c.replicas[name]
	down := r == nil || r.srv == nil
	fencing := r != nil && r.fencing
	c.mu.Unlock()

	if !down {
		st, ok, err := c.tr.Status(ctx, name, id)
		if err == nil {
			return st, name, ok
		}
		down = true
	}
	if down && !fencing {
		// The owner is quiescent (crashed or fenced); its journal is the
		// authoritative record until a steal moves the job.
		if jobs, err := serve.ReadJournalJobs(spoolFor(c.cfg.SpoolDir, name)); err == nil {
			for _, j := range jobs {
				if j.ID == id {
					return j.Status, name, true
				}
			}
		}
	}
	// Owner mid-fence: report the assignment with a conservative state.
	return serve.JobStatus{ID: id, State: serve.StateSuspended}, name, true
}

// ResultPath returns the spool path of a done job's result on its
// owning replica (the artifact may still live in a fenced victim's
// spool before the steal completes — reading it there is safe, the
// spool is quiescent).
func (c *Cluster) ResultPath(id string) (string, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	name, ok := c.assign[id]
	if !ok {
		return "", false
	}
	return serve.SpoolArtifact(spoolFor(c.cfg.SpoolDir, name), id, "out.json"), true
}

// startMonitor launches the heartbeat/repair loop. Together with
// startAccept this is the only sanctioned goroutine launch site in this
// package (enforced by skewlint's poolbound analyzer): stealing, fencing,
// and quarantine bookkeeping all run on this one goroutine, so replica
// state transitions are single-writer by construction.
func (c *Cluster) startMonitor() {
	c.monDone = make(chan struct{})
	go func() {
		defer close(c.monDone)
		t := time.NewTicker(c.cfg.HeartbeatEvery)
		defer t.Stop()
		// Shutdown-vs-tick is a liveness race, not a replay one: failover
		// decisions are journaled, and recovery replays the journal, not
		// the monitor's schedule.
		for {
			//lint:ignore detsource ticker-vs-shutdown race; recovery replays the journal, not this schedule
			select {
			case <-c.monCtx.Done():
				return
			case <-t.C:
				c.tick()
			}
		}
	}()
}

// tick is one monitor round: retry unfinished steals, ping every live
// replica, advance breaker cooldowns/probes, and declare-dead → fence →
// steal when a replica's misses cross the threshold.
func (c *Cluster) tick() {
	for _, name := range c.names {
		c.mu.Lock()
		r := c.replicas[name]
		if r.dead {
			retrySteal := r.fenced && !r.stolen
			c.mu.Unlock()
			if retrySteal {
				c.stealFrom(r)
			}
			continue
		}
		c.mu.Unlock()

		// The ping doubles as the breaker's half-open probe: Allow both
		// grants the probe and, while open, counts this tick against the
		// cooldown — which is what makes the call-counted cooldown behave
		// like a time window.
		probing := r.breaker.Allow()
		err := c.tr.Ping(c.monCtx, name)
		if probing {
			if err == nil {
				r.breaker.Success()
			} else {
				r.breaker.Failure()
			}
		}

		c.mu.Lock()
		if err != nil {
			r.misses++
			c.counter("fleet.heartbeat.misses").Add(1)
			if r.misses >= c.cfg.MissThreshold && !r.dead {
				c.declareDeadLocked(r)
				continue // declareDeadLocked released the lock
			}
		} else {
			r.misses = 0
		}
		c.mu.Unlock()
	}
}

// declareDeadLocked transitions a replica to dead, fences it, and
// steals its journal. Called with c.mu held; returns with it released
// (fencing blocks on worker quiescence and must not hold the lock).
func (c *Cluster) declareDeadLocked(r *replica) {
	r.dead = true
	r.fencing = true
	srv := r.srv
	r.srv = nil
	c.mu.Unlock()

	c.counter("fleet.replicas.declared_dead").Add(1)
	c.cfg.Logf("replica %s declared dead after %d missed heartbeats; fencing", r.name, r.misses)
	if srv != nil {
		// STONITH: if the death was a false positive (heartbeat delays on
		// a healthy replica), this crash-stop makes it true before any
		// peer touches the journal. A running job dies mid-flight and is
		// recovered from its checkpoint like any real crash.
		srv.Crash()
	}
	c.mu.Lock()
	r.fencing = false
	r.fenced = true
	c.mu.Unlock()

	c.stealFrom(r)
}

// stealFrom harvests a fenced replica's journal onto a surviving peer.
// Steal records land in the victim's journal before the thief admits
// anything, so a crash in between leaves an orphaned steal that rebuild
// completes — never a job admitted on two replicas. The whole pass is
// idempotent: already-stolen entries are skipped, MarkStolen tolerates
// repeats, and the thief's admission dedups on job id; a partial pass
// (thief queue full, say) leaves stolen=false and the next tick retries.
func (c *Cluster) stealFrom(victim *replica) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if victim.stolen || !victim.fenced {
		return
	}
	var thief *replica
	for _, name := range c.names {
		r := c.replicas[name]
		if r != victim && !r.dead && r.srv != nil {
			thief = r
			break
		}
	}
	if thief == nil {
		c.cfg.Logf("steal from %s: no live peer; will retry", victim.name)
		return
	}
	// The steal pass deliberately holds c.mu across journal I/O: it is the
	// single-writer repair path for a fenced (quiescent) replica, and the
	// assignment table must not be read mid-transfer. Dispatches stall for
	// one steal pass at worst; docs/ROBUSTNESS.md covers the trade.
	//lint:ignore lockscope fenced-replica repair pass; single writer by design
	jobs, err := serve.ReadJournalJobs(victim.spool)
	if err != nil {
		c.cfg.Logf("steal from %s: reading journal: %v; will retry", victim.name, err)
		return
	}
	var pending []serve.JournalJob
	var ids []string
	for _, j := range jobs {
		if j.Stolen {
			continue
		}
		pending = append(pending, j)
		ids = append(ids, j.ID)
	}
	if len(pending) == 0 {
		victim.stolen = true
		return
	}
	//lint:ignore lockscope fenced-replica repair pass; single writer by design
	if err := serve.MarkStolen(c.monCtx, victim.spool, thief.name, ids); err != nil {
		c.cfg.Logf("steal from %s: marking journal: %v; will retry", victim.name, err)
		return
	}
	complete := true
	for _, j := range pending {
		//lint:ignore lockscope fenced-replica repair pass; single writer by design
		if err := c.transferJob(victim, thief, j); err != nil {
			c.cfg.Logf("steal %s from %s: %v; will retry", j.ID, victim.name, err)
			complete = false
			continue
		}
		c.assign[j.ID] = thief.name
		if j.Terminal {
			c.counter("fleet.jobs.adopted").Add(1)
		} else {
			c.counter("fleet.jobs.stolen").Add(1)
		}
	}
	victim.stolen = complete
	c.cfg.Logf("steal from %s -> %s: %d jobs (complete=%v)", victim.name, thief.name, len(pending), complete)
}

// transferJob moves one journaled job from a fenced victim to a thief:
// terminal jobs have their artifacts copied and their outcome adopted;
// non-terminal jobs get their checkpoint copied and are re-admitted
// under their original id, resuming where the victim left off.
// Idempotent — the thief's journal dedups on id either way.
func (c *Cluster) transferJob(victim, thief *replica, j serve.JournalJob) error {
	if j.Terminal {
		for _, suffix := range []string{"out.json", "trace.jsonl", "metrics.json"} {
			if err := copyArtifact(victim.spool, thief.spool, j.ID, suffix); err != nil {
				return fmt.Errorf("copying %s: %w", suffix, err)
			}
		}
		return thief.srv.AdoptFinished(context.Background(), j.ID, j.Spec, j.Status)
	}
	if err := copyArtifact(victim.spool, thief.spool, j.ID, "ckpt"); err != nil {
		return fmt.Errorf("copying ckpt: %w", err)
	}
	_, err := thief.srv.Admit(context.Background(), j.ID, j.Spec)
	return err
}

// crashReplica crash-stops a replica's server in place (fault injection
// and the /admin/crash endpoint). The coordinator is NOT told: it finds
// out the way it would about a real dead node, by missed heartbeats,
// which then drive the fence-and-steal recovery.
func (c *Cluster) crashReplica(name string) {
	c.mu.Lock()
	r := c.replicas[name]
	if r == nil || r.srv == nil {
		c.mu.Unlock()
		return
	}
	srv := r.srv
	r.srv = nil
	c.mu.Unlock()
	// Crash returns once the worker pool is quiescent; until heartbeats
	// declare the replica dead, dispatches to it simply bounce.
	srv.Crash()
}

// RestartReplica brings a crashed or dead replica back: a fresh
// serve.Server on the same spool, whose journal replay resumes any
// not-stolen jobs and skips stolen-away ones. The breaker resets — a
// restarted replica earns failures from scratch.
func (c *Cluster) RestartReplica(name string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	r := c.replicas[name]
	if r == nil {
		return fmt.Errorf("fleet: no replica %q: %w", name, ErrNoSuchReplica)
	}
	if r.srv != nil {
		return fmt.Errorf("fleet: replica %s is running: %w", name, ErrReplicaState)
	}
	if r.fencing {
		return fmt.Errorf("fleet: replica %s is being fenced; retry: %w", name, ErrReplicaState)
	}
	// Restart is an admin operation: holding c.mu through the spool mkdir
	// and journal replay keeps dispatchers from racing the half-started
	// replica, and admin restarts are rare enough to eat the latency.
	//lint:ignore lockscope admin-path restart; dispatchers must not see a half-started replica
	if err := c.startReplica(r); err != nil {
		return err
	}
	r.breaker.Success()
	// Jobs still journaled here (not stolen away) are this replica's again.
	for _, id := range r.srv.JobIDs() {
		c.assign[id] = name
	}
	c.counter("fleet.replicas.restarted").Add(1)
	c.cfg.Logf("replica %s restarted (incarnation %d)", name, r.incarnation)
	return nil
}

// CrashReplica crash-stops a replica by name (the /admin/crash
// endpoint). Recovery happens through heartbeat detection, not here.
func (c *Cluster) CrashReplica(name string) error {
	c.mu.Lock()
	r := c.replicas[name]
	c.mu.Unlock()
	if r == nil {
		return fmt.Errorf("fleet: no replica %q: %w", name, ErrNoSuchReplica)
	}
	c.counter("fleet.replicas.admin_crashed").Add(1)
	c.crashReplica(name)
	return nil
}

// Metrics returns the coordinator's snapshot merged with every live
// replica's, per-metric associative (obs.Merge): counters and
// histograms add across the fleet, gauges keep the last write. Fenced
// replicas' in-memory recorders died with them; their per-job metrics
// artifacts survive in their spools.
func (c *Cluster) Metrics() obs.Snapshot {
	c.mu.Lock()
	srvs := make([]*serve.Server, 0, len(c.names))
	for _, name := range c.names {
		if r := c.replicas[name]; r.srv != nil {
			srvs = append(srvs, r.srv)
		}
	}
	c.mu.Unlock()
	snap := c.cfg.Obs.Snapshot()
	for _, s := range srvs {
		snap = obs.Merge(snap, s.Metrics())
	}
	return snap
}

// ReplicaInfo is one replica's state for the /replicas endpoint.
type ReplicaInfo struct {
	Name        string      `json:"name"`
	State       string      `json:"state"` // alive | crashed | fencing | dead | dead-stolen
	Breaker     string      `json:"breaker"`
	Misses      int         `json:"misses"`
	Incarnation int         `json:"incarnation"`
	Stats       serve.Stats `json:"stats"`
}

// Replicas reports every replica's health, quarantine, and load state.
func (c *Cluster) Replicas() []ReplicaInfo {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]ReplicaInfo, 0, len(c.names))
	for _, name := range c.names {
		r := c.replicas[name]
		info := ReplicaInfo{
			Name:        name,
			Breaker:     r.breaker.State().String(),
			Misses:      r.misses,
			Incarnation: r.incarnation,
		}
		switch {
		case r.fencing:
			info.State = "fencing"
		case r.dead && r.stolen:
			info.State = "dead-stolen"
		case r.dead:
			info.State = "dead"
		case r.srv == nil:
			info.State = "crashed"
		default:
			info.State = "alive"
			info.Stats = r.srv.Stats()
		}
		out = append(out, info)
	}
	return out
}

// Ready reports whether the fleet can admit work: not draining and at
// least one replica alive.
func (c *Cluster) Ready() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.draining {
		return false
	}
	for _, r := range c.replicas {
		if r.srv != nil && !r.dead {
			return true
		}
	}
	return false
}

// Drain stops the monitor, then drains every live replica. It reports
// whether the fleet settled: every replica drained cleanly within its
// budget (suspended jobs count as settled — they are journaled and
// resume on the next start).
func (c *Cluster) Drain() bool {
	c.mu.Lock()
	if c.draining {
		c.mu.Unlock()
		<-c.monDone
		return true
	}
	c.draining = true
	c.mu.Unlock()

	c.monCancel()
	<-c.monDone

	settled := true
	c.mu.Lock()
	srvs := make([]*serve.Server, 0, len(c.names))
	for _, name := range c.names {
		if r := c.replicas[name]; r.srv != nil {
			srvs = append(srvs, r.srv)
		}
	}
	c.mu.Unlock()
	for _, s := range srvs {
		if !s.Drain() {
			settled = false
		}
	}
	return settled
}

// liveServer returns the named replica's server, or nil when it is
// crashed, dead, or unknown.
func (c *Cluster) liveServer(name string) *serve.Server {
	c.mu.Lock()
	defer c.mu.Unlock()
	r := c.replicas[name]
	if r == nil {
		return nil
	}
	return r.srv
}

func (c *Cluster) counter(name string) *obs.Counter { return c.cfg.Obs.Counter(name) }
