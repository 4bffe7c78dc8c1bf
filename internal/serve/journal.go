package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"skewvar/internal/core"
	"skewvar/internal/edaio/atomicio"
	"skewvar/internal/faults"
	"skewvar/internal/obs"
	"skewvar/internal/resilience"
)

// Journal record kinds. A job's lifecycle in the journal is
// submit → (start → finish | start → suspend)* — the last record wins,
// and a job whose last record is submit, start, or suspend is not
// terminal and is re-enqueued on replay. A steal record — appended by a
// fleet peer after this replica was fenced — is sticky: a stolen job is
// owned elsewhere and is never re-admitted here, whatever follows. A
// genesis record is the first line of a compacted journal: it names the
// generation and sequence high-water mark of the snapshot the journal
// continues from, and carries no job.
const (
	recSubmit  = "submit"
	recStart   = "start"
	recFinish  = "finish"
	recSuspend = "suspend"
	recSteal   = "steal"
	recGenesis = "genesis"
)

// record is one journal line. Spec carries the original request body on
// submit records so a replayed daemon can rebuild the job without any
// other state surviving the crash; Thief names the stealing replica on
// steal records; Gen is set only on genesis records.
type record struct {
	Seq      int             `json:"seq"`
	Kind     string          `json:"kind"`
	Job      string          `json:"job,omitempty"`
	State    string          `json:"state,omitempty"`
	Class    string          `json:"class,omitempty"`
	Error    string          `json:"error,omitempty"`
	Degraded bool            `json:"degraded,omitempty"`
	Faults   map[string]int  `json:"faults,omitempty"`
	Thief    string          `json:"thief,omitempty"`
	Gen      int             `json:"gen,omitempty"`
	Spec     json.RawMessage `json:"spec,omitempty"`
}

// journal coalesces appends to the crash-safe job journal through an
// atomicio.GroupAppender: concurrent records share one write+fsync per
// batch, and append returns only once the record's batch is durable, so
// the submit-before-202 guarantee is byte-for-byte the one the per-line
// appender gave (batch=1, window=0 — the default — IS the per-line
// discipline). Every appended line is checksum-framed (atomicio
// EncodeFrame), so replay can tell acknowledged bytes from rot. Writes
// retry with seeded-jitter exponential backoff; the job-journal-write
// fault hook fails individual attempts and the journal-group-flush hook
// crashes whole batches at their boundaries, so both the retry and the
// torn-batch recovery paths replay by seed.
//
// Compaction swaps the file under the appender. The pause gate
// serializes that with appends: pause() blocks new appends and waits
// out in-flight ones, the compactor closes the appender, swaps the
// files, reopens, and unpause() releases the waiters. An appender that
// cannot be reopened (or an append that exhausted its retries) marks
// the journal poisoned: Ready() fails, admission returns a typed
// resilience.ErrStorage, and the fleet routes new work elsewhere.
type journal struct {
	mu       sync.Mutex // guards seq, app, paused, inflight
	cond     *sync.Cond // signaled on unpause and on inflight reaching zero
	app      *atomicio.GroupAppender
	fsys     atomicio.FS
	opts     atomicio.GroupOptions
	path     string
	seq      int
	seed     int64
	inj      *faults.Injector
	paused   bool
	inflight int
	dead     atomic.Bool // set by Server.Crash: appends stop landing, as after kill -9
	poisoned atomic.Bool // storage gave out: degrade loudly, accept nothing new
}

// journalTuning carries the group-commit knobs and metric sinks from the
// server config into openJournal.
type journalTuning struct {
	batch  int
	window time.Duration
	obs    *obs.Recorder
}

// openJournal opens the journal for group-commit appending through fsys.
// The appender heals a torn final line from a previous crash; seq is the
// caller-recovered sequence high-water mark (loadSpool's fold over
// snapshot and journal — records may land out of sequence order when a
// failed batch is retried behind newer records, so the maximum, not the
// last line, is the high-water mark).
func openJournal(fsys atomicio.FS, path string, inj *faults.Injector, seed int64, tun journalTuning, seq int) (*journal, error) {
	jl := &journal{fsys: fsys, path: path, seq: seq, seed: seed, inj: inj}
	jl.cond = sync.NewCond(&jl.mu)
	// The crash hook consults the injector once per flush boundary; the
	// torn-prefix length of a mid-write crash draws from a seeded stream
	// so a (seed, spec) pair replays the same tear.
	krng := rand.New(rand.NewSource(seed ^ 0x67726f7570)) // "group"
	var kmu sync.Mutex
	hook := func(point string, batchBytes int) (bool, int) {
		if !jl.inj.Fire(faults.JournalGroupFlush) {
			return false, 0
		}
		kmu.Lock()
		keep := 1 + krng.Intn(batchBytes+1)
		kmu.Unlock()
		return true, keep
	}
	jl.opts = atomicio.GroupOptions{
		MaxBatch: tun.batch,
		Window:   tun.window,
		Hook:     hook,
		OnFlush: func(lines int, bytes int64) {
			tun.obs.Counter("serve.journal.fsyncs").Add(1)
			tun.obs.Counter("serve.journal.flushed_lines").Add(int64(lines))
			tun.obs.Histogram("serve.journal.batch_lines").Observe(int64(lines))
		},
	}
	app, err := atomicio.OpenGroupAppenderFS(fsys, path, jl.opts)
	if err != nil {
		return nil, fmt.Errorf("serve: opening journal: %w", err)
	}
	jl.app = app
	return jl, nil
}

// append durably writes one record, assigning it the next sequence
// number. The caller blocks until the record's batch is fsynced.
// Transient write failures are retried with jittered backoff; a record
// that still cannot land poisons the journal and is reported as a typed
// storage error (which also satisfies errors.Is ErrCheckpoint, the
// pre-snapshot classification), and the journal stays positioned at its
// last durable line.
func (jl *journal) append(ctx context.Context, rec record) error {
	jl.mu.Lock()
	for jl.paused && !jl.dead.Load() {
		jl.cond.Wait()
	}
	if jl.dead.Load() {
		jl.mu.Unlock()
		// The owning replica was crash-simulated: like a killed process,
		// nothing it tries to record after the crash instant may land.
		return fmt.Errorf("serve: journal %s: replica crashed: %w", jl.path, resilience.ErrCheckpoint)
	}
	app := jl.app
	if app == nil {
		jl.mu.Unlock()
		return fmt.Errorf("serve: journal %s: poisoned by storage failure: %w (%w)",
			jl.path, resilience.ErrStorage, resilience.ErrCheckpoint)
	}
	jl.seq++
	rec.Seq = jl.seq
	jl.inflight++
	jl.mu.Unlock()
	defer func() {
		jl.mu.Lock()
		jl.inflight--
		if jl.inflight == 0 {
			jl.cond.Broadcast()
		}
		jl.mu.Unlock()
	}()

	payload, err := json.Marshal(&rec)
	if err != nil {
		return fmt.Errorf("serve: encoding journal record: %v: %w", err, resilience.ErrCheckpoint)
	}
	line, err := atomicio.EncodeFrame(payload)
	if err != nil {
		return fmt.Errorf("serve: framing journal record: %v: %w", err, resilience.ErrCheckpoint)
	}
	op := func() error {
		if jl.dead.Load() {
			return errors.New("serve: replica crashed")
		}
		if jl.inj.Fire(faults.JobJournalWrite) {
			return errors.New("serve: injected journal write failure")
		}
		return app.AppendLine(line)
	}
	cfg := resilience.RetryConfig{
		Attempts:  4,
		BaseDelay: 2 * time.Millisecond,
		// Per-record generator (a *rand.Rand is not concurrency-safe, and
		// appends now overlap): a given (seed, record seq, failure
		// sequence) replays the same wait schedule.
		Rand: rand.New(rand.NewSource(jl.seed + int64(rec.Seq))),
	}
	if err := resilience.Retry(ctx, cfg, op); err != nil {
		// Exhausted retries mean the disk, not the caller, is the problem:
		// poison the journal so readiness and admission degrade typed. The
		// error satisfies both the storage and the legacy checkpoint class.
		jl.poisoned.Store(true)
		return fmt.Errorf("serve: journal %s: %v: %w (%w)", jl.path, err, resilience.ErrStorage, resilience.ErrCheckpoint)
	}
	jl.poisoned.Store(false)
	return nil
}

// pause blocks new appends and waits for in-flight ones to drain; the
// journal file is then quiescent and the compactor may swap it. Callers
// serialize pauses (the server's compacting flag).
func (jl *journal) pause() {
	jl.mu.Lock()
	jl.paused = true
	for jl.inflight > 0 {
		jl.cond.Wait()
	}
	jl.mu.Unlock()
}

// unpause releases appends blocked by pause.
func (jl *journal) unpause() {
	jl.mu.Lock()
	jl.paused = false
	jl.cond.Broadcast()
	jl.mu.Unlock()
}

// reopenAppender opens a fresh appender on the (possibly swapped)
// journal file. Failure leaves the journal poisoned: appends return
// typed storage errors until a later reopen succeeds.
func (jl *journal) reopenAppender() error {
	app, err := atomicio.OpenGroupAppenderFS(jl.fsys, jl.path, jl.opts)
	if err != nil {
		jl.poisoned.Store(true)
		return fmt.Errorf("serve: reopening journal %s: %v: %w", jl.path, err, resilience.ErrStorage)
	}
	jl.mu.Lock()
	jl.app = app
	jl.mu.Unlock()
	jl.poisoned.Store(false)
	return nil
}

// lines reports how many lines the current appender has written since it
// was opened — the compaction trigger. Zero while poisoned.
func (jl *journal) lines() int64 {
	jl.mu.Lock()
	app := jl.app
	jl.mu.Unlock()
	if app == nil {
		return 0
	}
	return app.Lines()
}

// healthy reports whether the journal can durably acknowledge new
// records: not crashed, not poisoned by a storage failure.
func (jl *journal) healthy() bool {
	return !jl.dead.Load() && !jl.poisoned.Load()
}

// kill marks the journal crashed and drops its unflushed batches, as
// kill -9 would. Paused waiters are woken so they observe the crash.
func (jl *journal) kill() {
	jl.dead.Store(true)
	jl.mu.Lock()
	app := jl.app
	jl.cond.Broadcast()
	jl.mu.Unlock()
	if app != nil {
		app.Kill()
	}
}

// Close flushes pending batches and closes the journal file (nil-safe).
// The compaction swap closes a paused journal this way and reopens it
// with reopenAppender.
func (jl *journal) Close() error {
	jl.mu.Lock()
	app := jl.app
	jl.app = nil
	jl.mu.Unlock()
	if app == nil {
		return nil
	}
	return app.Close()
}

// ledgerEntry is one job's reduced journal state: the fold of every
// record that mentions it, in submission order.
type ledgerEntry struct {
	id       string
	spec     []byte
	state    string // StateQueued when non-terminal
	attempts int
	class    string
	errMsg   string
	degraded bool
	faults   map[string]int
	stolen   bool
	thief    string
}

// replay rebuilds the in-memory job table from the recovered spool
// state and returns the jobs needing (re-)execution, in original
// submission order. Jobs a fleet peer stole are dropped entirely — they
// are owned elsewhere. Each pending job resumes from its resumePoint.
func (s *Server) replay(entries []*ledgerEntry) []*job {
	var pending []*job
	for _, e := range entries {
		s.submits++
		if e.stolen {
			s.logf("replay: job %s was stolen by %s; skipping", e.id, e.thief)
			s.counter("serve.jobs.stolen_away").Add(1)
			continue
		}
		j := &job{
			id: e.id, raw: e.spec, state: e.state, attempts: e.attempts,
			class: e.class, errMsg: e.errMsg, degraded: e.degraded, faults: e.faults,
		}
		// Specs were validated at admission; tolerate a decode failure
		// here (the run will fail the job with a typed error).
		if err := json.Unmarshal(e.spec, &j.req); err != nil {
			s.logf("replay: job %s has undecodable spec: %v", e.id, err)
		}
		s.jobs[e.id] = j
		s.order = append(s.order, e.id)
		if j.state != StateQueued {
			continue
		}
		j.resume = s.resumePoint(j.id)
		pending = append(pending, j)
	}
	return pending
}

// resumePoint loads the flow checkpoint in the spool under a job's id —
// left by an earlier run of the job, or copied there by a stealing peer —
// or returns nil when there is none. A checkpoint that does not load is
// logged and counted, and the job runs fresh: the flows are
// deterministic, so a fresh run converges to the same result.
func (s *Server) resumePoint(id string) *core.Checkpoint {
	path := s.jobPath(id, "ckpt")
	if _, err := os.Stat(path); err != nil {
		return nil
	}
	cp, err := core.LoadCheckpoint(path)
	if err != nil {
		s.logf("job %s checkpoint unusable (%v); falling back to fresh run", id, err)
		s.counter("serve.jobs.checkpoint_fallback").Add(1)
		return nil
	}
	return cp
}
