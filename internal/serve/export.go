package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"path/filepath"
	"time"

	"skewvar/internal/core"
	"skewvar/internal/edaio/atomicio"
	"skewvar/internal/obs"
	"skewvar/internal/resilience"
)

// This file is the fleet-facing surface of the daemon: programmatic
// admission under caller-assigned job ids, adoption of results computed
// elsewhere, crash simulation for the in-process cluster harness, and
// read/append access to a (fenced) replica's journal for work stealing.

// ErrBusy reports an admission rejected by the queue bound — backpressure,
// not failure. The fleet coordinator sheds such a dispatch to the next
// replica on the ring without penalizing this one's circuit breaker.
var ErrBusy = errors.New("queue full")

// ErrNotReady reports an admission attempted against a server that is
// draining or crashed. Unlike ErrBusy it is not backpressure — retrying
// the same replica is pointless; callers reroute or fail the dispatch.
var ErrNotReady = errors.New("server not ready")

// StartWorkers launches only the job worker pool, without an HTTP
// listener. Fleet replicas run this way: the coordinator is their only
// client, over the in-process transport.
func (s *Server) StartWorkers() { s.startWorkers() }

// Ready reports whether the server is accepting work: not draining, not
// crashed, and its journal able to durably acknowledge submissions (a
// poisoned journal — retries exhausted on ENOSPC/EIO, or an appender
// that could not be reopened after compaction — fails readiness so the
// fleet routes new work elsewhere).
func (s *Server) Ready() bool {
	return !s.draining.Load() && !s.crashed.Load() && s.jl.healthy()
}

// Stats is a point-in-time view of the server's load, for fleet
// readiness and placement decisions.
type Stats struct {
	Queued  int  // jobs journaled and waiting for a worker
	Running int  // jobs executing now
	Workers int  // live worker goroutines
	Jobs    int  // jobs ever admitted (including replayed and adopted)
	Ready   bool // accepting work (not draining, not crashed)
}

// Stats returns the server's current load counters.
func (s *Server) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Stats{
		Queued:  s.queued,
		Running: s.running,
		Workers: s.active,
		Jobs:    len(s.order),
		Ready:   s.Ready(),
	}
}

// JobIDs returns the ids of every job this server knows, in submission
// order. The fleet coordinator uses it to rebuild its assignment table
// from replica journals after a full-process restart.
func (s *Server) JobIDs() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]string(nil), s.order...)
}

// Metrics returns the server's metric snapshot; the fleet coordinator
// folds replica snapshots together with obs.Merge.
func (s *Server) Metrics() obs.Snapshot { return s.cfg.Obs.Snapshot() }

// Admit validates, journals, and enqueues a job under a caller-assigned
// id — the fleet dispatch path (HTTP submission assigns its own ids).
// Admission is idempotent on the id: re-admitting a known job returns its
// current status without a second execution, which is what makes journal
// steals safe to repeat. A checkpoint file already in the spool under the
// job's id (copied there by a stealing peer) is picked up as the resume
// point.
func (s *Server) Admit(ctx context.Context, id string, spec []byte) (JobStatus, error) {
	if id == "" {
		return JobStatus{}, fmt.Errorf("serve: Admit requires a job id: %w", resilience.ErrInvalidDesign)
	}
	if !s.jl.healthy() {
		// Typed twice over: not-ready tells the dispatcher to reroute, the
		// storage class tells it why (treat this replica as dead for new
		// work, not merely backpressured).
		return JobStatus{}, fmt.Errorf("serve: journal storage degraded: %w (%w)", ErrNotReady, resilience.ErrStorage)
	}
	if !s.Ready() {
		return JobStatus{}, fmt.Errorf("serve: not ready (draining or crashed): %w", ErrNotReady)
	}
	// Fast idempotency path: a known id never re-validates (its spec was
	// validated when first admitted, possibly by another replica).
	s.mu.Lock()
	st, known, err := s.awaitLocked(id)
	s.mu.Unlock()
	if known {
		return st, err
	}
	req, err := s.validate(spec)
	if err != nil {
		return JobStatus{}, err
	}
	return s.admitValidated(ctx, id, spec, req, s.resumePoint(id))
}

// AdoptFinished registers a job that already ran to a terminal state on
// another replica (the caller has copied its artifacts into this spool).
// Both the submission and the terminal record are journaled, so the
// adoption survives restarts. Idempotent on the job id.
func (s *Server) AdoptFinished(ctx context.Context, id string, spec []byte, st JobStatus) error {
	if !terminal(st.State) {
		return fmt.Errorf("serve: AdoptFinished: state %q is not terminal: %w",
			st.State, resilience.ErrInvalidDesign)
	}
	s.mu.Lock()
	if _, known, err := s.awaitLocked(id); known {
		s.mu.Unlock()
		return err
	}
	// Reserve the id, then journal outside s.mu — the admitValidated
	// discipline: two fsyncs under the server mutex would serialize every
	// admission behind this adoption's disk latency. The placeholder's
	// admitted channel parks a concurrent admission of the same id until
	// the adoption's durability verdict is in.
	j := &job{id: id, raw: append([]byte(nil), spec...), state: st.State, attempts: st.Attempts,
		class: st.Class, errMsg: st.Error, degraded: st.Degraded, faults: st.Faults,
		admitted: make(chan struct{})}
	if err := json.Unmarshal(spec, &j.req); err != nil {
		s.logf("adopt: job %s has undecodable spec: %v", id, err)
	}
	s.jobs[id] = j
	s.order = append(s.order, id)
	s.mu.Unlock()

	err := s.jl.append(ctx, record{Kind: recSubmit, Job: id, Spec: spec})
	if err == nil {
		// A landed submit with a failed finish is safe: after a crash the
		// job replays as pending and re-runs — deterministic flows make
		// that a duplicate effort, never a divergent result.
		err = s.jl.append(ctx, record{Kind: recFinish, Job: id, State: st.State,
			Class: st.Class, Error: st.Error, Degraded: st.Degraded, Faults: st.Faults})
	}

	s.mu.Lock()
	s.settleLocked(j, err)
	s.mu.Unlock()
	if err != nil {
		s.counter("serve.journal.write_failures").Add(1)
		return err
	}
	s.counter("serve.jobs.adopted").Add(1)
	return nil
}

// Crash simulates kill -9 for the in-process fleet harness: from this
// instant no journal record, result, sink or checkpoint write lands,
// in-flight job contexts die (with cause core.ErrAbandoned), and the
// worker pool is reaped. The object must then be abandoned (a restart is
// a fresh New on the same spool, exactly like a restarted process).
// Crash returns once every worker goroutine has exited, so a subsequent
// journal steal sees a quiescent spool — the in-process analogue of
// fencing a dead node before touching its state.
func (s *Server) Crash() {
	if !s.crashed.CompareAndSwap(false, true) {
		return
	}
	s.jl.kill()
	s.hardCancel(core.ErrAbandoned)
	s.waitWorkers(10 * time.Second)
}

// JournalJob is one job's state as read from a spool's journal, for
// fleet-level steal decisions.
type JournalJob struct {
	ID       string
	Spec     []byte
	State    string // StateQueued when non-terminal, else the terminal state
	Terminal bool
	Stolen   bool   // a peer already took this job
	Thief    string // who, when Stolen
	Status   JobStatus
}

// ReadJournalJobs reduces a spool's durable state — snapshot plus
// journal tail — into per-job states in submission order, without
// mutating the spool. The fleet coordinator runs it against a fenced
// replica's spool to decide what to steal (steals work against a
// compacted victim: the snapshot is the fold base the steal records
// apply over), and against every spool at startup to rebuild its
// assignment table.
func ReadJournalJobs(spoolDir string) ([]JournalJob, error) {
	st, err := loadSpool(atomicio.OS, spoolDir, false)
	if err != nil {
		return nil, err
	}
	return journalJobs(st), nil
}

// journalJobs lists a loaded spool's folded per-job states.
func journalJobs(st *spoolState) []JournalJob {
	var out []JournalJob
	for _, e := range st.entries {
		out = append(out, JournalJob{
			ID: e.id, Spec: e.spec, State: e.state, Terminal: terminal(e.state),
			Stolen: e.stolen, Thief: e.thief,
			Status: JobStatus{ID: e.id, State: e.state, Attempts: e.attempts,
				Degraded: e.degraded, Faults: e.faults, Class: e.class, Error: e.errMsg},
		})
	}
	return out
}

// MarkStolen appends steal records for the given jobs to the journal in
// spoolDir. Only call it for a fenced replica (crashed or otherwise
// quiescent): the journal is append-only single-writer, and fencing is
// what guarantees the dead replica's appender is silent. A torn final
// line from the crash is healed before the steal records land. Marking a
// job twice is harmless — reduction keeps the last thief. The context
// bounds the fsync-with-retry loop per record: canceling it abandons the
// remaining marks, which a later steal pass (or a coordinator restart's
// journal rebuild) re-issues.
func MarkStolen(ctx context.Context, spoolDir, thief string, ids []string) error {
	if len(ids) == 0 {
		return nil
	}
	// Scrub first: the victim may have died mid-compaction, and appending
	// to a stale journal would lose the steal records at its next replay.
	// Fencing makes the repair safe, and it recovers the sequence
	// high-water mark the steal records continue from.
	st, err := loadSpool(atomicio.OS, spoolDir, true)
	if err != nil {
		return err
	}
	// Steal records go through the degenerate per-line discipline: a
	// handful of records from one writer gain nothing from batching.
	jl, err := openJournal(atomicio.OS, filepath.Join(spoolDir, journalName), nil, 1, journalTuning{batch: 1}, st.seq)
	if err != nil {
		return err
	}
	defer jl.Close()
	for _, id := range ids {
		if err := jl.append(ctx, record{Kind: recSteal, Job: id, Thief: thief}); err != nil {
			return err
		}
	}
	return nil
}

// SpoolArtifact returns the path of a per-job artifact ("ckpt",
// "out.json", "trace.jsonl", "metrics.json") in a spool directory, the
// same layout jobPath uses. The fleet steal path copies artifacts between
// spools through it.
func SpoolArtifact(spoolDir, id, suffix string) string {
	return filepath.Join(spoolDir, id+"."+suffix)
}

// SpoolReport is the result of inspecting or repairing a spool — the
// cmd/skewjournal surface.
type SpoolReport struct {
	Gen         int  `json:"gen"`          // current snapshot/journal generation
	Seq         int  `json:"seq"`          // sequence high-water mark
	Jobs        int  `json:"jobs"`         // jobs in the folded ledger
	Pending     int  `json:"pending"`      // non-terminal, non-stolen jobs
	Records     int  `json:"records"`      // journal tail records (excluding genesis)
	Quarantined int  `json:"quarantined"`  // corrupt non-tail lines found (verify) or moved (repair)
	TornHealed  bool `json:"torn_healed"`  // a torn/corrupt tail was found (verify) or dropped (repair)
	StaleHealed bool `json:"stale_healed"` // an interrupted compaction swap was found or completed
}

func spoolReport(st *spoolState) SpoolReport {
	r := SpoolReport{
		Gen: st.gen, Seq: st.seq, Jobs: len(st.entries), Records: st.scrub.records,
		Quarantined: st.scrub.quarantined, TornHealed: st.scrub.tornHealed,
		StaleHealed: st.scrub.staleHealed,
	}
	for _, e := range st.entries {
		if !e.stolen && !terminal(e.state) {
			r.Pending++
		}
	}
	return r
}

// InspectSpool reads a spool's durable state without mutating it,
// returning the report alongside the folded per-job states.
func InspectSpool(spoolDir string) (SpoolReport, []JournalJob, error) {
	st, err := loadSpool(atomicio.OS, spoolDir, false)
	if err != nil {
		return SpoolReport{}, nil, err
	}
	return spoolReport(st), journalJobs(st), nil
}

// VerifySpool checks every snapshot and journal frame without mutating
// anything. The report counts what a repair would fix; err is non-nil
// only when the spool cannot be loaded at all (e.g. a corrupt snapshot,
// typed resilience.ErrStorage).
func VerifySpool(spoolDir string) (SpoolReport, error) {
	st, err := loadSpool(atomicio.OS, spoolDir, false)
	if err != nil {
		return SpoolReport{}, err
	}
	return spoolReport(st), nil
}

// RepairSpool scrubs a quiescent spool in place: corrupt non-tail lines
// move to the quarantine file, a torn tail is truncated, an interrupted
// compaction swap is completed. The owning daemon must be stopped.
func RepairSpool(spoolDir string) (SpoolReport, error) {
	st, err := loadSpool(atomicio.OS, spoolDir, true)
	if err != nil {
		return SpoolReport{}, err
	}
	return spoolReport(st), nil
}

// CompactSpool folds a quiescent spool's journal into its snapshot and
// truncates the journal to a genesis record. The owning daemon must be
// stopped.
func CompactSpool(spoolDir string) (SpoolReport, error) {
	if err := compactSpool(atomicio.OS, spoolDir, nil); err != nil {
		return SpoolReport{}, err
	}
	return VerifySpool(spoolDir)
}
