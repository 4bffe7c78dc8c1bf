package fleet

import (
	"fmt"
	"io"
	"os"
	"path/filepath"

	"skewvar/internal/edaio/atomicio"
	"skewvar/internal/obs"
	"skewvar/internal/resilience"
	"skewvar/internal/serve"
)

// replica is one member of the in-process cluster: a serve.Server on a
// private spool directory, running workers but no HTTP listener, plus
// the coordinator's health bookkeeping for it. All mutable fields are
// guarded by the Cluster's mutex.
type replica struct {
	name  string // "r0", "r1", ... — also the spool subdirectory name
	spool string

	srv *serve.Server // nil while dead (crashed and not yet restarted)

	breaker *resilience.Breaker // quarantine on dispatch failures

	misses      int  // consecutive failed heartbeats
	dead        bool // declared dead by the monitor (or crashed by admin)
	fencing     bool // crash-stop in progress; journal NOT yet safe
	fenced      bool // crash-stopped; journal safe to steal from
	stolen      bool // journal already harvested by a peer
	incarnation int  // bumped on every (re)start, for logs and /replicas
}

// spoolFor returns the spool directory of the named replica under the
// fleet root.
func spoolFor(root, name string) string { return filepath.Join(root, name) }

// startReplica builds (or rebuilds, after a crash/restart) the replica's
// serve.Server on its spool and launches its worker pool. The journal in
// the spool replays first, exactly as a restarted skewd process would.
func (c *Cluster) startReplica(r *replica) error {
	if err := os.MkdirAll(r.spool, 0o755); err != nil {
		return fmt.Errorf("fleet: replica %s spool: %w", r.name, err)
	}
	name := r.name
	srv, err := serve.New(serve.Config{
		SpoolDir:      r.spool,
		Workers:       c.cfg.Workers,
		QueueDepth:    c.cfg.QueueDepth,
		JobTimeout:    c.cfg.JobTimeout,
		DrainTimeout:  c.cfg.DrainTimeout,
		JournalBatch:  c.cfg.JournalBatch,
		JournalWindow: c.cfg.JournalWindow,
		CompactEvery:  c.cfg.CompactEvery,
		Tech:          c.cfg.Tech,
		Char:          c.cfg.Char,
		Model:         c.cfg.Model,
		Obs:           obs.New(),
		RetrySeed:     c.cfg.Seed,
		Logf: func(format string, args ...interface{}) {
			c.cfg.Logf(name+": "+format, args...)
		},
	})
	if err != nil {
		return fmt.Errorf("fleet: replica %s: %w", r.name, err)
	}
	srv.StartWorkers()
	r.srv = srv
	r.dead = false
	r.fenced = false
	r.stolen = false
	r.misses = 0
	r.incarnation++
	return nil
}

// copyArtifact copies one per-job spool artifact (ckpt, out.json,
// trace.jsonl, metrics.json) from a victim's spool to a thief's,
// skipping silently when the source does not exist (e.g. a job that
// crashed before its first checkpoint). The copy goes through
// atomicio.WriteFile like every other spool artifact: a crash or power
// loss never leaves a torn or unsynced artifact under the real name (a
// torn checkpoint would poison the resume, a torn result would be served
// for a job the thief's journal records as done).
func copyArtifact(fromSpool, toSpool, id, suffix string) error {
	in, err := os.Open(serve.SpoolArtifact(fromSpool, id, suffix))
	if err != nil {
		if os.IsNotExist(err) {
			return nil
		}
		return err
	}
	defer in.Close()
	return atomicio.WriteFile(serve.SpoolArtifact(toSpool, id, suffix), func(w io.Writer) error {
		_, err := io.Copy(w, in)
		return err
	})
}
