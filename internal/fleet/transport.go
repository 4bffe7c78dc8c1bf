package fleet

import (
	"context"
	"errors"

	"skewvar/internal/faults"
	"skewvar/internal/serve"
)

// ErrUnreachable reports an RPC that definitely never reached the
// replica: a dropped request, a partition, or a dead process. Safe to
// fail over — the replica cannot have admitted anything.
var ErrUnreachable = errors.New("fleet: replica unreachable")

// ErrAmbiguous reports a dispatch whose outcome is unknown: the request
// may have been admitted durably before the reply was lost (the classic
// ack-loss window). The coordinator must NOT fail such a job over to
// another replica — re-admitting it elsewhere while the original
// admission survives in the victim's journal would run it twice. The
// job is parked against the suspect replica and recovered, exactly
// once, by the fence-then-steal pipeline.
var ErrAmbiguous = errors.New("fleet: dispatch outcome unknown")

// localTransport is the coordinator's view of a replica: it calls the
// replicas' serve.Server methods directly, consulting the fault injector
// at the boundaries a network would have, so coordinator logic is
// exercised against the failure surface of a networked fleet. Each hook
// is consumed by exactly one call stream, so a plan like
// "rpc-drop:first=3" keeps its meaning regardless of how often clients
// poll or the monitor ticks:
//
//   - heartbeat-delay fires on Ping only and fails that probe — to a
//     deadline-based prober a delayed heartbeat and a lost one are
//     indistinguishable, so delay is modeled as loss. Short runs
//     exercise suspicion and recovery; runs past MissThreshold force a
//     false-positive death and prove fencing keeps the steal safe.
//   - rpc-drop fires on Submit only and loses the request before it
//     reaches the replica (ErrUnreachable). Runs of drops model a
//     partition and drive the dispatch breaker to quarantine.
//   - replica-crash fires in Submit after the job was durably admitted:
//     the replica is crash-stopped and the reply is lost
//     (ErrAmbiguous). Only the journal steal resolves the job's fate.
//
// Status is deliberately uninstrumented: its call count is driven by
// client polling, which would make fault timing nondeterministic.
type localTransport struct {
	c *Cluster
}

// Ping probes liveness and readiness. An error counts as a missed
// heartbeat.
func (t *localTransport) Ping(ctx context.Context, name string) error {
	if t.c.cfg.Faults.Fire(faults.HeartbeatDelay) {
		t.c.counter("fleet.faults.heartbeat_delay").Add(1)
		return ErrUnreachable
	}
	srv := t.c.liveServer(name)
	if srv == nil {
		return ErrUnreachable
	}
	if !srv.Ready() {
		return errors.New("fleet: replica not ready")
	}
	return nil
}

// Submit dispatches a job spec to a replica under a fleet-assigned id.
// serve.ErrBusy means the replica's queue bound rejected it
// (backpressure, not failure); ErrUnreachable means it was never
// delivered; ErrAmbiguous means it may or may not have landed.
func (t *localTransport) Submit(ctx context.Context, name, id string, spec []byte) (serve.JobStatus, error) {
	if t.c.cfg.Faults.Fire(faults.RPCDrop) {
		t.c.counter("fleet.faults.rpc_drop").Add(1)
		return serve.JobStatus{}, ErrUnreachable
	}
	srv := t.c.liveServer(name)
	if srv == nil {
		return serve.JobStatus{}, ErrUnreachable
	}
	st, err := srv.Admit(ctx, id, spec)
	if err != nil {
		return serve.JobStatus{}, err
	}
	if t.c.cfg.Faults.Fire(faults.ReplicaCrash) {
		t.c.counter("fleet.faults.replica_crash").Add(1)
		t.c.crashReplica(name)
		return serve.JobStatus{}, ErrAmbiguous
	}
	return st, nil
}

// Status fetches one job's status from a replica.
func (t *localTransport) Status(ctx context.Context, name, id string) (serve.JobStatus, bool, error) {
	srv := t.c.liveServer(name)
	if srv == nil {
		return serve.JobStatus{}, false, ErrUnreachable
	}
	st, ok := srv.Status(id)
	return st, ok, nil
}
