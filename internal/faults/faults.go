// Package faults is a deterministic, seedable fault-injection harness for
// the optimization flows. Hook points in the flow code ask an Injector
// whether to fail (`inj.Fire(hook)`); an unarmed or nil injector never
// fires, so production paths pay one nil check per hook.
//
// Injection plans are deterministic: a hook armed with At fires at exact
// 1-based call indices; First fires on the first N calls; Prob fires with the
// given probability from a seeded generator, so a (seed, spec) pair always
// replays the same fault sequence. Every degradation path in the flows is
// exercised in tests through these hooks.
package faults

import (
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Hook names. Flow code fires these at its fault boundaries.
const (
	// LPSolve fails a global-optimization LP solve (typed as
	// resilience.ErrSolver by the caller).
	LPSolve = "lp-solve"

	// NaNDelay corrupts one arc's timing with NaN before the LP is built,
	// exercising the solver-input validation and block-skip path.
	NaNDelay = "nan-delay"

	// CheckpointWrite fails a checkpoint file write (all retry attempts see
	// the same armed hook, so First=n controls how many attempts fail).
	CheckpointWrite = "checkpoint-write"

	// MoveApply fails one local-optimization move trial, exercising the
	// skip-and-log path.
	MoveApply = "move-apply"

	// JobJournalWrite fails one append attempt of the skewd job journal
	// (all retry attempts consult the same armed hook, so First=n controls
	// how many attempts fail; an always-armed hook exhausts the retries and
	// the submission is rejected with HTTP 507, class "storage").
	JobJournalWrite = "job-journal-write"

	// JournalGroupFlush crashes a group-commit journal flush at a batch
	// boundary. The hook is consulted three times per batch, in order —
	// before the write, mid-write (leaving a torn tail), and after the
	// write but before the fsync acknowledges — so `at=N` selects both
	// which flush dies and at which boundary (call 3k+1/3k+2/3k+3 are
	// flush k+1's three points). A fired crash kills the appender: acked
	// lines stay durable, unacked lines are lost or torn, never corrupted.
	JournalGroupFlush = "journal-group-flush"

	// WorkerPanic panics a skewd worker at the top of a job run, exercising
	// the per-job resilience.Safely isolation: the job fails with a typed
	// panic class, the daemon survives.
	WorkerPanic = "worker-panic"

	// SlowJob parks a skewd job until its context is canceled — a
	// deterministic stand-in for a wedged optimization. It drives the
	// per-job deadline, queue-backpressure, and drain-timeout paths without
	// wall-clock-sensitive sleeps.
	SlowJob = "slow-job"

	// ReplicaCrash kills an in-process fleet replica at the dispatch
	// boundary, right after a job was durably admitted to it — the
	// deterministic kill -9: the job is journaled but unfinished, and a
	// surviving peer must steal the journal and resume it. The call index
	// selects which dispatch dies, so `replica-crash:at=2` always kills the
	// replica holding the second dispatched job.
	ReplicaCrash = "replica-crash"

	// RPCDrop drops one coordinator→replica RPC (submit, status, or ping):
	// the call fails with a transport error as if the packet never arrived.
	// Arm a run of consecutive drops (first=N) to simulate a partition.
	RPCDrop = "rpc-drop"

	// HeartbeatDelay fails one heartbeat probe as if the reply arrived
	// after the probe deadline. A run shorter than the coordinator's miss
	// threshold exercises suspicion and recovery; a longer run drives a
	// false-positive death, fencing, and journal steal of a live replica.
	HeartbeatDelay = "heartbeat-delay"

	// The four storage hooks drive the atomicio fault filesystem
	// (atomicio.WithFaults); their names equal the atomicio.Fault*
	// operation constants, so a -faults spec addresses the FS seam
	// directly. DiskFull fails a journal or snapshot write with ENOSPC
	// after landing only half of its bytes.
	DiskFull = "disk-full"

	// FsyncError fails an fsync with EIO: the write may sit in the page
	// cache, but durability was never acknowledged.
	FsyncError = "fsync-error"

	// ReadCorrupt flips one bit in data returned by a journal or snapshot
	// read — silent bit rot that only the frame checksum can catch.
	ReadCorrupt = "read-corrupt"

	// RenameTorn fails an atomic rename with EIO, leaving the target
	// untouched — the crash-before-rename half of a snapshot swap.
	RenameTorn = "rename-torn"

	// CompactCrash simulates kill -9 at a journal-compaction boundary.
	// Each compaction consults it at every boundary in order (snapshot
	// written, snapshot renamed, journal written, journal renamed), so
	// `compact-crash:at=N` selects which boundary the process dies at.
	CompactCrash = "compact-crash"
)

// Hooks lists every known hook name.
var Hooks = []string{LPSolve, NaNDelay, CheckpointWrite, MoveApply, JobJournalWrite, JournalGroupFlush,
	WorkerPanic, SlowJob, ReplicaCrash, RPCDrop, HeartbeatDelay,
	DiskFull, FsyncError, ReadCorrupt, RenameTorn, CompactCrash}

// Spec is one hook's injection plan. Zero-value fields are inactive; a Spec
// with no active field always fires (used for "always fail" plans). Max, when
// positive, caps the total number of fires regardless of plan.
type Spec struct {
	Prob  float64 // fire with this probability per call
	At    []int   // fire at these exact 1-based call indices
	First int     // fire on the first N calls
	Max   int     // cap on total fires (0 = unlimited)
}

type hookState struct {
	spec  Spec
	at    map[int]bool
	calls int
	fired int
}

// Injector decides, per hook call, whether to inject a fault. Safe for
// concurrent use; a nil Injector never fires.
type Injector struct {
	mu       sync.Mutex
	rng      *rand.Rand
	hooks    map[string]*hookState
	observer func(hook string, call int)
}

// SetObserver installs (or, with nil, removes) a callback invoked after
// every firing decision that injects a fault, with the hook name and its
// 1-based call index. The flow runner uses it to turn injections into trace
// events. The callback runs outside the injector's lock and must be safe
// for concurrent use. Nil-safe.
func (in *Injector) SetObserver(fn func(hook string, call int)) {
	if in == nil {
		return
	}
	in.mu.Lock()
	in.observer = fn
	in.mu.Unlock()
}

// New returns an injector with no armed hooks, seeding the probabilistic
// plans' generator.
func New(seed int64) *Injector {
	return &Injector{rng: rand.New(rand.NewSource(seed)), hooks: map[string]*hookState{}}
}

// Arm installs (or replaces) the plan for a hook and returns the injector
// for chaining.
func (in *Injector) Arm(hook string, spec Spec) *Injector {
	in.mu.Lock()
	defer in.mu.Unlock()
	st := &hookState{spec: spec}
	if len(spec.At) > 0 {
		st.at = make(map[int]bool, len(spec.At))
		for _, i := range spec.At {
			st.at[i] = true
		}
	}
	in.hooks[hook] = st
	return in
}

// Fire reports whether this call of the hook should fail, advancing the
// hook's deterministic call counter. Nil injectors and unarmed hooks never
// fire.
func (in *Injector) Fire(hook string) bool {
	if in == nil {
		return false
	}
	in.mu.Lock()
	st := in.hooks[hook]
	if st == nil {
		in.mu.Unlock()
		return false
	}
	st.calls++
	if st.spec.Max > 0 && st.fired >= st.spec.Max {
		in.mu.Unlock()
		return false
	}
	fire := false
	switch {
	case st.at != nil:
		fire = st.at[st.calls]
	case st.spec.First > 0:
		fire = st.calls <= st.spec.First
	case st.spec.Prob > 0:
		fire = in.rng.Float64() < st.spec.Prob
	default:
		fire = true
	}
	if fire {
		st.fired++
	}
	call := st.calls
	obs := in.observer
	in.mu.Unlock()
	// The observer runs outside the lock so it may call back into the
	// injector (e.g. String for a log line) without deadlocking.
	if fire && obs != nil {
		obs(hook, call)
	}
	return fire
}

// Calls returns how many times the hook has been consulted. Nil-safe.
func (in *Injector) Calls(hook string) int {
	if in == nil {
		return 0
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	if st := in.hooks[hook]; st != nil {
		return st.calls
	}
	return 0
}

// Fired returns how many faults the hook has injected. Nil-safe.
func (in *Injector) Fired(hook string) int {
	if in == nil {
		return 0
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	if st := in.hooks[hook]; st != nil {
		return st.fired
	}
	return 0
}

// String renders the armed hooks and their progress ("lp-solve:2/5 ...") in
// sorted order, for logs.
func (in *Injector) String() string {
	if in == nil {
		return "<nil>"
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	names := make([]string, 0, len(in.hooks))
	for h := range in.hooks {
		names = append(names, h)
	}
	sort.Strings(names)
	parts := make([]string, 0, len(names))
	for _, h := range names {
		st := in.hooks[h]
		parts = append(parts, fmt.Sprintf("%s:%d/%d", h, st.fired, st.calls))
	}
	return strings.Join(parts, " ")
}

// Parse builds an injector from a comma-separated spec string:
//
//	hook                  always fire
//	hook:always           always fire
//	hook:p=0.5            fire with probability 0.5 (seeded)
//	hook:at=3             fire on exactly the 3rd call
//	hook:first=2          fire on the first 2 calls
//	hook:p=0.5+max=3      attributes combine with '+'
//
// Unknown hook names are rejected so typos fail loudly.
func Parse(spec string, seed int64) (*Injector, error) {
	in := New(seed)
	known := map[string]bool{}
	for _, h := range Hooks {
		known[h] = true
	}
	for _, item := range strings.Split(spec, ",") {
		item = strings.TrimSpace(item)
		if item == "" {
			continue
		}
		name, attrs, _ := strings.Cut(item, ":")
		if !known[name] {
			return nil, fmt.Errorf("faults: unknown hook %q (known: %s)", name, strings.Join(Hooks, " "))
		}
		var s Spec
		if attrs != "" && attrs != "always" {
			for _, kv := range strings.Split(attrs, "+") {
				key, val, ok := strings.Cut(kv, "=")
				if !ok {
					return nil, fmt.Errorf("faults: bad attribute %q in %q", kv, item)
				}
				switch key {
				case "p":
					f, err := strconv.ParseFloat(val, 64)
					if err != nil || f < 0 || f > 1 {
						return nil, fmt.Errorf("faults: bad probability %q in %q", val, item)
					}
					s.Prob = f
				case "at":
					n, err := strconv.Atoi(val)
					if err != nil || n < 1 {
						return nil, fmt.Errorf("faults: bad call index %q in %q", val, item)
					}
					s.At = append(s.At, n)
				case "first":
					n, err := strconv.Atoi(val)
					if err != nil || n < 1 {
						return nil, fmt.Errorf("faults: bad first-count %q in %q", val, item)
					}
					s.First = n
				case "max":
					n, err := strconv.Atoi(val)
					if err != nil || n < 1 {
						return nil, fmt.Errorf("faults: bad max-count %q in %q", val, item)
					}
					s.Max = n
				default:
					return nil, fmt.Errorf("faults: unknown attribute %q in %q", key, item)
				}
			}
		}
		in.Arm(name, s)
	}
	return in, nil
}
