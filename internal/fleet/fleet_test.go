package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"skewvar/internal/core"
	"skewvar/internal/edaio"
	"skewvar/internal/faults"
	"skewvar/internal/lut"
	"skewvar/internal/obs"
	"skewvar/internal/resilience"
	"skewvar/internal/serve"
	"skewvar/internal/tech"
	"skewvar/internal/testgen"
)

// Shared, read-only fixtures, mirroring the serve package's.
var (
	fixOnce   sync.Once
	fixTech   *tech.Tech
	fixChar   *lut.Char
	fixModel  core.StageModel
	fixDesign []byte
	fixErr    error
)

func fixtures(t *testing.T) (*tech.Tech, *lut.Char, core.StageModel, []byte) {
	t.Helper()
	fixOnce.Do(func() {
		fixTech = tech.Default28nm()
		fixChar = lut.Characterize(fixTech)
		m, err := core.TrainStageModel(context.Background(), fixTech, core.TrainConfig{
			Cases: 8, MovesPerCase: 8, Kind: "ridge", Seed: 7,
		})
		if err != nil {
			fixErr = err
			return
		}
		fixModel = m
		d, _, err := testgen.Build(fixTech, testgen.CLS1v1(48))
		if err != nil {
			fixErr = err
			return
		}
		var buf bytes.Buffer
		if err := edaio.WriteDesign(&buf, d); err != nil {
			fixErr = err
			return
		}
		fixDesign = buf.Bytes()
	})
	if fixErr != nil {
		t.Fatal(fixErr)
	}
	return fixTech, fixChar, fixModel, fixDesign
}

func jobSpec(t *testing.T, mod func(*serve.JobRequest)) []byte {
	t.Helper()
	_, _, _, design := fixtures(t)
	req := serve.JobRequest{Design: design, Flow: "local", Pairs: 40, Iters: 2}
	if mod != nil {
		mod(&req)
	}
	b, err := json.Marshal(&req)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// testCluster builds, starts, and registers cleanup for a small fast
// cluster; mod (optional) edits the config before New.
func testCluster(t *testing.T, spool string, mod func(*Config)) *Cluster {
	t.Helper()
	th, ch, model, _ := fixtures(t)
	cfg := Config{
		SpoolDir:       spool,
		Replicas:       3,
		Workers:        2,
		QueueDepth:     8,
		JobTimeout:     time.Minute,
		DrainTimeout:   5 * time.Second,
		HeartbeatEvery: 10 * time.Millisecond,
		MissThreshold:  3,
		Tech:           th,
		Char:           ch,
		Model:          model,
		Obs:            obs.New(),
		Logf:           t.Logf,
	}
	if mod != nil {
		mod(&cfg)
	}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Drain() })
	return c
}

// waitState polls until the job reaches one of the wanted states.
func waitState(t *testing.T, c *Cluster, id string, want ...string) serve.JobStatus {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		st, _, ok := c.Status(context.Background(), id)
		if ok {
			for _, w := range want {
				if st.State == w {
					return st
				}
			}
			switch st.State {
			case serve.StateFailed, serve.StateCanceled:
				t.Fatalf("job %s reached %s (%s: %s), wanted %v", id, st.State, st.Class, st.Error, want)
			}
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("job %s never reached %v", id, want)
	return serve.JobStatus{}
}

// TestRingDeterminism pins the placement contract: the same id always
// maps to the same failover sequence, every replica appears exactly
// once per sequence, and the load spread over many ids touches every
// replica.
func TestRingDeterminism(t *testing.T) {
	names := []string{"r0", "r1", "r2", "r3", "r4"}
	r1, r2 := newRing(names), newRing(names)
	counts := map[string]int{}
	for i := 0; i < 500; i++ {
		id := serve.JobID(i)
		a, b := r1.Sequence(id), r2.Sequence(id)
		if len(a) != len(names) {
			t.Fatalf("sequence for %s has %d entries, want %d", id, len(a), len(names))
		}
		seen := map[string]bool{}
		for j := range a {
			if a[j] != b[j] {
				t.Fatalf("sequence for %s differs between identical rings: %v vs %v", id, a, b)
			}
			if seen[a[j]] {
				t.Fatalf("sequence for %s repeats %s: %v", id, a[j], a)
			}
			seen[a[j]] = true
		}
		counts[a[0]]++
	}
	for _, n := range names {
		if counts[n] == 0 {
			t.Fatalf("replica %s owns no ids out of 500: %v", n, counts)
		}
	}
}

// TestSubmitAndSpread runs a handful of jobs through a healthy cluster
// and checks they all finish and land on more than one replica.
func TestSubmitAndSpread(t *testing.T) {
	if testing.Short() {
		t.Skip("drives full optimization flows; skipped in -short (race/cover)")
	}
	c := testCluster(t, t.TempDir(), nil)
	spec := jobSpec(t, nil)
	owners := map[string]bool{}
	var ids []string
	for i := 0; i < 6; i++ {
		st, owner, err := c.Submit(context.Background(), spec)
		if err != nil {
			t.Fatal(err)
		}
		owners[owner] = true
		ids = append(ids, st.ID)
	}
	for _, id := range ids {
		waitState(t, c, id, serve.StateDone)
	}
	if len(owners) < 2 {
		t.Errorf("6 jobs all landed on one replica: %v", owners)
	}
}

// TestSubmitBodyCap pins the fleet's POST /jobs body cap to skewd's: a
// valid request padded with trailing whitespace to one byte over
// serve.MaxJobBytes is an invalid design.
func TestSubmitBodyCap(t *testing.T) {
	c := testCluster(t, t.TempDir(), nil)
	ts := httptest.NewServer(c.Handler())
	defer ts.Close()
	big := jobSpec(t, nil)
	big = append(big, bytes.Repeat([]byte(" "), serve.MaxJobBytes+1-len(big))...)
	resp, err := http.Post(ts.URL+"/jobs", "application/json", bytes.NewReader(big))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body serve.ErrorBody
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusBadRequest || body.Class != "invalid-design" || !strings.Contains(body.Error, "too large") {
		t.Errorf("oversized body: HTTP %d class %q error %q (want 400 invalid-design, too large)", resp.StatusCode, body.Class, body.Error)
	}
}

// TestHandlerUnknownJob pins the fleet's answer for an id it never
// assigned: 404 with the job API's error body, for the status and the
// result endpoint alike.
func TestHandlerUnknownJob(t *testing.T) {
	c := testCluster(t, t.TempDir(), nil)
	ts := httptest.NewServer(c.Handler())
	defer ts.Close()
	for _, path := range []string{"/jobs/j999999", "/jobs/j999999/result"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		var body serve.ErrorBody
		derr := json.NewDecoder(resp.Body).Decode(&body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound || derr != nil || !strings.Contains(body.Error, "j999999") {
			t.Errorf("GET %s: HTTP %d body %+v (decode error %v), want 404 naming the id", path, resp.StatusCode, body, derr)
		}
	}
}

// TestQuarantineAndRecovery drives breakers open with dropped dispatch
// RPCs (threshold 1: one drop quarantines), verifies every submission
// still succeeds by failing over along the ring, later submissions skip
// quarantined replicas, and the heartbeat probe eventually closes every
// breaker again.
func TestQuarantineAndRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("drives full optimization flows; skipped in -short (race/cover)")
	}
	// Two drops: the first submission burns both on its first two ring
	// candidates and lands on the third; the two penalized breakers open.
	inj, err := faults.Parse("rpc-drop:first=2", 1)
	if err != nil {
		t.Fatal(err)
	}
	c := testCluster(t, t.TempDir(), func(cfg *Config) {
		cfg.Faults = inj
		cfg.BreakerThreshold = 1
		cfg.BreakerCooldown = 6
	})
	spec := jobSpec(t, nil)
	var ids []string
	for i := 0; i < 6; i++ {
		st, _, err := c.Submit(context.Background(), spec)
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		ids = append(ids, st.ID)
	}
	for _, id := range ids {
		waitState(t, c, id, serve.StateDone)
	}
	snap := c.Metrics()
	if snap.Counters["fleet.dispatch.failures"] != 2 {
		t.Errorf("fleet.dispatch.failures = %d, want 2", snap.Counters["fleet.dispatch.failures"])
	}
	if snap.Counters["fleet.dispatch.quarantined"] == 0 {
		t.Error("no dispatch ever skipped a quarantined replica")
	}
	// The injector is exhausted (first=2); heartbeat probes must close
	// every breaker again.
	deadline := time.Now().Add(10 * time.Second)
	for {
		allClosed := true
		for _, ri := range c.Replicas() {
			if ri.Breaker != "closed" {
				allClosed = false
			}
		}
		if allClosed {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("breakers never re-closed: %+v", c.Replicas())
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestHeartbeatDeathAndSteal crashes a replica that owns jobs and
// verifies the monitor declares it dead, fences it, and a peer steals
// and finishes every job — none lost, none duplicated.
func TestHeartbeatDeathAndSteal(t *testing.T) {
	if testing.Short() {
		t.Skip("drives full optimization flows; skipped in -short (race/cover)")
	}
	spool := t.TempDir()
	c := testCluster(t, spool, nil)
	spec := jobSpec(t, nil)
	byOwner := map[string][]string{}
	for i := 0; i < 6; i++ {
		st, owner, err := c.Submit(context.Background(), spec)
		if err != nil {
			t.Fatal(err)
		}
		byOwner[owner] = append(byOwner[owner], st.ID)
	}
	var victim string
	for owner, ids := range byOwner {
		if len(ids) > 0 {
			victim = owner
			break
		}
	}
	if err := c.CrashReplica(victim); err != nil {
		t.Fatal(err)
	}
	for _, ids := range byOwner {
		for _, id := range ids {
			waitState(t, c, id, serve.StateDone)
		}
	}
	// The victim's journal must show every one of its jobs stolen, and
	// no job id may be active (submitted, not stolen-away) in more than
	// one journal.
	active := map[string]int{}
	for _, ri := range c.Replicas() {
		jobs, err := serve.ReadJournalJobs(filepath.Join(spool, ri.Name))
		if err != nil {
			if os.IsNotExist(err) {
				continue
			}
			t.Fatal(err)
		}
		for _, j := range jobs {
			if !j.Stolen {
				active[j.ID]++
			}
		}
	}
	for id, n := range active {
		if n != 1 {
			t.Errorf("job %s is active in %d journals, want exactly 1", id, n)
		}
	}
	if len(active) != 6 {
		t.Errorf("%d active jobs across journals, want 6", len(active))
	}
	// The dead replica restarts empty-handed: its journal replay skips
	// every stolen-away job.
	if err := c.RestartReplica(victim); err != nil {
		t.Fatal(err)
	}
	st, _, err := c.Submit(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, c, st.ID, serve.StateDone)
}

// TestAmbiguousDispatchRecovery fires replica-crash on the second
// dispatch: the job is durably admitted but the ack is lost. The
// coordinator must not re-admit it elsewhere; the steal pipeline must
// recover it to done exactly once.
func TestAmbiguousDispatchRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("drives full optimization flows; skipped in -short (race/cover)")
	}
	inj, err := faults.Parse("replica-crash:at=2", 1)
	if err != nil {
		t.Fatal(err)
	}
	spool := t.TempDir()
	c := testCluster(t, spool, func(cfg *Config) { cfg.Faults = inj })
	spec := jobSpec(t, nil)

	st1, _, err := c.Submit(context.Background(), spec)
	if err != nil {
		t.Fatalf("first submit: %v", err)
	}
	_, suspect, err := c.Submit(context.Background(), spec)
	if err == nil {
		t.Fatal("second submit succeeded; replica-crash:at=2 should have lost the ack")
	}
	if suspect == "" {
		t.Fatal("ambiguous dispatch did not report the suspect replica")
	}
	// Both jobs — the acked one and the ambiguous one — must finish,
	// the ambiguous one exactly once via the steal.
	waitState(t, c, st1.ID, serve.StateDone)
	waitState(t, c, "j000002", serve.StateDone)

	active := map[string]int{}
	for _, ri := range c.Replicas() {
		jobs, err := serve.ReadJournalJobs(filepath.Join(spool, ri.Name))
		if err != nil {
			continue
		}
		for _, j := range jobs {
			if !j.Stolen {
				active[j.ID]++
			}
		}
	}
	if active["j000002"] != 1 {
		t.Errorf("ambiguous job active in %d journals, want exactly 1", active["j000002"])
	}
}

// TestStealIdempotent re-runs a steal pass against a victim journal a
// peer already harvested and verifies nothing is re-admitted: the
// thief's job set and journal length are unchanged.
func TestStealIdempotent(t *testing.T) {
	if testing.Short() {
		t.Skip("drives full optimization flows; skipped in -short (race/cover)")
	}
	spool := t.TempDir()
	c := testCluster(t, spool, nil)
	spec := jobSpec(t, nil)
	st, owner, err := c.Submit(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, c, st.ID, serve.StateDone)
	if err := c.CrashReplica(owner); err != nil {
		t.Fatal(err)
	}
	// Wait until the monitor's steal marked the victim's journal.
	deadline := time.Now().Add(10 * time.Second)
	for {
		jobs, err := serve.ReadJournalJobs(filepath.Join(spool, owner))
		if err == nil && len(jobs) > 0 && jobs[0].Stolen {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("victim journal never marked stolen")
		}
		time.Sleep(10 * time.Millisecond)
	}
	c.mu.Lock()
	victim := c.replicas[owner]
	c.mu.Unlock()

	before := journalLen(t, filepath.Join(spool, owner))
	// Force the pass to re-run from scratch, as a crashed-and-restarted
	// coordinator would.
	c.mu.Lock()
	victim.stolen = false
	c.mu.Unlock()
	c.stealFrom(victim)
	c.stealFrom(victim)
	after := journalLen(t, filepath.Join(spool, owner))
	if after != before {
		t.Errorf("re-stealing grew the victim journal: %d -> %d records", before, after)
	}
	st2, _, ok := c.Status(context.Background(), st.ID)
	if !ok || st2.State != serve.StateDone {
		t.Errorf("job after double steal: %+v (ok=%v)", st2, ok)
	}
}

// journalLen counts raw journal records in a spool — an exact measure
// of whether a repeated steal appended anything.
func journalLen(t *testing.T, spoolDir string) int {
	t.Helper()
	b, err := os.ReadFile(filepath.Join(spoolDir, "jobs.journal"))
	if err != nil {
		t.Fatal(err)
	}
	return bytes.Count(b, []byte("\n"))
}

// TestMetricsAggregation checks /metrics is the associative fold of the
// replicas: the fleet-wide submitted counter and job-duration histogram
// must account for every job regardless of which replica ran it.
func TestMetricsAggregation(t *testing.T) {
	if testing.Short() {
		t.Skip("drives full optimization flows; skipped in -short (race/cover)")
	}
	c := testCluster(t, t.TempDir(), nil)
	spec := jobSpec(t, nil)
	const n = 5
	var ids []string
	for i := 0; i < n; i++ {
		st, _, err := c.Submit(context.Background(), spec)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, st.ID)
	}
	for _, id := range ids {
		waitState(t, c, id, serve.StateDone)
	}
	snap := c.Metrics()
	if got := snap.Counters["fleet.jobs.submitted"]; got != n {
		t.Errorf("fleet.jobs.submitted = %d, want %d", got, n)
	}
	if got := snap.Counters["serve.jobs.done"]; got != n {
		t.Errorf("merged serve.jobs.done = %d, want %d", got, n)
	}
	h, ok := snap.Histograms["serve.job.duration_ns"]
	if !ok {
		t.Fatal("merged snapshot lacks serve.job.duration_ns histogram")
	}
	if h.Count != n {
		t.Errorf("merged duration histogram count = %d, want %d", h.Count, n)
	}
	// Associativity: folding the per-replica snapshots in any order must
	// agree with the cluster's own fold.
	var alt obs.Snapshot
	infos := c.Replicas()
	for i := len(infos) - 1; i >= 0; i-- {
		if srv := c.liveServer(infos[i].Name); srv != nil {
			alt = obs.Merge(alt, srv.Metrics())
		}
	}
	alt = obs.Merge(alt, c.cfg.Obs.Snapshot())
	if alt.Counters["serve.jobs.done"] != snap.Counters["serve.jobs.done"] ||
		alt.Histograms["serve.job.duration_ns"].Count != h.Count {
		t.Error("merge order changed the aggregate — Merge is not associative over these inputs")
	}
}

// TestRebuildCompletesOrphanSteal constructs the steal crash window by
// hand — victim journal marked stolen, thief never admitted — and
// verifies a fresh New completes the transfer and the job reaches done.
func TestRebuildCompletesOrphanSteal(t *testing.T) {
	if testing.Short() {
		t.Skip("drives full optimization flows; skipped in -short (race/cover)")
	}
	spool := t.TempDir()
	spec := jobSpec(t, nil)

	// Run a single-replica fleet to get a journaled, unfinished job:
	// submit with a tiny timeout so it suspends... simpler: submit and
	// crash the replica before completion is not deterministic. Instead,
	// journal the submission directly through a serve.Server that never
	// starts workers.
	th, ch, model, _ := fixtures(t)
	r0 := filepath.Join(spool, "r0")
	if err := os.MkdirAll(r0, 0o755); err != nil {
		t.Fatal(err)
	}
	srv, err := serve.New(serve.Config{
		SpoolDir: r0, Workers: 1, QueueDepth: 8,
		Tech: th, Char: ch, Model: model, Obs: obs.New(), Logf: t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Admit(context.Background(), "j000001", spec); err != nil {
		t.Fatal(err)
	}
	srv.Crash() // no workers started; journal holds a pending submit

	// Mark it stolen by r1 — but "crash" before r1 ever hears of it.
	if err := serve.MarkStolen(context.Background(), r0, "r1", []string{"j000001"}); err != nil {
		t.Fatal(err)
	}

	c := testCluster(t, spool, func(cfg *Config) { cfg.Replicas = 2 })
	st, owner, ok := c.Status(context.Background(), "j000001")
	if !ok {
		t.Fatal("rebuilt cluster does not know the orphaned job")
	}
	if owner != "r1" {
		t.Errorf("orphaned steal assigned to %s, want thief r1", owner)
	}
	_ = st
	waitState(t, c, "j000001", serve.StateDone)

	snap := c.Metrics()
	if snap.Counters["fleet.jobs.orphan_steals_completed"] != 1 {
		t.Errorf("orphan_steals_completed = %d, want 1",
			snap.Counters["fleet.jobs.orphan_steals_completed"])
	}
}

// TestFalsePositiveFencing delays heartbeats long enough to declare a
// healthy, working replica dead. Fencing must crash-stop it before the
// steal, and the stolen job must still finish correctly elsewhere.
func TestFalsePositiveFencing(t *testing.T) {
	if testing.Short() {
		t.Skip("drives full optimization flows; skipped in -short (race/cover)")
	}
	// Two replicas, ticks probe r0 then r1. Five delayed heartbeats in a
	// row: ticks 1-2 miss both replicas (calls 1-4), tick 3's r0 probe
	// (call 5) is the third miss that declares r0 dead — a false
	// positive, r0 is healthy and may be mid-job — while r1's tick-3
	// probe succeeds (plan exhausted) and resets its misses. Fencing
	// crash-stops r0 before the steal, so the job finishes exactly once
	// on r1, resumed from r0's checkpoint if one landed.
	inj, err := faults.Parse("heartbeat-delay:first=5", 1)
	if err != nil {
		t.Fatal(err)
	}
	spool := t.TempDir()
	c := testCluster(t, spool, func(cfg *Config) {
		cfg.Faults = inj
		cfg.Replicas = 2
	})
	spec := jobSpec(t, nil)
	var ids []string
	for i := 0; i < 3; i++ {
		st, _, err := c.Submit(context.Background(), spec)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, st.ID)
	}
	for _, id := range ids {
		waitState(t, c, id, serve.StateDone)
	}

	active := map[string]int{}
	for _, ri := range c.Replicas() {
		jobs, err := serve.ReadJournalJobs(filepath.Join(spool, ri.Name))
		if err != nil {
			continue
		}
		for _, j := range jobs {
			if !j.Stolen {
				active[j.ID]++
			}
		}
	}
	for _, id := range ids {
		if active[id] != 1 {
			t.Errorf("job %s active in %d journals after false-positive fencing, want 1", id, active[id])
		}
	}
	// The delayed heartbeats must actually have killed a replica for the
	// test to have exercised the false-positive path.
	snap := c.Metrics()
	if snap.Counters["fleet.replicas.declared_dead"] == 0 {
		t.Error("no replica was declared dead under the heartbeat-delay plan")
	}
}

// TestBreakerBackedByResilience pins that the fleet uses the shared
// breaker implementation (state names on /replicas come from it).
func TestBreakerBackedByResilience(t *testing.T) {
	b := resilience.NewBreaker(resilience.BreakerConfig{})
	if got := b.State().String(); got != "closed" {
		t.Fatalf("fresh breaker state %q", got)
	}
}

// TestGroupCommitStealNoLoss reruns the crash-and-steal pipeline with
// replica journals in group-commit mode (batch 8, 2ms window): the
// tuning threads through Config to every replica, and the no-loss
// invariant — every admitted job active in exactly one journal after the
// steal — holds exactly as in the fsync-per-line baseline.
func TestGroupCommitStealNoLoss(t *testing.T) {
	if testing.Short() {
		t.Skip("drives full optimization flows; skipped in -short (race/cover)")
	}
	spool := t.TempDir()
	c := testCluster(t, spool, func(cfg *Config) {
		cfg.JournalBatch = 8
		cfg.JournalWindow = 2 * time.Millisecond
	})
	spec := jobSpec(t, nil)
	byOwner := map[string][]string{}
	var ids []string
	for i := 0; i < 4; i++ {
		st, owner, err := c.Submit(context.Background(), spec)
		if err != nil {
			t.Fatal(err)
		}
		byOwner[owner] = append(byOwner[owner], st.ID)
		ids = append(ids, st.ID)
	}
	var victim string
	for owner, own := range byOwner {
		if len(own) > 0 {
			victim = owner
			break
		}
	}
	if err := c.CrashReplica(victim); err != nil {
		t.Fatal(err)
	}
	for _, id := range ids {
		waitState(t, c, id, serve.StateDone)
	}
	active := map[string]int{}
	for _, ri := range c.Replicas() {
		jobs, err := serve.ReadJournalJobs(filepath.Join(spool, ri.Name))
		if err != nil {
			if os.IsNotExist(err) {
				continue
			}
			t.Fatal(err)
		}
		for _, j := range jobs {
			if !j.Stolen {
				active[j.ID]++
			}
		}
	}
	for _, id := range ids {
		if active[id] != 1 {
			t.Errorf("job %s active in %d journals under group commit, want exactly 1", id, active[id])
		}
	}
}

// TestStealFromCompactedReplica kills a replica whose journal has been
// folded into a snapshot: an aggressive CompactEvery makes every replica
// compact after its first settled jobs, so the victim's durable state is
// snapshot + genesis + tail rather than a flat journal. The steal
// pipeline must recover every job from that shape — terminal jobs
// adopted from the snapshot base, in-flight ones resumed — exactly as it
// does from an uncompacted journal.
func TestStealFromCompactedReplica(t *testing.T) {
	if testing.Short() {
		t.Skip("drives full optimization flows; skipped in -short (race/cover)")
	}
	spool := t.TempDir()
	c := testCluster(t, spool, func(cfg *Config) { cfg.CompactEvery = 2 })
	spec := jobSpec(t, nil)

	// Wave 1 settles fully, so every loaded replica crosses the
	// two-record compaction threshold and snapshots.
	byOwner := map[string][]string{}
	var all []string
	for i := 0; i < 6; i++ {
		st, owner, err := c.Submit(context.Background(), spec)
		if err != nil {
			t.Fatal(err)
		}
		byOwner[owner] = append(byOwner[owner], st.ID)
		all = append(all, st.ID)
	}
	for _, id := range all {
		waitState(t, c, id, serve.StateDone)
	}

	// Pick a victim that owns jobs AND has compacted (snapshot on disk).
	var victim string
	deadline := time.Now().Add(30 * time.Second)
	for victim == "" {
		for owner, ids := range byOwner {
			if len(ids) == 0 {
				continue
			}
			if _, err := os.Stat(filepath.Join(spool, owner, "jobs.snapshot")); err == nil {
				victim = owner
				break
			}
		}
		if victim == "" && time.Now().After(deadline) {
			t.Fatal("no loaded replica compacted despite CompactEvery=2")
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Wave 2 goes out and the victim dies with it in flight, so the steal
	// walks a compacted spool holding both terminal and live jobs.
	for i := 0; i < 6; i++ {
		st, _, err := c.Submit(context.Background(), spec)
		if err != nil {
			t.Fatal(err)
		}
		all = append(all, st.ID)
	}
	if err := c.CrashReplica(victim); err != nil {
		t.Fatal(err)
	}
	for _, id := range all {
		waitState(t, c, id, serve.StateDone)
	}

	// Admitted-set audit across every spool: each job active (not
	// stolen-away) in exactly one journal, none lost, none duplicated.
	active := map[string]int{}
	for _, ri := range c.Replicas() {
		jobs, err := serve.ReadJournalJobs(filepath.Join(spool, ri.Name))
		if err != nil {
			if os.IsNotExist(err) {
				continue
			}
			t.Fatal(err)
		}
		for _, j := range jobs {
			if !j.Stolen {
				active[j.ID]++
			}
		}
	}
	for id, n := range active {
		if n != 1 {
			t.Errorf("job %s is active in %d journals, want exactly 1", id, n)
		}
	}
	if len(active) != len(all) {
		t.Errorf("%d active jobs across journals, want %d", len(active), len(all))
	}

	// The victim restarts over its compacted, stolen-from spool and
	// rejoins cleanly.
	if err := c.RestartReplica(victim); err != nil {
		t.Fatal(err)
	}
	st, _, err := c.Submit(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, c, st.ID, serve.StateDone)
}
