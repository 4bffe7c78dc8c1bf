package clitest

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"testing"
	"time"

	"skewvar/internal/serve"
)

// skewfleetFixture builds the skewfleet binary, a trained model bundle,
// and a design document once per test (artifacts under dir).
func skewfleetFixture(t *testing.T, dir string) (bin, model string, design []byte) {
	t.Helper()
	root := repoRoot(t)
	bin = filepath.Join(dir, "skewfleet")
	run(t, root, "build", "-o", bin, "./cmd/skewfleet")
	model = filepath.Join(dir, "m.json")
	run(t, root, "run", "./cmd/trainml", "-kind", "ridge", "-cases", "6",
		"-moves", "6", "-eval=false", "-o", model)
	designPath := filepath.Join(dir, "d.json")
	run(t, root, "run", "./cmd/gentest", "-case", "CLS1v1", "-ffs", "120", "-o", designPath)
	b, err := os.ReadFile(designPath)
	if err != nil {
		t.Fatal(err)
	}
	return bin, model, b
}

// adminPost POSTs a fleet admin endpooint and returns the HTTP status.
func adminPost(t *testing.T, url, path string) int {
	t.Helper()
	resp, err := http.Post(url+path, "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp.StatusCode
}

// waitStolen polls until a job's owning replica is no longer from.
func waitStolen(t *testing.T, url, id, from string) {
	t.Helper()
	deadline := time.Now().Add(120 * time.Second)
	for {
		if owner, _ := jobStatus(t, url, id)["replica"].(string); owner != from {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s still owned by crashed replica %s (no steal happened)", id, from)
		}
		time.Sleep(25 * time.Millisecond)
	}
}

// restartReplica retries /admin/restart until the replica comes back
// (409 while it is still being fenced).
func restartReplica(t *testing.T, url, name string) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		if code := adminPost(t, url, "/admin/restart/"+name); code == http.StatusOK {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("replica %s never restarted", name)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// activeJournalJobs folds every replica journal under the fleet spool
// into a map of job id → number of journals where the job is active
// (submitted and not stolen away). The no-loss/no-duplication invariant
// is: every submitted job id maps to exactly 1.
func activeJournalJobs(t *testing.T, fleetSpool string, replicas int) map[string]int {
	t.Helper()
	active := map[string]int{}
	for i := 0; i < replicas; i++ {
		spool := filepath.Join(fleetSpool, fmt.Sprintf("r%d", i))
		jobs, err := serve.ReadJournalJobs(spool)
		if err != nil {
			if os.IsNotExist(err) {
				continue
			}
			t.Fatalf("reading %s journal: %v", spool, err)
		}
		for _, j := range jobs {
			if !j.Stolen {
				active[j.ID]++
			}
		}
	}
	return active
}

func assertExactlyOnce(t *testing.T, active map[string]int, ids ...string) {
	t.Helper()
	for _, id := range ids {
		if active[id] != 1 {
			t.Errorf("job %s is active in %d journals, want exactly 1 (no loss, no duplication)", id, active[id])
		}
	}
}

// TestSkewfleetKillSteal is the fleet failover e2e: a replica is
// crash-stopped while it owns a running job; with peers the job is
// stolen and finished elsewhere, without peers the restarted replica
// resumes it — and in every cell of the (seed × replicas × intra-job
// workers) matrix the result is byte-identical to an uninterrupted
// single-node reference run, with no job lost or duplicated.
func TestSkewfleetKillSteal(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	tmp := t.TempDir()
	bin, model, design := skewfleetFixture(t, tmp)
	jobReq := func(workers int) map[string]interface{} {
		return map[string]interface{}{
			"design": json.RawMessage(design),
			"flow":   "local", "pairs": 100, "iters": 2,
			"workers": workers, "checkpoint_every": 1000,
		}
	}

	// Reference: an uninterrupted single-replica run at intra-job
	// workers 1. Flow determinism makes its bytes the oracle for every
	// matrix cell.
	refSpool := filepath.Join(tmp, "spool-ref")
	ref := startSkewd(t, bin, "-spool", refSpool, "-model", model, "-replicas", "1")
	code, m, _ := submitJob(t, ref.url, jobReq(1))
	if code != http.StatusAccepted {
		t.Fatalf("reference submit: HTTP %d", code)
	}
	refID := m["id"]
	if st := waitJob(t, ref.url, refID, "done", "failed", "canceled"); st["state"] != "done" {
		t.Fatalf("reference job ended %v: %v", st["state"], st["error"])
	}
	rcode, refBytes := jobResult(t, ref.url, refID)
	if rcode != http.StatusOK || len(refBytes) == 0 {
		t.Fatalf("reference result: HTTP %d (%d bytes)", rcode, len(refBytes))
	}
	refTrace := canonicalJobTrace(t, filepath.Join(refSpool, "r0"), refID)
	crashAfter := crashDelay(t, filepath.Join(refSpool, "r0"), refID)
	if ec := ref.sigterm(t); ec != 0 {
		t.Fatalf("reference drain: exit %d; stderr:\n%s", ec, ref.stderr)
	}

	for _, seed := range []int64{1, 2} {
		for _, replicas := range []int{1, 3} {
			for _, workers := range []int{1, 4} {
				name := fmt.Sprintf("seed%d-replicas%d-workers%d", seed, replicas, workers)
				t.Run(name, func(t *testing.T) {
					spool := filepath.Join(tmp, "spool-"+name)
					p := startSkewd(t, bin, "-spool", spool, "-model", model,
						"-replicas", fmt.Sprint(replicas),
						"-fault-seed", fmt.Sprint(seed))

					code, m, _ := submitJob(t, p.url, jobReq(workers))
					if code != http.StatusAccepted {
						t.Fatalf("submit: HTTP %d", code)
					}
					id, owner := m["id"], m["replica"]
					if owner == "" {
						t.Fatal("submit response names no owning replica")
					}
					waitJob(t, p.url, id, "running", "done")
					time.Sleep(crashAfter) // let the flow get into the stage
					if code := adminPost(t, p.url, "/admin/crash/"+owner); code != http.StatusOK {
						t.Fatalf("admin crash of %s: HTTP %d", owner, code)
					}
					if replicas == 1 {
						// No peer can steal: self-failover is a restart, whose
						// journal replay resumes the job.
						restartReplica(t, p.url, owner)
					}

					st := waitJob(t, p.url, id, "done", "failed", "canceled")
					if st["state"] != "done" {
						t.Fatalf("recovered job ended %v (class %v): %v; stderr:\n%s",
							st["state"], st["class"], st["error"], p.stderr)
					}
					if replicas > 1 {
						// A job that finished before the crash landed reports
						// done from the victim's journal until the steal adopts
						// it, so wait for the steal, not just for done.
						waitStolen(t, p.url, id, owner)
					}
					rcode, b := jobResult(t, p.url, id)
					if rcode != http.StatusOK {
						t.Fatalf("recovered result: HTTP %d", rcode)
					}
					if !bytes.Equal(b, refBytes) {
						t.Errorf("result differs from uninterrupted reference (%d vs %d bytes)",
							len(b), len(refBytes))
					}
					// The job checkpointed only at stage boundaries, so the
					// recovering replica replayed the whole stage: at the
					// reference worker count the canonical trace must match too.
					finalOwner, _ := jobStatus(t, p.url, id)["replica"].(string)
					if workers == 1 && finalOwner != "" {
						got := canonicalJobTrace(t, filepath.Join(spool, finalOwner), id)
						if !bytes.Equal(got, refTrace) {
							t.Error("canonical trace differs from uninterrupted reference")
						}
					}
					if replicas > 1 && finalOwner == owner {
						t.Errorf("job still owned by crashed replica %s (no steal happened)", owner)
					}

					if ec := p.sigterm(t); ec != 0 {
						t.Fatalf("drain: exit %d; stderr:\n%s", ec, p.stderr)
					}
					assertExactlyOnce(t, activeJournalJobs(t, spool, replicas), id)
				})
			}
		}
	}
}

// TestSkewfleetPartitionMatrix drives the fleet through partitions and
// delayed heartbeats: dropped dispatch RPCs must fail over along the
// ring (quarantining the unreachable replica), heartbeat delays past the
// miss threshold must kill and fence a replica (a false positive — it
// was healthy), and in every case all jobs finish, none lost or
// duplicated, and the fleet drains clean.
func TestSkewfleetPartitionMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	tmp := t.TempDir()
	bin, model, design := skewfleetFixture(t, tmp)
	jobReq := map[string]interface{}{
		"design": json.RawMessage(design),
		"flow":   "local", "pairs": 100, "iters": 2,
		"workers": 1, "checkpoint_every": 1000,
	}

	cases := []struct {
		name       string
		faults     string
		wantsDeath bool // a replica must have been declared dead
	}{
		// A short partition on the dispatch path: the first submissions'
		// RPCs drop, the breaker quarantines, failover still lands them.
		{"rpc-partition", "rpc-drop:first=2", false},
		// Transient heartbeat delays: suspicion (misses) without death.
		{"heartbeat-blip", "heartbeat-delay:first=2", false},
		// Delays past MissThreshold on the first-probed replica: a
		// false-positive death; fencing makes it safe and peers steal.
		{"heartbeat-false-positive", "heartbeat-delay:first=7", true},
		// Full partition: dispatch drops and heartbeat loss together.
		{"full-partition", "rpc-drop:first=2,heartbeat-delay:first=7", true},
	}
	for _, tc := range cases {
		for _, seed := range []int64{1, 2} {
			t.Run(fmt.Sprintf("%s-seed%d", tc.name, seed), func(t *testing.T) {
				spool := filepath.Join(tmp, fmt.Sprintf("spool-%s-%d", tc.name, seed))
				p := startSkewd(t, bin, "-spool", spool, "-model", model,
					"-replicas", "3", "-faults", tc.faults,
					"-fault-seed", fmt.Sprint(seed))

				var ids []string
				for i := 0; i < 3; i++ {
					code, m, _ := submitJob(t, p.url, jobReq)
					if code != http.StatusAccepted {
						t.Fatalf("submit %d: HTTP %d %v", i, code, m)
					}
					ids = append(ids, m["id"])
				}
				for _, id := range ids {
					if st := waitJob(t, p.url, id, "done", "failed", "canceled"); st["state"] != "done" {
						t.Fatalf("job %s ended %v (class %v): %v", id, st["state"], st["class"], st["error"])
					}
				}

				var snap struct {
					Counters map[string]int64 `json:"counters"`
				}
				resp, err := http.Get(p.url + "/metrics")
				if err != nil {
					t.Fatal(err)
				}
				if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
					t.Fatal(err)
				}
				resp.Body.Close()
				if tc.wantsDeath && snap.Counters["fleet.replicas.declared_dead"] == 0 {
					t.Error("no replica was declared dead under sustained heartbeat delay")
				}
				if !tc.wantsDeath && snap.Counters["fleet.replicas.declared_dead"] != 0 {
					t.Errorf("transient fault killed %d replica(s)",
						snap.Counters["fleet.replicas.declared_dead"])
				}

				if ec := p.sigterm(t); ec != 0 {
					t.Fatalf("drain: exit %d; stderr:\n%s", ec, p.stderr)
				}
				assertExactlyOnce(t, activeJournalJobs(t, spool, 3), ids...)
			})
		}
	}
}
