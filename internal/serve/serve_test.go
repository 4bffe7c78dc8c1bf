package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net"
	"net/http"
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
	"skewvar/internal/tech"
	"skewvar/internal/testgen"
)

// Shared, read-only fixtures: one technology, one trained stage model,
// one serialized design document for every test in the package.
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

// testServer builds, starts, and registers cleanup for a Server with
// small defaults; mod (optional) edits the config before New.
func testServer(t *testing.T, spool string, mod func(*Config)) (*Server, string) {
	t.Helper()
	th, ch, model, _ := fixtures(t)
	cfg := Config{
		SpoolDir:     spool,
		Workers:      2,
		QueueDepth:   4,
		JobTimeout:   time.Minute,
		DrainTimeout: 5 * time.Second,
		Tech:         th,
		Char:         ch,
		Model:        model,
		Obs:          obs.New(),
		Logf:         t.Logf,
	}
	if mod != nil {
		mod(&cfg)
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s.Start(ln)
	t.Cleanup(func() { s.Drain() })
	return s, "http://" + ln.Addr().String()
}

// jobBody marshals a JobRequest carrying the shared fixture design.
func jobBody(t *testing.T, mod func(*JobRequest)) []byte {
	t.Helper()
	_, _, _, design := fixtures(t)
	req := JobRequest{Design: design, Flow: "local", Pairs: 40, Iters: 2}
	if mod != nil {
		mod(&req)
	}
	b, err := json.Marshal(&req)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func post(t *testing.T, url string, body []byte) (int, map[string]string, http.Header) {
	t.Helper()
	resp, err := http.Post(url+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m map[string]string
	b, _ := io.ReadAll(resp.Body)
	json.Unmarshal(b, &m)
	return resp.StatusCode, m, resp.Header
}

func getStatus(t *testing.T, url, id string) JobStatus {
	t.Helper()
	resp, err := http.Get(url + "/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %s: HTTP %d", id, resp.StatusCode)
	}
	var st JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

// waitState polls until the job reaches one of the wanted states.
func waitState(t *testing.T, url, id string, want ...string) JobStatus {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for {
		st := getStatus(t, url, id)
		for _, w := range want {
			if st.State == w {
				return st
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %q (want one of %v)", id, st.State, want)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestSubmitRunsToCompletion(t *testing.T) {
	if testing.Short() {
		t.Skip("flow execution in -short mode")
	}
	spool := t.TempDir()
	s, url := testServer(t, spool, nil)

	code, m, _ := post(t, url, jobBody(t, nil))
	if code != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d (want 202)", code)
	}
	id := m["id"]
	if id == "" {
		t.Fatal("submit: no job id in response")
	}

	st := waitState(t, url, id, StateDone, StateFailed, StateCanceled)
	if st.State != StateDone {
		t.Fatalf("job ended %s (class %s): %s", st.State, st.Class, st.Error)
	}
	if st.Flow != "local" || st.Attempts != 1 {
		t.Errorf("status = %+v, want flow local, 1 attempt", st)
	}

	// The result must be a valid design document.
	resp, err := http.Get(url + "/jobs/" + id + "/result")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("result: HTTP %d", resp.StatusCode)
	}
	if _, err := edaio.ReadDesign(resp.Body); err != nil {
		t.Fatalf("result is not a valid design: %v", err)
	}

	// Per-job observability artifacts landed in the spool.
	for _, suffix := range []string{"out.json", "trace.jsonl", "metrics.json"} {
		if _, err := os.Stat(filepath.Join(spool, id+"."+suffix)); err != nil {
			t.Errorf("missing artifact %s.%s: %v", id, suffix, err)
		}
	}

	// Server metrics reflect the lifecycle.
	snap := s.cfg.Obs.Snapshot()
	if snap.Counters["serve.jobs.submitted"] != 1 || snap.Counters["serve.jobs.done"] != 1 {
		t.Errorf("counters = %v, want 1 submitted / 1 done", snap.Counters)
	}

	// Unknown jobs 404.
	if resp, err := http.Get(url + "/jobs/j999999"); err == nil {
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("unknown job: HTTP %d (want 404)", resp.StatusCode)
		}
	}
}

func TestAdmissionValidation(t *testing.T) {
	if testing.Short() {
		t.Skip("flow execution in -short mode")
	}
	s, url := testServer(t, t.TempDir(), nil)

	// Not JSON at all.
	if code, _, _ := post(t, url, []byte("not json")); code != http.StatusBadRequest {
		t.Errorf("garbage body: HTTP %d (want 400)", code)
	}
	// No design document.
	if code, _, _ := post(t, url, []byte(`{"flow":"local"}`)); code != http.StatusBadRequest {
		t.Errorf("missing design: HTTP %d (want 400)", code)
	}
	// Unknown flow name.
	if code, _, _ := post(t, url, jobBody(t, func(r *JobRequest) { r.Flow = "warp" })); code != http.StatusBadRequest {
		t.Errorf("unknown flow: HTTP %d (want 400)", code)
	}
	// Corrupt design document.
	if code, _, _ := post(t, url, []byte(`{"design":{"bogus":true},"flow":"local"}`)); code != http.StatusBadRequest {
		t.Errorf("invalid design: HTTP %d (want 400)", code)
	}
	// A valid request padded with trailing whitespace to one byte over
	// the body cap.
	invalid := func() int64 { return s.Metrics().Counters["serve.jobs.rejected.invalid"] }
	before := invalid()
	big := jobBody(t, nil)
	big = append(big, bytes.Repeat([]byte(" "), MaxJobBytes+1-len(big))...)
	code, m, _ := post(t, url, big)
	if code != http.StatusBadRequest || m["class"] != "invalid-design" || !strings.Contains(m["error"], "too large") {
		t.Errorf("oversized body: HTTP %d class %q error %q (want 400 invalid-design, too large)", code, m["class"], m["error"])
	}
	if got := invalid() - before; got != 1 {
		t.Errorf("oversized body counted %d invalid rejections, want 1", got)
	}
}

// TestBackpressureAndDeadline drives the admission-control matrix with a
// deterministically wedged job: one worker, queue depth one, the first
// job parks on slow-job until its deadline. The second job queues, the
// third is rejected 429 with Retry-After, the wedged job ends canceled
// (result → 504), and the queued job then runs to completion.
func TestBackpressureAndDeadline(t *testing.T) {
	if testing.Short() {
		t.Skip("flow execution in -short mode")
	}
	inj := faults.New(1).Arm(faults.SlowJob, faults.Spec{First: 1})
	_, url := testServer(t, t.TempDir(), func(c *Config) {
		c.Workers = 1
		c.QueueDepth = 1
		c.Faults = inj
	})

	slow := jobBody(t, func(r *JobRequest) { r.TimeoutMS = 400 })
	code, m1, _ := post(t, url, slow)
	if code != http.StatusAccepted {
		t.Fatalf("job1: HTTP %d", code)
	}
	waitState(t, url, m1["id"], StateRunning, StateCanceled)

	code, m2, _ := post(t, url, jobBody(t, nil))
	if code != http.StatusAccepted {
		t.Fatalf("job2: HTTP %d", code)
	}

	code, _, hdr := post(t, url, jobBody(t, nil))
	if code != http.StatusTooManyRequests {
		t.Fatalf("job3: HTTP %d (want 429)", code)
	}
	if hdr.Get("Retry-After") == "" {
		t.Error("429 without Retry-After header")
	}

	st1 := waitState(t, url, m1["id"], StateCanceled, StateFailed, StateDone)
	if st1.State != StateCanceled || st1.Class != "canceled" {
		t.Fatalf("wedged job ended %s/%s (want canceled/canceled): %s", st1.State, st1.Class, st1.Error)
	}
	resp, err := http.Get(url + "/jobs/" + m1["id"] + "/result")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Errorf("canceled job result: HTTP %d (want 504)", resp.StatusCode)
	}

	st2 := waitState(t, url, m2["id"], StateDone, StateFailed, StateCanceled)
	if st2.State != StateDone {
		t.Fatalf("queued job ended %s: %s", st2.State, st2.Error)
	}
}

// TestPanicIsolation pins the tentpole isolation property: a panicking
// job becomes a typed failure on that job; the daemon keeps serving and
// the next job succeeds.
func TestPanicIsolation(t *testing.T) {
	if testing.Short() {
		t.Skip("flow execution in -short mode")
	}
	inj := faults.New(1).Arm(faults.WorkerPanic, faults.Spec{First: 1})
	_, url := testServer(t, t.TempDir(), func(c *Config) {
		c.Workers = 1
		c.Faults = inj
	})

	code, m1, _ := post(t, url, jobBody(t, nil))
	if code != http.StatusAccepted {
		t.Fatalf("job1: HTTP %d", code)
	}
	st := waitState(t, url, m1["id"], StateFailed, StateDone, StateCanceled)
	if st.State != StateFailed || st.Class != "panic" {
		t.Fatalf("panicked job ended %s/%s (want failed/panic): %s", st.State, st.Class, st.Error)
	}
	if !strings.Contains(st.Error, "panic") {
		t.Errorf("panic failure message %q does not mention the panic", st.Error)
	}
	resp, err := http.Get(url + "/jobs/" + m1["id"] + "/result")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Errorf("failed job result: HTTP %d (want 500)", resp.StatusCode)
	}

	// Daemon alive and healthy; next job runs clean.
	hresp, err := http.Get(url + "/healthz")
	if err != nil {
		t.Fatalf("daemon died after job panic: %v", err)
	}
	hresp.Body.Close()
	code, m2, _ := post(t, url, jobBody(t, nil))
	if code != http.StatusAccepted {
		t.Fatalf("job2 after panic: HTTP %d", code)
	}
	if st := waitState(t, url, m2["id"], StateDone, StateFailed, StateCanceled); st.State != StateDone {
		t.Fatalf("job after panic ended %s: %s", st.State, st.Error)
	}
}

// TestJournalWriteFailureRejectsSubmit: when every journal append attempt
// fails, admission must reject with a typed 507 storage error — a job the
// journal cannot make durable is never accepted — and the exhausted
// journal must fail readiness until an append succeeds again.
func TestJournalWriteFailureRejectsSubmit(t *testing.T) {
	if testing.Short() {
		t.Skip("flow execution in -short mode")
	}
	inj := faults.New(1).Arm(faults.JobJournalWrite, faults.Spec{}) // always
	s, url := testServer(t, t.TempDir(), func(c *Config) { c.Faults = inj })

	code, m, _ := post(t, url, jobBody(t, nil))
	if code != http.StatusInsufficientStorage {
		t.Fatalf("submit with dead journal: HTTP %d (want 507), body %v", code, m)
	}
	if m["class"] != "storage" {
		t.Errorf("rejection class %q, want storage", m["class"])
	}
	// The exhausted journal is poisoned: readiness degrades so a fleet
	// routes new work away from this replica.
	rresp, err := http.Get(url + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	rresp.Body.Close()
	if rresp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("readyz on poisoned journal: HTTP %d (want 503)", rresp.StatusCode)
	}
	// The rejected job must not exist.
	resp, err := http.Get(url + "/jobs/j000001")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("rejected job visible: HTTP %d (want 404)", resp.StatusCode)
	}
	if got := s.cfg.Obs.Snapshot().Counters["serve.jobs.rejected.journal"]; got != 1 {
		t.Errorf("rejected.journal counter = %d, want 1", got)
	}
	if inj.Calls(faults.JobJournalWrite) < 2 {
		t.Errorf("journal write not retried: %d attempts", inj.Calls(faults.JobJournalWrite))
	}
}

// TestJournalTransientFailureRetries: a journal that fails only its first
// two append attempts still admits the job (seeded-jitter backoff covers
// the retries) and the job completes.
func TestJournalTransientFailureRetries(t *testing.T) {
	if testing.Short() {
		t.Skip("flow execution in -short mode")
	}
	inj := faults.New(1).Arm(faults.JobJournalWrite, faults.Spec{First: 2})
	_, url := testServer(t, t.TempDir(), func(c *Config) { c.Faults = inj })

	code, m, _ := post(t, url, jobBody(t, nil))
	if code != http.StatusAccepted {
		t.Fatalf("submit with flaky journal: HTTP %d (want 202)", code)
	}
	if st := waitState(t, url, m["id"], StateDone, StateFailed, StateCanceled); st.State != StateDone {
		t.Fatalf("job ended %s: %s", st.State, st.Error)
	}
}

// TestJournalReplay: a journal written by a previous process — including
// a torn final line, as after kill -9 — re-admits the unfinished job on
// startup and runs it to completion; finished jobs are not re-run.
func TestJournalReplay(t *testing.T) {
	if testing.Short() {
		t.Skip("flow execution in -short mode")
	}
	spool := t.TempDir()
	body := jobBody(t, nil)

	var journal []byte
	for _, rec := range []record{
		{Seq: 1, Kind: recSubmit, Job: "j000001", Spec: body},
		{Seq: 2, Kind: recSubmit, Job: "j000002", Spec: body},
		{Seq: 3, Kind: recStart, Job: "j000001"},
		{Seq: 4, Kind: recFinish, Job: "j000001", State: StateDone},
		{Seq: 5, Kind: recStart, Job: "j000002"},
	} {
		journal = append(journal, frameLine(t, rec)...)
	}
	tail := frameLine(t, record{Seq: 6, Kind: recFinish, Job: "j000002", State: StateDone})
	journal = append(journal, tail[:len(tail)/2]...) // torn tail
	if err := os.WriteFile(filepath.Join(spool, journalName), journal, 0o644); err != nil {
		t.Fatal(err)
	}

	_, url := testServer(t, spool, nil)

	// j000001 finished in the previous life: replayed as done, not re-run.
	st1 := getStatus(t, url, "j000001")
	if st1.State != StateDone {
		t.Errorf("j000001 replayed as %s (want done)", st1.State)
	}
	// j000002 was mid-run at the crash: re-admitted and finishes now, on
	// its second recorded attempt.
	st2 := waitState(t, url, "j000002", StateDone, StateFailed, StateCanceled)
	if st2.State != StateDone {
		t.Fatalf("replayed job ended %s: %s", st2.State, st2.Error)
	}
	if st2.Attempts != 2 {
		t.Errorf("replayed job attempts = %d, want 2", st2.Attempts)
	}
}

// TestReplayCorruptCheckpointFallsBack: a replayed job whose flow
// checkpoint is corrupt must fall back to a fresh run, not fail.
func TestReplayCorruptCheckpointFallsBack(t *testing.T) {
	if testing.Short() {
		t.Skip("flow execution in -short mode")
	}
	spool := t.TempDir()
	journal := frameLine(t, record{Seq: 1, Kind: recSubmit, Job: "j000001", Spec: jobBody(t, nil)})
	if err := os.WriteFile(filepath.Join(spool, journalName), journal, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(spool, "j000001.ckpt"), []byte(`{"version":1,"trees":{"partial":`), 0o644); err != nil {
		t.Fatal(err)
	}

	s, url := testServer(t, spool, nil)
	st := waitState(t, url, "j000001", StateDone, StateFailed, StateCanceled)
	if st.State != StateDone {
		t.Fatalf("job with corrupt checkpoint ended %s (class %s): %s", st.State, st.Class, st.Error)
	}
	if got := s.cfg.Obs.Snapshot().Counters["serve.jobs.checkpoint_fallback"]; got != 1 {
		t.Errorf("checkpoint_fallback counter = %d, want 1", got)
	}
}

// TestDrainSuspendsWedgedJob: a drain whose budget expires cancels
// in-flight jobs; a drain-canceled job is journaled as suspended and a
// successor process re-admits and finishes it.
func TestDrainSuspendsWedgedJob(t *testing.T) {
	if testing.Short() {
		t.Skip("flow execution in -short mode")
	}
	spool := t.TempDir()
	inj := faults.New(1).Arm(faults.SlowJob, faults.Spec{First: 1})
	s, url := testServer(t, spool, func(c *Config) {
		c.Workers = 1
		c.Faults = inj
		c.DrainTimeout = 100 * time.Millisecond
	})

	code, m, _ := post(t, url, jobBody(t, func(r *JobRequest) { r.TimeoutMS = 60_000 }))
	if code != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d", code)
	}
	id := m["id"]
	waitState(t, url, id, StateRunning)

	if settled := s.Drain(); !settled {
		t.Fatal("drain did not settle within budget + grace")
	}
	// Readiness flipped; admission closed. (The HTTP server is stopped by
	// now, so inspect in-process state.)
	if st, ok := s.Status(id); !ok || st.State != StateSuspended {
		t.Fatalf("drained job state = %+v (want suspended)", st)
	}

	// A successor process replays the suspend and finishes the job.
	_, url2 := testServer(t, spool, nil)
	st := waitState(t, url2, id, StateDone, StateFailed, StateCanceled)
	if st.State != StateDone {
		t.Fatalf("resumed job ended %s (class %s): %s", st.State, st.Class, st.Error)
	}
}

// TestDrainRejectsNewWork: once draining, submits get 503 and readyz
// flips, while healthz stays 200 until shutdown.
func TestDrainRejectsNewWork(t *testing.T) {
	if testing.Short() {
		t.Skip("flow execution in -short mode")
	}
	s, url := testServer(t, t.TempDir(), nil)
	// Flip the drain flag before the sequence runs so the HTTP server is
	// still up to observe the rejection.
	s.draining.Store(true)
	code, _, _ := post(t, url, jobBody(t, nil))
	if code != http.StatusServiceUnavailable {
		t.Errorf("submit while draining: HTTP %d (want 503)", code)
	}
	resp, err := http.Get(url + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("readyz while draining: HTTP %d (want 503)", resp.StatusCode)
	}
	hresp, err := http.Get(url + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hresp.Body.Close()
	if hresp.StatusCode != http.StatusOK {
		t.Errorf("healthz while draining: HTTP %d (want 200)", hresp.StatusCode)
	}
	s.draining.Store(false) // let cleanup Drain run the real sequence
}

// TestParallelJobsDeterministic runs the same job twice concurrently and
// once more alone: all three result documents must be byte-identical —
// per-job isolation means concurrency cannot leak into results.
func TestParallelJobsDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("flow execution in -short mode")
	}
	_, url := testServer(t, t.TempDir(), func(c *Config) { c.Workers = 2 })

	var ids []string
	for i := 0; i < 3; i++ {
		code, m, _ := post(t, url, jobBody(t, nil))
		if code != http.StatusAccepted {
			t.Fatalf("job %d: HTTP %d", i, code)
		}
		ids = append(ids, m["id"])
	}
	var results [][]byte
	for _, id := range ids {
		if st := waitState(t, url, id, StateDone, StateFailed, StateCanceled); st.State != StateDone {
			t.Fatalf("job %s ended %s: %s", id, st.State, st.Error)
		}
		resp, err := http.Get(url + "/jobs/" + id + "/result")
		if err != nil {
			t.Fatal(err)
		}
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		results = append(results, b)
	}
	if !bytes.Equal(results[0], results[1]) || !bytes.Equal(results[0], results[2]) {
		t.Error("identical jobs produced different result bytes under concurrency")
	}
}
