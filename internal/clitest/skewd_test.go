package clitest

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"skewvar/internal/obs"
)

// skewdFixture builds the skewd binary, a trained model bundle, and a
// design document once per test (artifacts under dir).
func skewdFixture(t *testing.T, dir string) (bin, model string, design []byte) {
	t.Helper()
	root := repoRoot(t)
	bin = filepath.Join(dir, "skewd")
	run(t, root, "build", "-o", bin, "./cmd/skewd")
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

// lockedBuf is a concurrency-safe sink for a daemon's streamed stderr.
type lockedBuf struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuf) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuf) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// skewdProc is a running skewd daemon under test.
type skewdProc struct {
	cmd    *exec.Cmd
	url    string
	stderr *lockedBuf
}

// startSkewd launches the daemon on a free port and waits for its
// address announcement (the readiness handshake).
func startSkewd(t *testing.T, bin string, args ...string) *skewdProc {
	t.Helper()
	cmd := exec.Command(bin, append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	pipe, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	p := &skewdProc{cmd: cmd, stderr: &lockedBuf{}}
	sc := bufio.NewScanner(pipe)
	for sc.Scan() {
		line := sc.Text()
		fmt.Fprintln(p.stderr, line)
		if i := strings.Index(line, "listening on http://"); i >= 0 {
			p.url = "http://" + strings.Fields(line[i+len("listening on http://"):])[0]
			break
		}
	}
	if p.url == "" {
		cmd.Process.Kill()
		cmd.Wait()
		t.Fatalf("skewd never announced its address; stderr:\n%s", p.stderr)
	}
	go io.Copy(p.stderr, pipe) // keep draining so the daemon never blocks on stderr
	t.Cleanup(func() {
		if cmd.ProcessState == nil {
			cmd.Process.Kill()
			cmd.Wait()
		}
	})
	return p
}

// kill9 delivers SIGKILL and reaps the process — the crash the journal
// exists for.
func (p *skewdProc) kill9(t *testing.T) {
	t.Helper()
	if err := p.cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	p.cmd.Wait()
}

// sigterm delivers SIGTERM and returns the daemon's exit code after its
// drain completes.
func (p *skewdProc) sigterm(t *testing.T) int {
	t.Helper()
	if err := p.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	p.cmd.Wait()
	return p.cmd.ProcessState.ExitCode()
}

// submitJob posts a job request; returns the HTTP status, decoded body,
// and response headers.
func submitJob(t *testing.T, url string, req map[string]interface{}) (int, map[string]string, http.Header) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
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

// jobStatus fetches GET /jobs/{id} (which must exist).
func jobStatus(t *testing.T, url, id string) map[string]interface{} {
	t.Helper()
	resp, err := http.Get(url + "/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("status %s: HTTP %d: %s", id, resp.StatusCode, b)
	}
	var st map[string]interface{}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

// waitJob polls until the job reaches one of the wanted states.
func waitJob(t *testing.T, url, id string, want ...string) map[string]interface{} {
	t.Helper()
	deadline := time.Now().Add(120 * time.Second)
	for {
		st := jobStatus(t, url, id)
		state, _ := st["state"].(string)
		for _, w := range want {
			if state == w {
				return st
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %q (want one of %v)", id, state, want)
		}
		time.Sleep(25 * time.Millisecond)
	}
}

// jobResult fetches GET /jobs/{id}/result.
func jobResult(t *testing.T, url, id string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url + "/jobs/" + id + "/result")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, b
}

func canonicalJobTrace(t *testing.T, spool, id string) []byte {
	t.Helper()
	return obs.CanonicalTrace(jobTrace(t, spool, id))
}

// jobTrace reads and validates a job's spooled trace.
func jobTrace(t *testing.T, spool, id string) []obs.Record {
	t.Helper()
	f, err := os.Open(filepath.Join(spool, id+".trace.jsonl"))
	if err != nil {
		t.Fatalf("job trace: %v", err)
	}
	defer f.Close()
	recs, err := obs.ReadTrace(f)
	if err != nil {
		t.Fatalf("parsing job trace: %v", err)
	}
	if err := obs.ValidateTrace(recs); err != nil {
		t.Fatalf("job trace structurally invalid: %v", err)
	}
	return recs
}

// crashDelay returns a quarter of the local stage's span in a finished
// job's trace. A crash that long after the same job is seen running lands
// inside its stage, before the stage-boundary checkpoint, however fast the
// host or the stage, and with room for the job to run twice as fast as
// the traced one: a delay that outlives the stage would let the resumed
// job restore the stage instead of replaying it.
func crashDelay(t *testing.T, spool, id string) time.Duration {
	t.Helper()
	for _, r := range jobTrace(t, spool, id) {
		if r.Kind == obs.KindSpan && r.Name == "local.opt" {
			return time.Duration(r.Dur) / 4
		}
	}
	t.Fatalf("job %s: trace has no local.opt span", id)
	return 0
}

// localStartIter returns the iteration a job's local stage started at in
// its trace: 0 for a stage run or replayed from its start, k for one
// resumed from the checkpoint taken after iteration k.
func localStartIter(t *testing.T, spool, id string) int {
	t.Helper()
	for _, r := range jobTrace(t, spool, id) {
		if r.Kind != obs.KindSpan || r.Name != "local.opt" {
			continue
		}
		for _, a := range r.Attrs {
			if a.Key == "start_iter" {
				return int(a.Num)
			}
		}
	}
	t.Fatalf("job %s: trace has no local.opt span with a start_iter", id)
	return 0
}

// waitFile polls until path exists. The spool writes checkpoints by
// rename, so a checkpoint that exists is complete.
func waitFile(t *testing.T, path string) {
	t.Helper()
	deadline := time.Now().Add(120 * time.Second)
	for {
		if _, err := os.Stat(path); err == nil {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s never appeared", path)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestSkewdKill9Resume is the crash-safety e2e: a daemon is SIGKILLed
// mid-job; its successor replays the journal and finishes the jobs, and
// the outputs are byte-identical to an uninterrupted run — including one
// job running at a different intra-job worker count.
func TestSkewdKill9Resume(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	tmp := t.TempDir()
	bin, model, design := skewdFixture(t, tmp)
	baseReq := map[string]interface{}{
		"design": json.RawMessage(design),
		"flow":   "local", "pairs": 100, "iters": 2,
	}
	req := func(extra map[string]interface{}) map[string]interface{} {
		m := map[string]interface{}{}
		for k, v := range baseReq {
			m[k] = v
		}
		for k, v := range extra {
			m[k] = v
		}
		return m
	}

	// Reference: an uninterrupted run at workers 1.
	refSpool := filepath.Join(tmp, "spool-ref")
	ref := startSkewd(t, bin, "-spool", refSpool, "-model", model)
	code, m, _ := submitJob(t, ref.url, req(map[string]interface{}{"workers": 1, "checkpoint_every": 1000}))
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
	refTrace := canonicalJobTrace(t, refSpool, refID)
	if ec := ref.sigterm(t); ec != 0 {
		t.Fatalf("reference drain: exit %d; stderr:\n%s", ec, ref.stderr)
	}

	// Victim daemon: job1 checkpoints only at stage boundaries (so a
	// mid-stage kill replays the whole stage — trace and bytes must both
	// match), job2 checkpoints every iteration at workers 2 (resume
	// mid-stage — bytes must match; its trace only covers the
	// continuation). Two pool workers run them concurrently, and the kill
	// lands as soon as job2's first checkpoint, written when its first of
	// two local iterations ends, is on disk: job2 then has a mid-stage
	// checkpoint, and job1, about as far into the same stage, has none.
	spool := filepath.Join(tmp, "spool-kill")
	victim := startSkewd(t, bin, "-spool", spool, "-model", model, "-workers", "2")
	code, m1, _ := submitJob(t, victim.url, req(map[string]interface{}{"workers": 1, "checkpoint_every": 1000}))
	if code != http.StatusAccepted {
		t.Fatalf("job1 submit: HTTP %d", code)
	}
	code, m2, _ := submitJob(t, victim.url, req(map[string]interface{}{"workers": 2, "checkpoint_every": 1}))
	if code != http.StatusAccepted {
		t.Fatalf("job2 submit: HTTP %d", code)
	}
	id1, id2 := m1["id"], m2["id"]
	waitJob(t, victim.url, id1, "running", "done")
	waitJob(t, victim.url, id2, "running", "done")
	waitFile(t, filepath.Join(spool, id2+".ckpt"))
	victim.kill9(t)

	// The successor replays the journal: both jobs must finish and match
	// the reference byte for byte.
	heir := startSkewd(t, bin, "-spool", spool, "-model", model, "-workers", "2")
	for _, id := range []string{id1, id2} {
		if st := waitJob(t, heir.url, id, "done", "failed", "canceled"); st["state"] != "done" {
			t.Fatalf("resumed job %s ended %v (class %v): %v", id, st["state"], st["class"], st["error"])
		}
		rcode, b := jobResult(t, heir.url, id)
		if rcode != http.StatusOK {
			t.Fatalf("resumed job %s result: HTTP %d", id, rcode)
		}
		if !bytes.Equal(b, refBytes) {
			t.Errorf("job %s result differs from the uninterrupted reference (%d vs %d bytes)", id, len(b), len(refBytes))
		}
	}
	// Job1 had no mid-stage checkpoint, so its trace covers the whole
	// replayed stage and must canonically equal the reference trace.
	if got := canonicalJobTrace(t, spool, id1); !bytes.Equal(got, refTrace) {
		t.Error("boundary-checkpointed job: canonical trace differs from uninterrupted reference")
	}
	// Job2's local stage must have resumed from its mid-stage checkpoint,
	// not replayed from its start.
	if it := localStartIter(t, spool, id2); it < 1 {
		t.Errorf("iteration-checkpointed job: local stage started at iteration %d, want a mid-stage resume (>= 1)", it)
	}
	if ec := heir.sigterm(t); ec != 0 {
		t.Fatalf("successor drain: exit %d; stderr:\n%s", ec, heir.stderr)
	}
}

// TestSkewdFaultMatrix drives each service-level fault hook end to end
// and pins the documented HTTP status / job state for each: a dead
// journal rejects submits with 507, a panicking worker fails only its
// own job, a wedged job is canceled at its deadline — and the daemon
// survives all of it.
func TestSkewdFaultMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	tmp := t.TempDir()
	bin, model, design := skewdFixture(t, tmp)
	jobReq := func(extra map[string]interface{}) map[string]interface{} {
		m := map[string]interface{}{
			"design": json.RawMessage(design),
			"flow":   "local", "pairs": 100, "iters": 2,
		}
		for k, v := range extra {
			m[k] = v
		}
		return m
	}

	t.Run("journal-write-failure-rejects-507", func(t *testing.T) {
		p := startSkewd(t, bin, "-spool", filepath.Join(tmp, "spool-journal"),
			"-model", model, "-faults", "job-journal-write")
		code, body, _ := submitJob(t, p.url, jobReq(nil))
		if code != http.StatusInsufficientStorage {
			t.Fatalf("submit with dead journal: HTTP %d (want 507), body %v", code, body)
		}
		if body["class"] != "storage" {
			t.Errorf("rejection class %v, want storage", body["class"])
		}
		resp, err := http.Get(p.url + "/healthz")
		if err != nil {
			t.Fatalf("daemon died after journal failure: %v", err)
		}
		resp.Body.Close()
		if ec := p.sigterm(t); ec != 0 {
			t.Errorf("drain after journal failures: exit %d", ec)
		}
	})

	t.Run("worker-panic-and-slow-job", func(t *testing.T) {
		// One single-worker daemon, three sequential jobs: job1 hits
		// worker-panic, job2 hits slow-job (the second slow-job
		// consultation) and is canceled at its 500ms deadline, job3 runs
		// clean — proving both faults stayed contained.
		p := startSkewd(t, bin, "-spool", filepath.Join(tmp, "spool-matrix"),
			"-model", model, "-workers", "1",
			"-faults", "worker-panic:first=1,slow-job:at=2")

		code, m1, _ := submitJob(t, p.url, jobReq(nil))
		if code != http.StatusAccepted {
			t.Fatalf("job1: HTTP %d", code)
		}
		st1 := waitJob(t, p.url, m1["id"], "failed", "done", "canceled")
		if st1["state"] != "failed" || st1["class"] != "panic" {
			t.Fatalf("panicked job ended %v/%v (want failed/panic): %v", st1["state"], st1["class"], st1["error"])
		}
		if rcode, _ := jobResult(t, p.url, m1["id"]); rcode != http.StatusInternalServerError {
			t.Errorf("failed job result: HTTP %d (want 500)", rcode)
		}

		code, m2, _ := submitJob(t, p.url, jobReq(map[string]interface{}{"timeout_ms": 500}))
		if code != http.StatusAccepted {
			t.Fatalf("job2: HTTP %d", code)
		}
		st2 := waitJob(t, p.url, m2["id"], "canceled", "failed", "done")
		if st2["state"] != "canceled" || st2["class"] != "canceled" {
			t.Fatalf("wedged job ended %v/%v (want canceled/canceled): %v", st2["state"], st2["class"], st2["error"])
		}
		if rcode, _ := jobResult(t, p.url, m2["id"]); rcode != http.StatusGatewayTimeout {
			t.Errorf("canceled job result: HTTP %d (want 504)", rcode)
		}

		code, m3, _ := submitJob(t, p.url, jobReq(nil))
		if code != http.StatusAccepted {
			t.Fatalf("job3: HTTP %d", code)
		}
		if st3 := waitJob(t, p.url, m3["id"], "done", "failed", "canceled"); st3["state"] != "done" {
			t.Fatalf("clean job after faults ended %v: %v", st3["state"], st3["error"])
		}
		if ec := p.sigterm(t); ec != 0 {
			t.Errorf("drain: exit %d", ec)
		}
	})
}

// TestSkewdBackpressureAndDrain pins admission control under overload and
// the SIGTERM drain contract: a full queue answers 429 with Retry-After,
// a drain suspends the wedged job and keeps the queued one journaled,
// the daemon exits 0, and a successor finishes everything.
func TestSkewdBackpressureAndDrain(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	tmp := t.TempDir()
	bin, model, design := skewdFixture(t, tmp)
	jobReq := func(extra map[string]interface{}) map[string]interface{} {
		m := map[string]interface{}{
			"design": json.RawMessage(design),
			"flow":   "local", "pairs": 100, "iters": 2,
		}
		for k, v := range extra {
			m[k] = v
		}
		return m
	}

	spool := filepath.Join(tmp, "spool-drain")
	p := startSkewd(t, bin, "-spool", spool, "-model", model,
		"-workers", "1", "-queue", "1", "-drain-timeout", "300ms",
		"-faults", "slow-job:first=1")

	// Job1 wedges on slow-job with a long deadline; job2 fills the queue;
	// job3 must bounce with backpressure.
	code, m1, _ := submitJob(t, p.url, jobReq(map[string]interface{}{"timeout_ms": 60000}))
	if code != http.StatusAccepted {
		t.Fatalf("job1: HTTP %d", code)
	}
	waitJob(t, p.url, m1["id"], "running")
	code, m2, _ := submitJob(t, p.url, jobReq(nil))
	if code != http.StatusAccepted {
		t.Fatalf("job2: HTTP %d", code)
	}
	code, _, hdr := submitJob(t, p.url, jobReq(nil))
	if code != http.StatusTooManyRequests {
		t.Fatalf("job3: HTTP %d (want 429)", code)
	}
	if hdr.Get("Retry-After") == "" {
		t.Error("429 without Retry-After header")
	}

	// SIGTERM: the 300ms budget expires on the wedged job, which is
	// canceled and suspended; everything settles and skewd exits 0.
	if ec := p.sigterm(t); ec != 0 {
		t.Fatalf("drain: exit %d; stderr:\n%s", ec, p.stderr)
	}
	if err := logContains(p.stderr.String(), "draining"); err != nil {
		t.Error(err)
	}

	// The successor inherits the suspended job and the queued job and
	// finishes both (the fault spec is gone with the old process).
	heir := startSkewd(t, bin, "-spool", spool, "-model", model, "-workers", "2")
	for _, id := range []string{m1["id"], m2["id"]} {
		if st := waitJob(t, heir.url, id, "done", "failed", "canceled"); st["state"] != "done" {
			t.Fatalf("inherited job %s ended %v (class %v): %v", id, st["state"], st["class"], st["error"])
		}
		if rcode, b := jobResult(t, heir.url, id); rcode != http.StatusOK || len(b) == 0 {
			t.Errorf("inherited job %s result: HTTP %d (%d bytes)", id, rcode, len(b))
		}
	}
	if ec := heir.sigterm(t); ec != 0 {
		t.Fatalf("successor drain: exit %d", ec)
	}
}

func logContains(log, want string) error {
	if !strings.Contains(log, want) {
		return fmt.Errorf("daemon stderr missing %q:\n%s", want, log)
	}
	return nil
}
