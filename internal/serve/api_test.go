package serve

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"skewvar/internal/edaio/atomicio"
	"skewvar/internal/obs"
	"skewvar/internal/resilience"
)

// parkedInAwait counts goroutines whose stack is inside awaitLocked: the
// callers waiting for an admission's durability verdict.
func parkedInAwait() int {
	buf := make([]byte, 1<<20)
	n := runtime.Stack(buf, true)
	return strings.Count(string(buf[:n]), "serve.(*Server).awaitLocked(")
}

// TestAdmissionWaitParallel drives the one known-id wait that fleet
// Admit (its fast path and admitValidated) and AdoptFinished share:
// while an id's first admission is journaling, every other caller of that
// id parks until the admission settles, then all of them report the one
// durable job — or, when the append failed, all of them fail with an
// ErrCheckpoint and the id is gone.
func TestAdmissionWaitParallel(t *testing.T) {
	const id, admitters = "j000007", 4
	for _, tc := range []struct {
		name   string
		append bool  // journal the submit record before settling
		fail   error // the append verdict settleLocked publishes
	}{
		{name: "durable", append: true},
		{name: "withdrawn", fail: errors.New("injected journal failure")},
	} {
		t.Run(tc.name, func(t *testing.T) {
			th, ch, model, _ := fixtures(t)
			spool := t.TempDir()
			s, err := New(Config{SpoolDir: spool, Tech: th, Char: ch, Model: model,
				Obs: obs.New(), Logf: t.Logf})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Drain()
			spec := jobBody(t, nil)

			// Register id the way admitValidated does before its append.
			j := &job{id: id, raw: spec, req: mustReq(t, spec), state: StateQueued,
				admitted: make(chan struct{})}
			s.mu.Lock()
			s.jobs[id] = j
			s.order = append(s.order, id)
			s.mu.Unlock()

			type result struct {
				st    JobStatus
				err   error
				adopt bool
			}
			results := make(chan result, admitters+1)
			for i := 0; i < admitters; i++ {
				go func() {
					st, err := s.Admit(context.Background(), id, spec)
					results <- result{st: st, err: err}
				}()
			}
			go func() {
				err := s.AdoptFinished(context.Background(), id, spec, JobStatus{ID: id, State: StateDone})
				results <- result{err: err, adopt: true}
			}()

			deadline := time.Now().Add(10 * time.Second)
			for parkedInAwait() < admitters+1 {
				if time.Now().After(deadline) {
					t.Fatalf("only %d of %d callers parked on the pending admission", parkedInAwait(), admitters+1)
				}
				time.Sleep(time.Millisecond)
			}
			select {
			case r := <-results:
				t.Fatalf("a caller returned before the admission settled: %+v", r)
			default:
			}

			if tc.append {
				if err := s.jl.append(context.Background(), record{Kind: recSubmit, Job: id, Spec: spec}); err != nil {
					t.Fatal(err)
				}
			}
			s.mu.Lock()
			s.settleLocked(j, tc.fail)
			s.mu.Unlock()

			for i := 0; i < admitters+1; i++ {
				r := <-results
				switch {
				case tc.fail != nil:
					if !errors.Is(r.err, resilience.ErrCheckpoint) {
						t.Errorf("waiter (adopt=%v) after a withdrawn admission: err = %v, want ErrCheckpoint", r.adopt, r.err)
					}
				case r.err != nil:
					t.Errorf("waiter (adopt=%v) after a durable admission: %v", r.adopt, r.err)
				case !r.adopt && (r.st.ID != id || r.st.State != StateQueued):
					t.Errorf("Admit reported %+v, want %s queued", r.st, id)
				}
			}

			var seen int
			for _, got := range s.JobIDs() {
				if got == id {
					seen++
				}
			}
			lines, _, err := scanJournal(atomicio.OS, spool)
			if err != nil {
				t.Fatal(err)
			}
			submits := 0
			for _, jl := range lines {
				if jl.ok && jl.rec.Kind == recSubmit && jl.rec.Job == id {
					submits++
				}
			}
			want := 1
			if tc.fail != nil {
				want = 0
			}
			if seen != want || submits != want {
				t.Errorf("after settling: %s listed %d times and journaled %d submits, want %d and %d",
					id, seen, submits, want, want)
			}
		})
	}
}

// TestWriteResult pins the job API's result answer, which skewd and
// skewfleet share, over every job state.
func TestWriteResult(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "j000001.out.json")
	design := []byte(`{"name":"result"}`)
	if err := os.WriteFile(out, design, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		st    JobStatus
		path  string
		code  int
		class string // error body class; "" with a 200 means the design bytes
	}{
		{st: JobStatus{ID: "j000001", State: StateDone}, path: out, code: http.StatusOK},
		{st: JobStatus{ID: "j000001", State: StateDone}, path: filepath.Join(dir, "missing.out.json"),
			code: http.StatusInternalServerError, class: "internal"},
		{st: JobStatus{ID: "j000001", State: StateFailed, Class: "solver", Error: "lp"},
			code: http.StatusInternalServerError, class: "solver"},
		{st: JobStatus{ID: "j000001", State: StateCanceled, Class: "canceled", Error: "deadline"},
			code: http.StatusGatewayTimeout, class: "canceled"},
		{st: JobStatus{ID: "j000001", State: StateQueued}, code: http.StatusConflict},
		{st: JobStatus{ID: "j000001", State: StateRunning}, code: http.StatusConflict},
		{st: JobStatus{ID: "j000001", State: StateSuspended}, code: http.StatusConflict},
	} {
		rec := httptest.NewRecorder()
		WriteResult(rec, tc.st, tc.path)
		if rec.Code != tc.code {
			t.Errorf("%s (path %q): HTTP %d, want %d", tc.st.State, tc.path, rec.Code, tc.code)
			continue
		}
		if tc.code == http.StatusOK {
			if got := rec.Body.String(); got != string(design) {
				t.Errorf("done: body %q, want the result file's bytes %q", got, design)
			}
			continue
		}
		var body ErrorBody
		if err := json.NewDecoder(rec.Body).Decode(&body); err != nil {
			t.Errorf("%s: error body: %v", tc.st.State, err)
			continue
		}
		if body.Class != tc.class || body.Error == "" {
			t.Errorf("%s: error body %+v, want class %q and a message", tc.st.State, body, tc.class)
		}
	}
}
