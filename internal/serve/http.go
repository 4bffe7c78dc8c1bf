package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"

	"skewvar/internal/resilience"
)

// errorBody is the JSON shape of every non-2xx response.
type errorBody struct {
	Error string `json:"error"`
	Class string `json:"class,omitempty"`
}

// handler wires the service API (Go 1.22 method+path patterns):
//
//	POST /jobs              submit  → 202 {id} | 400 | 429+Retry-After | 500 | 503 | 507 storage
//	GET  /jobs/{id}         status  → 200 JobStatus | 404
//	GET  /jobs/{id}/result  result  → 200 design | 409 not finished | 404 | 500 | 504
//	GET  /healthz           process liveness (always 200 while serving)
//	GET  /readyz            admission readiness (503 once draining or storage-degraded)
//	GET  /metrics           server counters/gauges (obs.Snapshot JSON)
func (s *Server) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /jobs", s.handleSubmit)
	mux.HandleFunc("GET /jobs/{id}", s.handleStatus)
	mux.HandleFunc("GET /jobs/{id}/result", s.handleResult)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	return mux
}

func writeJSON(w http.ResponseWriter, status int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, class, format string, args ...interface{}) {
	writeJSON(w, status, errorBody{Error: fmt.Sprintf(format, args...), Class: class})
}

// handleSubmit is the admission path. Order matters: the drain gate and
// the queue bound are checked before any expensive validation, and the
// job is journaled before the 202 leaves — a crash after the response
// replays the job, never loses it.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		s.counter("serve.jobs.rejected.draining").Add(1)
		writeError(w, http.StatusServiceUnavailable, "draining", "server is draining")
		return
	}
	// Rate limiting sits before body parsing: a throttled tenant must be
	// turned away at the cheapest possible point. The tenant is the
	// X-Tenant header; absent means the shared anonymous bucket.
	if s.limiter != nil {
		tenant := r.Header.Get("X-Tenant")
		if tenant == "" {
			tenant = "anon"
		}
		if ok, wait := s.limiter.allow(tenant); !ok {
			s.counter("serve.jobs.rejected.ratelimited").Add(1)
			w.Header().Set("Retry-After", fmt.Sprintf("%d", retryAfterSeconds(wait)))
			writeError(w, http.StatusTooManyRequests, "rate-limit",
				"tenant %q exceeded %.3g jobs/s (burst %d)", tenant, s.cfg.RatePerTenant, s.cfg.RateBurst)
			return
		}
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, MaxJobBytes))
	if err != nil {
		s.counter("serve.jobs.rejected.invalid").Add(1)
		writeError(w, http.StatusBadRequest, "invalid-design", "reading request body: %v", err)
		return
	}
	var req JobRequest
	if err := json.Unmarshal(body, &req); err != nil {
		s.counter("serve.jobs.rejected.invalid").Add(1)
		writeError(w, http.StatusBadRequest, "invalid-design", "decoding job request: %v", err)
		return
	}
	if _, err := flowStages(req.Flow); err != nil {
		s.counter("serve.jobs.rejected.invalid").Add(1)
		writeError(w, http.StatusBadRequest, "invalid-design", "%v", err)
		return
	}
	// Full design validation at the door: a job that cannot parse must
	// cost a 400 now, not a worker later.
	if _, _, err := s.parseDesign(req.Design); err != nil {
		s.counter("serve.jobs.rejected.invalid").Add(1)
		writeError(w, http.StatusBadRequest, "invalid-design", "%v", err)
		return
	}

	st, err := s.admitValidated(r.Context(), "", body, req, nil)
	switch {
	case errors.Is(err, ErrBusy):
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusTooManyRequests, "backpressure", "%v", err)
	case errors.Is(err, resilience.ErrStorage):
		// The disk, not the request, is the problem: a journal append that
		// exhausted its retries (ENOSPC, EIO) or a poisoned journal. 507
		// tells the client — and the fleet dispatcher — to go elsewhere;
		// the job was never acknowledged and never runs here.
		writeError(w, http.StatusInsufficientStorage, "storage", "%v", err)
	case err != nil:
		writeError(w, http.StatusInternalServerError, "checkpoint", "%v", err)
	default:
		writeJSON(w, http.StatusAccepted, map[string]string{"id": st.ID, "state": st.State})
	}
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	st, ok := s.Status(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "", "no such job %q", r.PathValue("id"))
		return
	}
	writeJSON(w, http.StatusOK, st)
}

// handleResult streams the optimized design of a finished job, or maps
// the job's state onto the documented status code: 409 while the job is
// still in flight (or suspended awaiting restart), 500 for failures,
// 504 for deadline-canceled jobs.
func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	st, ok := s.Status(id)
	if !ok {
		writeError(w, http.StatusNotFound, "", "no such job %q", id)
		return
	}
	switch st.State {
	case StateDone:
		f, err := os.Open(s.jobPath(id, "out.json"))
		if err != nil {
			writeError(w, http.StatusInternalServerError, "internal",
				"result missing for done job %s: %v", id, err)
			return
		}
		defer f.Close()
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusOK)
		io.Copy(w, f)
	case StateFailed:
		writeError(w, http.StatusInternalServerError, st.Class, "job failed: %s", st.Error)
	case StateCanceled:
		writeError(w, http.StatusGatewayTimeout, st.Class, "job exceeded its deadline: %s", st.Error)
	default: // queued, running, suspended
		writeError(w, http.StatusConflict, "", "job %s is %s", id, st.State)
	}
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]bool{"ok": true})
}

func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	if !s.jl.healthy() {
		writeError(w, http.StatusServiceUnavailable, "storage", "journal cannot acknowledge writes")
		return
	}
	if !s.Ready() {
		writeError(w, http.StatusServiceUnavailable, "draining", "server is draining")
		return
	}
	writeJSON(w, http.StatusOK, map[string]bool{"ready": true})
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.cfg.Obs.Snapshot())
}
