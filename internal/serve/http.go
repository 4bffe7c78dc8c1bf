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

// ErrorBody is the JSON shape of every non-2xx response of the job API,
// skewd's and skewfleet's alike.
type ErrorBody struct {
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

// WriteJSON answers with status and v encoded as the JSON body.
func WriteJSON(w http.ResponseWriter, status int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

// WriteError answers with status and an ErrorBody of the given taxonomy
// class and formatted message.
func WriteError(w http.ResponseWriter, status int, class, format string, args ...interface{}) {
	WriteJSON(w, status, ErrorBody{Error: fmt.Sprintf(format, args...), Class: class})
}

// WriteResult answers GET /jobs/{id}/result for a job in status st whose
// result design is the file at path: 200 with the design once done (500
// if that file is missing), 500 with the failure's class for a failed
// job, 504 for a deadline-canceled one, and 409 while the job is queued,
// running or suspended awaiting a restart.
func WriteResult(w http.ResponseWriter, st JobStatus, path string) {
	switch st.State {
	case StateDone:
		f, err := os.Open(path)
		if err != nil {
			WriteError(w, http.StatusInternalServerError, "internal",
				"result missing for done job %s: %v", st.ID, err)
			return
		}
		defer f.Close()
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusOK)
		io.Copy(w, f)
	case StateFailed:
		WriteError(w, http.StatusInternalServerError, st.Class, "job failed: %s", st.Error)
	case StateCanceled:
		WriteError(w, http.StatusGatewayTimeout, st.Class, "job exceeded its deadline: %s", st.Error)
	default: // queued, running, suspended
		WriteError(w, http.StatusConflict, "", "job %s is %s", st.ID, st.State)
	}
}

// handleSubmit is the admission path. Order matters: the drain gate and
// the rate limit are checked before any expensive validation, and the
// job is journaled before the 202 leaves — a crash after the response
// replays the job, never loses it. Unlike Admit it does not refuse a
// poisoned journal up front: the append it attempts is how a standalone
// skewd finds out that its disk has room again (a landed append clears
// the poison).
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		s.counter("serve.jobs.rejected.draining").Add(1)
		WriteError(w, http.StatusServiceUnavailable, "draining", "server is draining")
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
			WriteError(w, http.StatusTooManyRequests, "rate-limit",
				"tenant %q exceeded %.3g jobs/s (burst %d)", tenant, s.cfg.RatePerTenant, s.cfg.RateBurst)
			return
		}
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, MaxJobBytes))
	if err != nil {
		s.counter("serve.jobs.rejected.invalid").Add(1)
		WriteError(w, http.StatusBadRequest, "invalid-design", "reading request body: %v", err)
		return
	}
	req, err := s.validate(body)
	if err != nil {
		s.counter("serve.jobs.rejected.invalid").Add(1)
		WriteError(w, http.StatusBadRequest, "invalid-design", "%v", err)
		return
	}

	st, err := s.admitValidated(r.Context(), "", body, req, nil)
	switch {
	case errors.Is(err, ErrBusy):
		w.Header().Set("Retry-After", "1")
		WriteError(w, http.StatusTooManyRequests, "backpressure", "%v", err)
	case errors.Is(err, resilience.ErrStorage):
		// The disk, not the request, is the problem: a journal append that
		// exhausted its retries (ENOSPC, EIO) or a poisoned journal. 507
		// tells the client — and the fleet dispatcher — to go elsewhere;
		// the job was never acknowledged and never runs here.
		WriteError(w, http.StatusInsufficientStorage, "storage", "%v", err)
	case err != nil:
		WriteError(w, http.StatusInternalServerError, "checkpoint", "%v", err)
	default:
		WriteJSON(w, http.StatusAccepted, map[string]string{"id": st.ID, "state": st.State})
	}
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	st, ok := s.Status(r.PathValue("id"))
	if !ok {
		WriteError(w, http.StatusNotFound, "", "no such job %q", r.PathValue("id"))
		return
	}
	WriteJSON(w, http.StatusOK, st)
}

// handleResult streams the optimized design of a finished job, or maps
// the job's state onto the documented status code (WriteResult).
func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	st, ok := s.Status(id)
	if !ok {
		WriteError(w, http.StatusNotFound, "", "no such job %q", id)
		return
	}
	WriteResult(w, st, s.jobPath(id, "out.json"))
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	WriteJSON(w, http.StatusOK, map[string]bool{"ok": true})
}

func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	if !s.jl.healthy() {
		WriteError(w, http.StatusServiceUnavailable, "storage", "journal cannot acknowledge writes")
		return
	}
	if !s.Ready() {
		WriteError(w, http.StatusServiceUnavailable, "draining", "server is draining")
		return
	}
	WriteJSON(w, http.StatusOK, map[string]bool{"ready": true})
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	WriteJSON(w, http.StatusOK, s.cfg.Obs.Snapshot())
}
