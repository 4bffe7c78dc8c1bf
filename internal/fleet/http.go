package fleet

import (
	"context"
	"errors"
	"io"
	"net"
	"net/http"

	"skewvar/internal/resilience"
	"skewvar/internal/serve"
)

// Handler wires the fleet API. It is skewd's API plus fleet-level
// introspection and chaos-admin endpoints:
//
//	POST /jobs                    submit   → 202 {id, state, replica} | 400 | 503
//	GET  /jobs/{id}               status   → 200 JobStatus+replica | 404
//	GET  /jobs/{id}/result        result   → 200 design | 409 | 404 | 500 | 504
//	GET  /replicas                per-replica health/quarantine/load
//	GET  /metrics                 fleet-merged obs.Snapshot
//	GET  /healthz                 coordinator liveness
//	GET  /readyz                  503 when draining or no replica alive
//	POST /admin/crash/{replica}   crash-stop a replica (chaos)
//	POST /admin/restart/{replica} restart a crashed/dead replica
func (c *Cluster) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /jobs", c.handleSubmit)
	mux.HandleFunc("GET /jobs/{id}", c.handleStatus)
	mux.HandleFunc("GET /jobs/{id}/result", c.handleResult)
	mux.HandleFunc("GET /replicas", c.handleReplicas)
	mux.HandleFunc("GET /metrics", c.handleMetrics)
	mux.HandleFunc("GET /healthz", c.handleHealthz)
	mux.HandleFunc("GET /readyz", c.handleReadyz)
	mux.HandleFunc("POST /admin/crash/{replica}", c.handleCrash)
	mux.HandleFunc("POST /admin/restart/{replica}", c.handleRestart)
	return mux
}

func (c *Cluster) handleSubmit(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, serve.MaxJobBytes))
	if err != nil {
		serve.WriteError(w, http.StatusBadRequest, "invalid-design", "reading request body: %v", err)
		return
	}
	st, replicaName, err := c.Submit(r.Context(), body)
	switch {
	case err == nil:
		serve.WriteJSON(w, http.StatusAccepted, map[string]string{
			"id": st.ID, "state": st.State, "replica": replicaName})
	case errors.Is(err, resilience.ErrInvalidDesign):
		serve.WriteError(w, http.StatusBadRequest, "invalid-design", "%v", err)
	case errors.Is(err, ErrAmbiguous):
		// The job may be durable on the (now suspect) replica; the steal
		// pipeline resolves it. 503 tells the client the dispatch did not
		// complete; Retry-After invites a fresh submission if it cares.
		w.Header().Set("Retry-After", "1")
		serve.WriteError(w, http.StatusServiceUnavailable, "ambiguous", "%v", err)
	default:
		w.Header().Set("Retry-After", "1")
		serve.WriteError(w, http.StatusServiceUnavailable, "unavailable", "%v", err)
	}
}

type fleetStatus struct {
	serve.JobStatus
	Replica string `json:"replica"`
}

func (c *Cluster) handleStatus(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	st, replicaName, ok := c.Status(r.Context(), id)
	if !ok {
		serve.WriteError(w, http.StatusNotFound, "", "no such job %q", id)
		return
	}
	serve.WriteJSON(w, http.StatusOK, fleetStatus{JobStatus: st, Replica: replicaName})
}

// handleResult answers as skewd's result endpoint does, streaming the
// artifact from whichever spool currently owns the job.
func (c *Cluster) handleResult(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	st, _, ok := c.Status(r.Context(), id)
	path, owned := c.ResultPath(id)
	if !ok || !owned {
		serve.WriteError(w, http.StatusNotFound, "", "no such job %q", id)
		return
	}
	serve.WriteResult(w, st, path)
}

func (c *Cluster) handleReplicas(w http.ResponseWriter, _ *http.Request) {
	serve.WriteJSON(w, http.StatusOK, c.Replicas())
}

func (c *Cluster) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	serve.WriteJSON(w, http.StatusOK, c.Metrics())
}

func (c *Cluster) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	serve.WriteJSON(w, http.StatusOK, map[string]bool{"ok": true})
}

func (c *Cluster) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	if !c.Ready() {
		serve.WriteError(w, http.StatusServiceUnavailable, "unavailable", "fleet not ready")
		return
	}
	serve.WriteJSON(w, http.StatusOK, map[string]bool{"ready": true})
}

func (c *Cluster) handleCrash(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("replica")
	if err := c.CrashReplica(name); err != nil {
		serve.WriteError(w, http.StatusNotFound, "", "%v", err)
		return
	}
	serve.WriteJSON(w, http.StatusOK, map[string]string{"replica": name, "state": "crashed"})
}

func (c *Cluster) handleRestart(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("replica")
	if err := c.RestartReplica(name); err != nil {
		code := http.StatusConflict // wrong state: retryable once it settles
		if errors.Is(err, ErrNoSuchReplica) {
			code = http.StatusNotFound
		}
		serve.WriteError(w, code, "", "%v", err)
		return
	}
	serve.WriteJSON(w, http.StatusOK, map[string]string{"replica": name, "state": "alive"})
}

// StartHTTP serves the fleet API on the listener; the serve goroutine's
// exit error is delivered on AcceptErr after Shutdown.
func (c *Cluster) StartHTTP(ln net.Listener) {
	c.startAccept(ln)
}

// startAccept is the HTTP sibling of startMonitor — the second of the
// two sanctioned goroutine launch sites in this package.
func (c *Cluster) startAccept(ln net.Listener) {
	c.httpSrv = &http.Server{Handler: c.Handler()}
	c.acceptErr = make(chan error, 1)
	srv, ch := c.httpSrv, c.acceptErr
	go func() {
		ch <- srv.Serve(ln)
	}()
}

// AcceptErr reports the HTTP serve loop's exit error
// (http.ErrServerClosed after a clean Shutdown), or nil if HTTP was
// never started.
func (c *Cluster) AcceptErr() <-chan error {
	return c.acceptErr
}

// ShutdownHTTP stops the listener, letting in-flight requests finish
// within the drain budget.
func (c *Cluster) ShutdownHTTP() {
	if c.httpSrv == nil {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), c.cfg.DrainTimeout)
	defer cancel()
	c.httpSrv.Shutdown(ctx)
}
