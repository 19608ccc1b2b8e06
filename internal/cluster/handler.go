package cluster

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"

	"webslice/internal/metrics"
	"webslice/internal/obs"
	"webslice/internal/service"
)

// NewHandler returns the coordinator's HTTP API. It is a superset of the
// single-node websliced API with the same shapes, so the webslice client
// talks to a coordinator exactly as it talks to a worker:
//
//	POST   /jobs             submit a site/seed job (JSON Spec) -> 202 {id}
//	POST   /jobs/trace       submit a binary trace              -> 202 {id}
//	POST   /batch            scatter a JSON array of Specs      -> 202 {ids}
//	GET    /jobs             list routed jobs                   -> 200 [Info]
//	GET    /jobs/{id}        proxied status (owner hint)        -> 200 Info
//	GET    /jobs/{id}/result proxied result                     -> 200 Result
//	DELETE /jobs/{id}        cancel wherever it runs            -> 200
//	GET    /cluster          topology: members, ring, self      -> 200
//	GET    /healthz          coordinator liveness               -> 200
//	GET    /metrics          Prometheus text exposition         -> 200
//
// Peer backpressure propagates: a 429 (with Retry-After) from a job's
// owner is returned as a 429 here.
func NewHandler(c *Coordinator) http.Handler {
	mux := http.NewServeMux()

	mux.HandleFunc("POST /jobs", func(w http.ResponseWriter, r *http.Request) {
		var spec service.Spec
		if err := json.NewDecoder(io.LimitReader(r.Body, 1<<20)).Decode(&spec); err != nil {
			httpError(w, http.StatusBadRequest, fmt.Errorf("bad job spec: %w", err))
			return
		}
		spec.TraceCtx, _ = obs.Extract(r.Header)
		submitRouted(c, w, spec)
	})

	mux.HandleFunc("POST /jobs/trace", func(w http.ResponseWriter, r *http.Request) {
		body, err := service.ReadTraceBody(w, r)
		if err != nil {
			httpError(w, http.StatusBadRequest, err)
			return
		}
		spec := service.Spec{
			Trace:    body,
			Criteria: r.URL.Query().Get("criteria"),
			Verify:   r.URL.Query().Get("verify") == "1" || r.URL.Query().Get("verify") == "true",
		}
		spec.TraceCtx, _ = obs.Extract(r.Header)
		submitRouted(c, w, spec)
	})

	mux.HandleFunc("POST /batch", func(w http.ResponseWriter, r *http.Request) {
		var specs []service.Spec
		if err := json.NewDecoder(io.LimitReader(r.Body, 8<<20)).Decode(&specs); err != nil {
			httpError(w, http.StatusBadRequest, fmt.Errorf("bad batch: %w", err))
			return
		}
		if len(specs) == 0 {
			httpError(w, http.StatusBadRequest, errors.New("empty batch"))
			return
		}
		ids, err := c.Scatter(specs)
		if err != nil {
			writeSubmitError(w, err)
			return
		}
		writeJSON(w, http.StatusAccepted, map[string][]string{"ids": ids})
	})

	mux.HandleFunc("GET /jobs", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, c.Jobs())
	})

	mux.HandleFunc("GET /jobs/quarantined", func(w http.ResponseWriter, r *http.Request) {
		// Quarantine is node-local state; the coordinator reports its own
		// manager's list (each worker serves its own at this route).
		writeJSON(w, http.StatusOK, c.Local().Quarantined())
	})

	mux.HandleFunc("GET /jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		info, err := c.Status(r.PathValue("id"))
		if err != nil {
			httpError(w, http.StatusNotFound, fmt.Errorf("no job %q", r.PathValue("id")))
			return
		}
		writeJSON(w, http.StatusOK, info)
	})

	mux.HandleFunc("GET /jobs/{id}/result", func(w http.ResponseWriter, r *http.Request) {
		id := r.PathValue("id")
		res, done, err := c.Result(id)
		if err != nil {
			httpError(w, http.StatusNotFound, fmt.Errorf("no job %q", id))
			return
		}
		if !done {
			info, _ := c.Status(id)
			httpError(w, http.StatusConflict, fmt.Errorf("job %s is %s, not done", id, info.Status))
			return
		}
		writeJSON(w, http.StatusOK, res)
	})

	mux.HandleFunc("GET /jobs/{id}/trace", func(w http.ResponseWriter, r *http.Request) {
		id := r.PathValue("id")
		spans, err := c.JobTrace(id)
		if err != nil {
			httpError(w, http.StatusNotFound, fmt.Errorf("no trace for job %q: %w", id, err))
			return
		}
		writeJSON(w, http.StatusOK, spans)
	})

	mux.HandleFunc("GET /debug/spans", func(w http.ResponseWriter, r *http.Request) {
		if c.tracer == nil {
			httpError(w, http.StatusNotFound, ErrTracingDisabled)
			return
		}
		w.Header().Set("Content-Type", "application/x-ndjson")
		obs.WriteJSONL(w, c.tracer.Snapshot())
	})

	mux.HandleFunc("DELETE /jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		id := r.PathValue("id")
		if !c.Cancel(id) {
			httpError(w, http.StatusConflict, fmt.Errorf("job %q unknown or already finished", id))
			return
		}
		writeJSON(w, http.StatusOK, map[string]string{"id": id, "status": "canceling"})
	})

	mux.HandleFunc("GET /cluster", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]any{
			"self":      c.cfg.Self,
			"ring_size": c.Ring().Len(),
			"ring":      c.Ring().Nodes(),
			"members":   c.Members(),
		})
	})

	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		if c.Local().Draining() {
			writeJSON(w, http.StatusServiceUnavailable, map[string]any{"status": "draining", "role": "coordinator"})
			return
		}
		writeJSON(w, http.StatusOK, map[string]any{"status": "ok", "role": "coordinator", "ring_size": c.Ring().Len()})
	})

	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", metrics.ContentType)
		c.Metrics().WriteText(w)
	})

	return mux
}

// submitRouted routes one spec and writes the 202/error response.
func submitRouted(c *Coordinator, w http.ResponseWriter, spec service.Spec) {
	id, err := c.Submit(spec)
	if err != nil {
		writeSubmitError(w, err)
		return
	}
	writeJSON(w, http.StatusAccepted, map[string]string{"id": id})
}

// writeSubmitError maps routing errors onto the single-node handler's
// status-code contract, propagating a peer's own code (and Retry-After)
// when the owner answered with an application error.
func writeSubmitError(w http.ResponseWriter, err error) {
	var se *statusError
	if errors.As(err, &se) {
		if se.RetryAfter() != "" {
			w.Header().Set("Retry-After", se.RetryAfter())
		}
		httpError(w, se.Code(), err)
		return
	}
	switch {
	case errors.Is(err, service.ErrQueueFull):
		w.Header().Set("Retry-After", "1")
		httpError(w, http.StatusTooManyRequests, err)
	case errors.Is(err, service.ErrClosed):
		httpError(w, http.StatusServiceUnavailable, err)
	case errors.Is(err, service.ErrTraceTooLarge):
		httpError(w, http.StatusRequestEntityTooLarge, err)
	default:
		httpError(w, http.StatusBadRequest, err)
	}
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

func httpError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, map[string]string{"error": err.Error()})
}
