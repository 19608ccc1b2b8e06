package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"

	"webslice/internal/metrics"
	"webslice/internal/obs"
)

// maxTraceBody bounds an uploaded binary trace (256 MB).
const maxTraceBody = 256 << 20

// bodyPrealloc is the most ReadTraceBody allocates before any byte
// arrives: a Content-Length is only a claim, so past this the buffer
// grows with the bytes actually received.
const bodyPrealloc = 1 << 20

// ReadTraceBody reads the body of a trace upload, at most maxTraceBody
// bytes, for both the single-node and the coordinator's POST /jobs/trace.
// A body that declares its Content-Length is read into one buffer of
// exactly that size when it is at most bodyPrealloc; a larger or
// undeclared body starts smaller and doubles as bytes arrive, never past
// the declared size. A body that is empty, longer than maxTraceBody, or
// not the length it declared is an error.
func ReadTraceBody(w http.ResponseWriter, r *http.Request) ([]byte, error) {
	declared := r.ContentLength // -1 when unknown (a chunked body)
	if declared > maxTraceBody {
		return nil, fmt.Errorf("reading trace body: %w", &http.MaxBytesError{Limit: maxTraceBody})
	}
	body := http.MaxBytesReader(w, r.Body, maxTraceBody)
	size := int64(bytes.MinRead)
	if declared > 0 {
		size = min(declared, bodyPrealloc)
	}
	buf := make([]byte, 0, size)
	for {
		if len(buf) == cap(buf) {
			if int64(len(buf)) == declared {
				// Full at the declared size: the body must end here.
				var probe [1]byte
				if _, err := io.ReadFull(body, probe[:]); err != io.EOF {
					if err == nil {
						err = errors.New("body longer than its Content-Length")
					}
					return nil, fmt.Errorf("reading trace body: %w", err)
				}
				break
			}
			grow := int64(cap(buf))
			if declared > 0 {
				grow = min(grow, declared-int64(len(buf)))
			}
			grown := make([]byte, len(buf), int64(len(buf))+grow)
			copy(grown, buf)
			buf = grown
		}
		n, err := body.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("reading trace body: %w", err)
		}
	}
	if declared > 0 && int64(len(buf)) != declared {
		return nil, fmt.Errorf("reading trace body: %d bytes, Content-Length declared %d", len(buf), declared)
	}
	if len(buf) == 0 {
		return nil, errors.New("empty trace body")
	}
	return buf, nil
}

// NewHandler returns the websliced HTTP API over a manager:
//
//	POST   /jobs            submit a site job (JSON Spec)     -> 202 {id}
//	POST   /jobs/trace      submit a binary trace
//	                        (?criteria, ?verify=1)            -> 202 {id}
//	GET    /jobs            list jobs                         -> 200 [Info]
//	GET    /jobs/quarantined poisoned jobs (2x panicked)      -> 200 [Info]
//	GET    /jobs/{id}        job status                       -> 200 Info
//	GET    /jobs/{id}/result finished job result              -> 200 Result
//	DELETE /jobs/{id}        cancel                           -> 200
//	GET    /jobs/{id}/trace  recorded spans of the job's trace -> 200 [SpanData]
//	GET    /healthz         liveness (503 while draining)     -> 200
//	GET    /metrics         text exposition of the registry   -> 200
//	GET    /debug/spans     every span in the tracer's ring (JSONL)
//
// Backpressure surfaces as HTTP 429 (queue full) and shutdown as 503.
// Submissions carrying a W3C traceparent header join the caller's trace:
// the job's spans parent under the propagated context instead of starting
// a fresh trace (this is how a coordinator-routed job yields one
// causally-linked trace across nodes).
func NewHandler(m *Manager) http.Handler {
	mux := http.NewServeMux()

	mux.HandleFunc("POST /jobs", func(w http.ResponseWriter, r *http.Request) {
		var spec Spec
		if err := json.NewDecoder(io.LimitReader(r.Body, 1<<20)).Decode(&spec); err != nil {
			httpError(w, http.StatusBadRequest, fmt.Errorf("bad job spec: %w", err))
			return
		}
		spec.TraceCtx, _ = obs.Extract(r.Header)
		submit(m, w, spec)
	})

	mux.HandleFunc("POST /jobs/trace", func(w http.ResponseWriter, r *http.Request) {
		body, err := ReadTraceBody(w, r)
		if err != nil {
			httpError(w, http.StatusBadRequest, err)
			return
		}
		spec := Spec{
			Trace:    body,
			Criteria: r.URL.Query().Get("criteria"),
			Verify:   r.URL.Query().Get("verify") == "1" || r.URL.Query().Get("verify") == "true",
			Origin:   r.URL.Query().Get("origin"),
		}
		spec.TraceCtx, _ = obs.Extract(r.Header)
		submit(m, w, spec)
	})

	mux.HandleFunc("GET /jobs/{id}/trace", func(w http.ResponseWriter, r *http.Request) {
		id := r.PathValue("id")
		spans, ok := m.JobTrace(id)
		if !ok {
			httpError(w, http.StatusNotFound, fmt.Errorf("no trace for job %q (unknown job, or tracing disabled)", id))
			return
		}
		writeJSON(w, http.StatusOK, spans)
	})

	mux.HandleFunc("GET /debug/spans", func(w http.ResponseWriter, r *http.Request) {
		t := m.Tracer()
		if t == nil {
			httpError(w, http.StatusNotFound, errors.New("tracing disabled (websliced -trace-spans 0)"))
			return
		}
		w.Header().Set("Content-Type", "application/x-ndjson")
		obs.WriteJSONL(w, t.Snapshot())
	})

	mux.HandleFunc("GET /jobs", func(w http.ResponseWriter, r *http.Request) {
		jobs := m.Jobs()
		sort.Slice(jobs, func(i, j int) bool { return jobs[i].ID < jobs[j].ID })
		writeJSON(w, http.StatusOK, jobs)
	})

	mux.HandleFunc("GET /jobs/quarantined", func(w http.ResponseWriter, r *http.Request) {
		// The poisoned-job list: jobs pulled from rotation after panicking
		// twice. The literal route wins over GET /jobs/{id} by specificity.
		writeJSON(w, http.StatusOK, m.Quarantined())
	})

	mux.HandleFunc("GET /jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		info, ok := m.Info(r.PathValue("id"))
		if !ok {
			httpError(w, http.StatusNotFound, fmt.Errorf("no job %q", r.PathValue("id")))
			return
		}
		writeJSON(w, http.StatusOK, info)
	})

	mux.HandleFunc("GET /jobs/{id}/result", func(w http.ResponseWriter, r *http.Request) {
		id := r.PathValue("id")
		info, ok := m.Info(id)
		if !ok {
			httpError(w, http.StatusNotFound, fmt.Errorf("no job %q", id))
			return
		}
		res, ok := m.Result(id)
		if !ok {
			httpError(w, http.StatusConflict, fmt.Errorf("job %s is %s, not done", id, info.Status))
			return
		}
		writeJSON(w, http.StatusOK, res)
	})

	mux.HandleFunc("DELETE /jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		id := r.PathValue("id")
		if !m.Cancel(id) {
			httpError(w, http.StatusConflict, fmt.Errorf("job %q unknown or already finished", id))
			return
		}
		writeJSON(w, http.StatusOK, map[string]string{"id": id, "status": "canceling"})
	})

	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		// During drain the instance still answers (running jobs finish) but
		// reports unhealthy so load balancers stop routing new work to it.
		if m.Draining() {
			writeJSON(w, http.StatusServiceUnavailable, map[string]any{"status": "draining", "workers": m.Workers()})
			return
		}
		writeJSON(w, http.StatusOK, map[string]any{"status": "ok", "workers": m.Workers()})
	})

	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", metrics.ContentType)
		m.Metrics().WriteText(w)
	})

	return mux
}

func submit(m *Manager, w http.ResponseWriter, spec Spec) {
	id, err := m.Submit(spec)
	switch {
	case errors.Is(err, ErrQueueFull):
		w.Header().Set("Retry-After", "1")
		httpError(w, http.StatusTooManyRequests, err)
	case errors.Is(err, ErrClosed):
		httpError(w, http.StatusServiceUnavailable, err)
	case errors.Is(err, ErrTraceTooLarge):
		httpError(w, http.StatusRequestEntityTooLarge, err)
	case err != nil:
		httpError(w, http.StatusBadRequest, err)
	default:
		writeJSON(w, http.StatusAccepted, map[string]string{"id": id})
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
