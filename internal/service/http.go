package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"runtime/debug"

	"webslice/internal/metrics"
	"webslice/internal/obs"
)

// maxTraceBody bounds an uploaded binary trace (256 MB).
const maxTraceBody = 256 << 20

// bodyPrealloc is the most readTraceBody allocates before any byte
// arrives: a Content-Length is only a claim, so past this the buffer
// grows with the bytes actually received.
const bodyPrealloc = 1 << 20

// readTraceBody reads the body of a POST /jobs/trace upload, at most
// maxTraceBody bytes. A body that declares its Content-Length is read into
// one buffer of exactly that size when it is at most bodyPrealloc; a
// larger or undeclared body starts smaller and doubles as bytes arrive,
// never past the declared size. A body that is empty, longer than
// maxTraceBody (an *http.MaxBytesError), or not the length it declared is
// an error.
func readTraceBody(w http.ResponseWriter, r *http.Request) ([]byte, error) {
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

// Backend is what NewHandler serves: a worker's *Manager, or a cluster
// coordinator that routes the same calls to its workers' handlers.
type Backend interface {
	Submit(Spec) (string, error)
	Info(id string) (Info, bool)
	// Result returns a finished job's result; ok is false while the job
	// is unknown or not done.
	Result(id string) (*Result, bool)
	Cancel(id string) bool
	Quarantined() []Info
	// JobTrace returns the spans of a job's trace; ok is false for an
	// unknown job or with tracing off.
	JobTrace(id string) ([]obs.SpanData, bool)
	// Tracer is nil with tracing off.
	Tracer() *obs.Tracer
	Draining() bool
	Metrics() *metrics.Registry
	// Health returns the role's own /healthz fields, beside "status".
	Health() map[string]any
}

// Health returns a worker's /healthz fields: its worker count.
func (m *Manager) Health() map[string]any { return map[string]any{"workers": m.Workers()} }

// NewHandler returns the websliced HTTP API over b. A worker serves it
// over its manager; a coordinator serves it over its router and adds
// GET /cluster (cluster.NewHandler):
//
//	POST   /jobs             submit a site or seed job (JSON Spec) -> 202 {id}
//	POST   /jobs/trace       submit a binary trace
//	                         (?criteria, ?verify=1, ?origin)       -> 202 {id}
//	GET    /jobs/quarantined poisoned jobs (2x panicked)           -> 200 [Info]
//	GET    /jobs/{id}        job status                            -> 200 Info
//	GET    /jobs/{id}/result finished job result                   -> 200 Result
//	DELETE /jobs/{id}        cancel                                -> 200
//	GET    /jobs/{id}/trace  recorded spans of the job's trace     -> 200 [SpanData]
//	GET    /healthz          liveness (503 while draining)         -> 200
//	GET    /metrics          text exposition of the registry       -> 200
//	GET    /debug/spans      every span in the tracer's ring (JSONL)
//
// Every error is a JSON {"error"} body (WriteError). Backpressure surfaces
// as 429 with Retry-After, shutdown as 503, and an upload over the body
// cap or the admission limit as 413. A request no route matches gets a
// 404, or a 405 with Allow when the path has routes for other methods, and
// one whose path is not clean, or names a subtree route without its
// trailing slash, a 301 with Location, its body JSON too. A
// route that panics answers 500 and counts in http_panics, so a
// coordinator reads a worker's panic as a refusal, not as a dead peer.
// Submissions carrying a W3C traceparent header join the caller's trace:
// the job's spans parent under the propagated context instead of starting
// a fresh trace (this is how a coordinator-routed job yields one
// causally-linked trace across nodes).
func NewHandler(b Backend) *Handler {
	h := &Handler{mux: http.NewServeMux(), panics: b.Metrics().Counter("http_panics")}

	h.HandleFunc("POST /jobs", func(w http.ResponseWriter, r *http.Request) {
		var spec Spec
		if err := json.NewDecoder(io.LimitReader(r.Body, 1<<20)).Decode(&spec); err != nil {
			WriteError(w, fmt.Errorf("bad job spec: %w", err))
			return
		}
		submit(b, w, r, spec)
	})

	h.HandleFunc("POST /jobs/trace", func(w http.ResponseWriter, r *http.Request) {
		body, err := readTraceBody(w, r)
		if err != nil {
			WriteError(w, err)
			return
		}
		q := r.URL.Query()
		submit(b, w, r, Spec{
			Trace:    body,
			Criteria: q.Get("criteria"),
			Verify:   q.Get("verify") == "1" || q.Get("verify") == "true",
			Origin:   q.Get("origin"),
		})
	})

	h.HandleFunc("GET /jobs/{id}/trace", func(w http.ResponseWriter, r *http.Request) {
		id := r.PathValue("id")
		spans, ok := b.JobTrace(id)
		if !ok {
			fail(w, http.StatusNotFound, "no trace for job %q (unknown job, or tracing disabled)", id)
			return
		}
		WriteJSON(w, http.StatusOK, spans)
	})

	h.HandleFunc("GET /debug/spans", func(w http.ResponseWriter, r *http.Request) {
		t := b.Tracer()
		if t == nil {
			fail(w, http.StatusNotFound, "tracing disabled (websliced -trace-spans 0)")
			return
		}
		w.Header().Set("Content-Type", "application/x-ndjson")
		obs.WriteJSONL(w, t.Snapshot())
	})

	h.HandleFunc("GET /jobs/quarantined", func(w http.ResponseWriter, r *http.Request) {
		// The poisoned-job list: jobs pulled from rotation after panicking
		// twice. The literal route wins over GET /jobs/{id} by specificity.
		WriteJSON(w, http.StatusOK, b.Quarantined())
	})

	h.HandleFunc("GET /jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		info, ok := b.Info(r.PathValue("id"))
		if !ok {
			fail(w, http.StatusNotFound, "no job %q", r.PathValue("id"))
			return
		}
		WriteJSON(w, http.StatusOK, info)
	})

	h.HandleFunc("GET /jobs/{id}/result", func(w http.ResponseWriter, r *http.Request) {
		// The result first: a done job costs a coordinator one fetch from
		// its worker, and the status only explains a miss.
		id := r.PathValue("id")
		if res, ok := b.Result(id); ok {
			WriteJSON(w, http.StatusOK, res)
			return
		}
		info, ok := b.Info(id)
		if !ok {
			fail(w, http.StatusNotFound, "no job %q", id)
			return
		}
		fail(w, http.StatusConflict, "job %s is %s, not done", id, info.Status)
	})

	h.HandleFunc("DELETE /jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		id := r.PathValue("id")
		if !b.Cancel(id) {
			fail(w, http.StatusConflict, "job %q unknown or already finished", id)
			return
		}
		WriteJSON(w, http.StatusOK, map[string]string{"id": id, "status": "canceling"})
	})

	h.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		// During drain the instance still answers (running jobs finish) but
		// reports unhealthy so load balancers stop routing new work to it.
		body, code := b.Health(), http.StatusOK
		body["status"] = "ok"
		if b.Draining() {
			body["status"], code = "draining", http.StatusServiceUnavailable
		}
		WriteJSON(w, code, body)
	})

	h.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", metrics.ContentType)
		b.Metrics().WriteText(w)
	})

	return h
}

// Handler serves the websliced HTTP API. It answers every error as JSON:
// a route's own, ServeMux's 404 or 405 for a request no route matches and
// its 301 for a path that is not clean or lacks a subtree's slash, and a
// 500 for a route that panics.
type Handler struct {
	mux    *http.ServeMux
	panics *metrics.Counter
}

// HandleFunc adds a route, in http.ServeMux's pattern syntax.
func (h *Handler) HandleFunc(pattern string, f func(http.ResponseWriter, *http.Request)) {
	h.mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		a := w.(*muxAnswer)
		a.routed = true
		f(a.ResponseWriter, r)
	})
}

func (h *Handler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	defer func() {
		if v := recover(); v != nil {
			h.panics.Inc()
			log.Printf("service: panic serving %s %s: %v\n%s", r.Method, r.URL.Path, v, debug.Stack())
			fail(w, http.StatusInternalServerError, "internal error serving %s %s: %v", r.Method, r.URL.Path, v)
		}
	}()
	// An answer ServeMux makes itself (a 404 or a 405 with Allow for a
	// request no route matches, a 301 with Location to a path's clean or
	// slash-ended form) keeps its code and headers and gets a JSON body.
	a := &muxAnswer{ResponseWriter: w}
	h.mux.ServeHTTP(a, r)
	if !a.routed {
		fail(w, a.code, "%s %s: %s", r.Method, r.URL.Path, http.StatusText(a.code))
	}
}

// muxAnswer stands between ServeMux and the client. A route marks it
// routed and answers through the wrapped writer. Of an answer ServeMux
// makes itself it keeps the status; the headers go to the wrapped writer,
// and the body nowhere.
type muxAnswer struct {
	http.ResponseWriter
	routed bool
	code   int
}

func (a *muxAnswer) WriteHeader(code int)        { a.code = code }
func (a *muxAnswer) Write(p []byte) (int, error) { return len(p), nil }

func submit(b Backend, w http.ResponseWriter, r *http.Request, spec Spec) {
	spec.TraceCtx, _ = obs.Extract(r.Header)
	id, err := b.Submit(spec)
	if err != nil {
		WriteError(w, err)
		return
	}
	WriteJSON(w, http.StatusAccepted, map[string]string{"id": id})
}

// WriteJSON answers with code and v as the JSON body.
func WriteJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

// WriteError answers err as {"error": err.Error()} with the status the
// API gives it: an *APIError in err's chain keeps its code and
// Retry-After (a worker's answer, passed through by a coordinator);
// ErrQueueFull is 429 with Retry-After 1; ErrClosed is 503; ErrTraceTooLarge
// and an upload over the body cap (*http.MaxBytesError) are 413; anything
// else is a bad request, 400.
func WriteError(w http.ResponseWriter, err error) {
	code, retryAfter := http.StatusBadRequest, ""
	var apiErr *APIError
	var tooBig *http.MaxBytesError
	switch {
	case errors.As(err, &apiErr):
		code, retryAfter = apiErr.Code, apiErr.RetryAfter
	case errors.Is(err, ErrQueueFull):
		code, retryAfter = http.StatusTooManyRequests, "1"
	case errors.Is(err, ErrClosed):
		code = http.StatusServiceUnavailable
	case errors.Is(err, ErrTraceTooLarge), errors.As(err, &tooBig):
		code = http.StatusRequestEntityTooLarge
	}
	if retryAfter != "" {
		w.Header().Set("Retry-After", retryAfter)
	}
	WriteJSON(w, code, map[string]string{"error": err.Error()})
}

// fail answers with code and a formatted error message.
func fail(w http.ResponseWriter, code int, format string, args ...any) {
	WriteJSON(w, code, map[string]string{"error": fmt.Sprintf(format, args...)})
}
