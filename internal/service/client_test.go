package service

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"

	"webslice/internal/obs"
)

// TestClientRoundTrip drives every Client call against the worker's
// handler: both kinds of submit, with the caller's trace joined through the
// traceparent header; status, a result before and after the job is done,
// the job's trace, the quarantine list, cancel and health. Every non-2xx
// answer is an *APIError with the server's code and message, and the
// client reuses one connection throughout.
func TestClientRoundTrip(t *testing.T) {
	release := make(chan struct{})
	var mu sync.Mutex
	var uploads []Spec
	m := New(Config{Workers: 1, QueueDepth: 4, Tracer: obs.New(256, nil),
		Runner: func(ctx context.Context, spec Spec) (*Result, error) {
			if spec.Trace != nil {
				mu.Lock()
				uploads = append(uploads, spec)
				mu.Unlock()
			}
			<-release
			return &Result{Criteria: spec.Criteria, SliceCount: 42}, nil
		}})
	t.Cleanup(m.Kill)
	srv := httptest.NewUnstartedServer(NewHandler(m))
	var conns atomic.Int32
	srv.Config.ConnState = func(_ net.Conn, s http.ConnState) {
		if s == http.StateNew {
			conns.Add(1)
		}
	}
	srv.Start()
	t.Cleanup(srv.Close)
	c := NewClient(srv.URL, srv.Client())
	if err := c.Health(); err != nil {
		t.Fatalf("Health = %v", err)
	}

	tr := obs.New(16, nil)
	caller := tr.Root("caller")
	id, err := c.Submit(Spec{Site: "maps", Criteria: "syscalls", TraceCtx: caller.Context()})
	if err != nil {
		t.Fatal(err)
	}
	waitStatus(t, m, id, StatusRunning)
	info, err := c.Info(id)
	if err != nil || info.ID != id || info.Status != StatusRunning || info.Criteria != "syscalls" {
		t.Fatalf("Info = %+v, %v; want %s running", info, err, id)
	}
	if res, ok, err := c.Result(id); res != nil || ok || err != nil {
		t.Fatalf("Result of a running job = %v, %t, %v; want not done", res, ok, err)
	}
	upID, err := c.Submit(Spec{Trace: []byte("WSLT\x03"), Criteria: "pixels", Verify: true, Origin: "http://co&x=1"})
	if err == nil || upID != "" {
		t.Fatalf("Submit of a 5-byte upload = %q, %v; want a 400", upID, err)
	}
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.Code != http.StatusBadRequest || apiErr.Message == "" {
		t.Fatalf("Submit error = %#v, want an *APIError with code 400 and the server's message", err)
	}

	close(release)
	waitStatus(t, m, id, StatusDone)
	res, ok, err := c.Result(id)
	if err != nil || !ok || res.SliceCount != 42 {
		t.Fatalf("Result = %+v, %t, %v; want the stub's 42", res, ok, err)
	}
	spans, err := c.JobTrace(id)
	if err != nil || len(spans) == 0 || spans[0].Trace != caller.TraceID() {
		t.Fatalf("JobTrace = %d spans, %v; want the job's spans on the caller's trace %s", len(spans), err, caller.TraceID())
	}
	if q, err := c.Quarantined(); err != nil || len(q) != 0 {
		t.Fatalf("Quarantined = %v, %v; want none", q, err)
	}
	if err := c.Cancel(id); !errors.As(err, &apiErr) || apiErr.Code != http.StatusConflict {
		t.Fatalf("Cancel of a finished job = %v, want a 409", err)
	}
	if _, err := c.Info("nope"); !errors.As(err, &apiErr) || apiErr.Code != http.StatusNotFound || apiErr.Message != `no job "nope"` {
		t.Fatalf("Info of an unknown job = %v, want the server's 404", err)
	}
	if n := conns.Load(); n != 1 {
		t.Errorf("the client opened %d connections, want 1: an answer not read to EOF drops its connection", n)
	}

	// The upload's query carried its criteria, verify flag and origin,
	// escaped.
	up, err := c.Submit(Spec{Trace: noiseUpload(t, 16), Criteria: "pixels", Verify: true, Origin: "http://co&x=1"})
	if err != nil {
		t.Fatal(err)
	}
	waitStatus(t, m, up, StatusDone)
	mu.Lock()
	got := uploads[len(uploads)-1]
	mu.Unlock()
	if got.Criteria != "pixels" || !got.Verify || got.Origin != "http://co&x=1" {
		t.Errorf("upload arrived as criteria %q, verify %t, origin %q", got.Criteria, got.Verify, got.Origin)
	}

	m.Close()
	if err := c.Health(); !errors.As(err, &apiErr) || apiErr.Code != http.StatusServiceUnavailable {
		t.Fatalf("Health while draining = %v, want a 503", err)
	}
}

// TestClientErrors: an answer that is not the API's JSON error still
// becomes an *APIError naming the request and the code; a dead server or a
// malformed base URL is an error of another type, which a coordinator
// counts against the peer; and WriteError passes a wrapped *APIError's
// code and Retry-After through, as a coordinator answers a worker's 429.
func TestClientErrors(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "upstream gone", http.StatusBadGateway)
	}))
	_, err := NewClient(srv.URL, srv.Client()).Info("j1")
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.Code != http.StatusBadGateway || err.Error() != "GET "+srv.URL+"/jobs/j1: HTTP 502" {
		t.Fatalf("a non-JSON 502 = %v, want an *APIError naming the request and the code", err)
	}
	srv.Close()
	if _, err := NewClient(srv.URL, http.DefaultClient).Submit(Spec{Site: "maps"}); err == nil || errors.As(err, &apiErr) {
		t.Fatalf("a dead server = %v, want a transport error", err)
	}
	if err := NewClient("http://[::1", http.DefaultClient).Health(); err == nil || errors.As(err, &apiErr) {
		t.Fatalf("a malformed base URL = %v, want a request error", err)
	}

	rw := httptest.NewRecorder()
	WriteError(rw, fmt.Errorf("peer refused: %w", &APIError{Code: http.StatusTooManyRequests, Message: "queue full", RetryAfter: "7"}))
	if rw.Code != http.StatusTooManyRequests || rw.Header().Get("Retry-After") != "7" ||
		rw.Body.String() != "{\"error\":\"peer refused: queue full\"}\n" {
		t.Fatalf("WriteError of a wrapped 429 = %d, Retry-After %q, %s", rw.Code, rw.Header().Get("Retry-After"), rw.Body)
	}
}
