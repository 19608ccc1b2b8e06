package cluster

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"webslice/internal/obs"
	"webslice/internal/service"
	"webslice/internal/store"
)

// The cross-node propagation acceptance test: a coordinator-routed job on
// a 3-node cluster must yield ONE trace — the coordinator's route/forward
// spans and the owning worker's job/queue/slice spans share a trace ID and
// link parent-to-child across the HTTP hop. Runs under -race with the rest
// of the suite, so concurrent span recording is exercised too.
func TestClusterTracePropagation(t *testing.T) {
	tc := startCluster(t, 3, Config{})
	id, err := tc.co.Submit(service.Spec{Site: "amazon-desktop", Scale: 0.04})
	if err != nil {
		t.Fatal(err)
	}
	info := await(t, tc.co, id)
	if info.Status != service.StatusDone {
		t.Fatalf("job %s: %s (%s)", id, info.Status, info.Error)
	}
	if info.Node == "http://coordinator.test" {
		t.Fatalf("job ran on the coordinator; want a ring worker")
	}

	spans, ok := tc.co.JobTrace(id)
	if !ok {
		t.Fatalf("JobTrace(%s): no trace", id)
	}
	byName := map[string]obs.SpanData{}
	for _, s := range spans {
		if s.Trace != spans[0].Trace {
			t.Fatalf("span %s on trace %s, want single trace %s", s.Name, s.Trace, spans[0].Trace)
		}
		byName[s.Name] = s
	}
	for _, want := range []string{"route", "peer.submit", "job", "queue.wait", "attempt", "slice", "slice.scan"} {
		if _, ok := byName[want]; !ok {
			t.Fatalf("merged trace missing span %q (have %d spans)", want, len(spans))
		}
	}
	// Parent links across the coordinator/worker boundary: the worker's
	// root "job" span must hang off the coordinator's "route" span — that
	// is the traceparent hop — and the chains on both sides must hold.
	route := byName["route"]
	if route.Parent != "" {
		t.Errorf("route.parent = %q, want root", route.Parent)
	}
	for child, parent := range map[string]string{
		"peer.submit": route.ID,
		"job":         route.ID,
		"queue.wait":  byName["job"].ID,
		"attempt":     byName["job"].ID,
		"slice":       byName["attempt"].ID,
		"slice.scan":  byName["slice"].ID,
	} {
		if got := byName[child].Parent; got != parent {
			t.Errorf("%s.parent = %q, want %q", child, got, parent)
		}
	}

	// The same merged tree must be served over the coordinator's HTTP API.
	h := NewHandler(tc.co)
	req := httptest.NewRequest(http.MethodGet, "/jobs/"+id+"/trace", nil)
	rw := httptest.NewRecorder()
	h.ServeHTTP(rw, req)
	if rw.Code != http.StatusOK {
		t.Fatalf("GET /jobs/%s/trace = %d", id, rw.Code)
	}
	var served []obs.SpanData
	if err := json.NewDecoder(rw.Body).Decode(&served); err != nil {
		t.Fatal(err)
	}
	if len(served) != len(spans) {
		t.Fatalf("HTTP trace has %d spans, JobTrace %d", len(served), len(spans))
	}
}

// A peer's 429 must surface as a span event carrying the Retry-After and
// node hints — backpressure is visible in the trace, not only in the
// client's response headers.
func TestBackpressureSpanEvent(t *testing.T) {
	busy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost {
			w.Header().Set("Retry-After", "7")
			w.WriteHeader(http.StatusTooManyRequests)
			json.NewEncoder(w).Encode(map[string]string{"error": "queue full"})
			return
		}
		w.WriteHeader(http.StatusOK)
	}))
	defer busy.Close()

	st, _ := store.Open("", 1<<20)
	tr := obs.New(64, nil)
	local := service.New(service.Config{Workers: 1, Store: st, Tracer: tr})
	defer local.Kill()
	co := New(Config{Self: "http://coordinator.test", Local: local, Peers: []string{busy.URL}})
	defer co.Stop()

	if _, err := co.Submit(service.Spec{Seed: 5}); err == nil ||
		!strings.Contains(err.Error(), "queue full") {
		t.Fatalf("Submit = %v, want the peer's 429 error", err)
	}
	var route *obs.SpanData
	for _, s := range tr.Snapshot() {
		if s.Name == "route" {
			route = &s
			break
		}
	}
	if route == nil {
		t.Fatal("no route span recorded")
	}
	var ev *obs.Event
	for i := range route.Events {
		if route.Events[i].Name == "peer.backpressure" {
			ev = &route.Events[i]
		}
	}
	if ev == nil {
		t.Fatalf("route span has no peer.backpressure event (events: %v)", route.Events)
	}
	attrs := map[string]string{}
	for _, a := range ev.Attrs {
		attrs[a.K] = a.V
	}
	if attrs["retry_after"] != "7" || attrs["peer"] != busy.URL {
		t.Fatalf("backpressure event attrs = %v, want retry_after=7 peer=%s", attrs, busy.URL)
	}
}
