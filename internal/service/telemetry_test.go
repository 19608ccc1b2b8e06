package service

import (
	"bytes"
	"encoding/json"
	"log/slog"
	"math"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"webslice/internal/obs"
	"webslice/internal/store"
)

// syncBuffer is a mutex-guarded log sink: the manager's workers log from
// their own goroutines (the "job finished" line lands after the terminal
// status is visible), so the test cannot read a bare bytes.Buffer.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// TestSpansSmoke is the end-to-end tracing smoke (ci.sh runs it by name):
// one golden job through the full pipeline must yield a single trace whose
// tree includes the queue wait, the attempt, the render, the store
// lookups, the forward pass, and the backward pass — all with correct
// parent links — retrievable over GET /jobs/{id}/trace. The backward pass
// is a real span that ends before the job's result is published to the
// result cache. A repeat of the job must be served whole by its
// result-cache lookup under the attempt, with no render and no slicing; a
// verified repeat, which bypasses the result cache, must render, load the
// forward pass from the store, and run the backward pass.
func TestSpansSmoke(t *testing.T) {
	st, err := store.Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	var logBuf syncBuffer
	tr := obs.New(256, nil)
	m := New(Config{
		Workers: 1,
		Store:   st,
		Tracer:  tr,
		Logger:  slog.New(slog.NewTextHandler(&logBuf, nil)),
	})
	defer m.Close()
	srv := httptest.NewServer(NewHandler(m))
	defer srv.Close()

	spans := jobSpans(t, m, srv.URL, `{"site":"amazon-desktop","scale":0.04}`)
	byName := map[string]obs.SpanData{}
	for _, s := range spans {
		if s.Trace != spans[0].Trace {
			t.Fatalf("span %s is on trace %s, want single trace %s", s.Name, s.Trace, spans[0].Trace)
		}
		if attr(s, "kind") == store.KindResult {
			continue // the result-cache spans sit under attempt; checked below
		}
		byName[s.Name] = s
	}
	for _, want := range []string{
		"job", "queue.wait", "attempt", "render",
		"store.get", "forward", "store.put",
		"slice", "slice.scan",
	} {
		if _, ok := byName[want]; !ok {
			t.Errorf("trace missing span %q (have %v)", want, names(spans))
		}
	}
	if t.Failed() {
		t.FailNow()
	}
	// Parent links: the causal chain job -> attempt -> {render, slice} and
	// slice -> {store lookups, forward pass, backward pass} must hold exactly.
	jobID := byName["job"].ID
	for child, parent := range map[string]string{
		"queue.wait": jobID,
		"attempt":    jobID,
		"render":     byName["attempt"].ID,
		"slice":      byName["attempt"].ID,
		"store.get":  byName["slice"].ID,
		"forward":    byName["slice"].ID,
		"store.put":  byName["slice"].ID,
		"slice.scan": byName["slice"].ID,
	} {
		if got := byName[child].Parent; got != parent {
			t.Errorf("%s.parent = %q, want %q", child, got, parent)
		}
	}
	if byName["job"].Parent != "" {
		t.Errorf("job span has parent %q, want root", byName["job"].Parent)
	}
	// The backward pass is one span, timed where it runs: slice.scan is
	// the slice span's only child besides the store and forward-pass
	// spans, and it is over before the result it produced is published.
	for _, s := range spans {
		if s.Parent != byName["slice"].ID {
			continue
		}
		switch s.Name {
		case "store.get", "store.put", "forward", "slice.scan":
		default:
			t.Errorf("unexpected span %q under slice", s.Name)
		}
	}
	// The first sighting misses the result cache and publishes its result,
	// both under the attempt, and the publish starts after the backward
	// pass ends.
	if g := storeSpans(spans, "store.get", store.KindResult, "attempt"); len(g) != 1 || attr(g[0], "hit") != "false" {
		t.Errorf("first job's result-cache lookups under attempt = %+v, want one miss", g)
	}
	if p := storeSpans(spans, "store.put", store.KindResult, "attempt"); len(p) != 1 {
		t.Errorf("first job has %d store.put kind=result spans under attempt, want 1 (have %v)", len(p), names(spans))
	} else {
		scan := byName["slice.scan"]
		scanEndNs := scan.StartNs + int64(math.Round(scan.DurMs*float64(time.Millisecond)))
		if scanEndNs > p[0].StartNs {
			t.Errorf("slice.scan ends at %d ns, after the result store.put starts at %d ns", scanEndNs, p[0].StartNs)
		}
	}

	// The structured log carries the trace ID, linking log lines to spans.
	if !strings.Contains(logBuf.String(), spans[0].Trace) {
		t.Errorf("log output does not mention trace %s:\n%s", spans[0].Trace, logBuf.String())
	}

	// The latency histograms expose the trace as an exemplar, linking
	// /metrics to /jobs/{id}/trace.
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var mb bytes.Buffer
	mb.ReadFrom(resp.Body)
	resp.Body.Close()
	if !strings.Contains(mb.String(), "# EXEMPLAR slice_ms_bucket") ||
		!strings.Contains(mb.String(), spans[0].Trace) {
		t.Errorf("/metrics missing slice_ms exemplar for trace %s", spans[0].Trace)
	}

	// /debug/spans serves the whole ring as JSONL.
	resp, err = http.Get(srv.URL + "/debug/spans")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var db bytes.Buffer
	db.ReadFrom(resp.Body)
	if resp.StatusCode != http.StatusOK || !strings.Contains(db.String(), `"name":"job"`) {
		t.Errorf("/debug/spans = %d, body %.200s", resp.StatusCode, db.String())
	}

	// An identical second job is a result-cache hit: one lookup under the
	// attempt serves it, and nothing renders or slices.
	again := jobSpans(t, m, srv.URL, `{"site":"amazon-desktop","scale":0.04}`)
	if g := storeSpans(again, "store.get", store.KindResult, "attempt"); len(g) != 1 || attr(g[0], "hit") != "true" {
		t.Errorf("repeat job's result-cache lookups under attempt = %+v, want one hit (have %v)", g, names(again))
	}
	for _, s := range again {
		switch s.Name {
		case "render", "slice", "slice.scan":
			t.Errorf("repeat job is a result-cache hit but its trace has a %s span", s.Name)
		}
	}

	// A verified repeat bypasses the result cache and renders. Its forward
	// pass is a store hit under the slice span, and it runs the backward
	// pass.
	verified := jobSpans(t, m, srv.URL, `{"site":"amazon-desktop","scale":0.04,"verify":true}`)
	if g := storeSpans(verified, "store.get", "deps", "slice"); len(g) != 1 || attr(g[0], "hit") != "true" {
		t.Errorf("verified repeat's forward-pass lookups under slice = %+v, want one hit (have %v)", g, names(verified))
	}
	scans := 0
	for _, s := range verified {
		switch {
		case s.Name == "slice.scan":
			scans++
		case attr(s, "kind") == store.KindResult:
			t.Errorf("verified repeat has a %s kind=result span", s.Name)
		}
	}
	if scans != 1 {
		t.Errorf("verified repeat has %d slice.scan spans, want 1 (have %v)", scans, names(verified))
	}
}

// storeSpans returns the spans of store operation op on artifact kind
// whose parent is the (first) span named parent.
func storeSpans(spans []obs.SpanData, op, kind, parent string) []obs.SpanData {
	var parentID string
	for _, s := range spans {
		if s.Name == parent {
			parentID = s.ID
			break
		}
	}
	var out []obs.SpanData
	for _, s := range spans {
		if s.Name == op && attr(s, "kind") == kind && s.Parent == parentID {
			out = append(out, s)
		}
	}
	return out
}

// jobSpans submits one job, waits for it to finish, and returns its trace
// from GET /jobs/{id}/trace.
func jobSpans(t *testing.T, m *Manager, url, body string) []obs.SpanData {
	t.Helper()
	resp, err := http.Post(url+"/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var acc struct {
		ID string `json:"id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&acc); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	waitStatus(t, m, acc.ID, StatusDone)

	resp, err = http.Get(url + "/jobs/" + acc.ID + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /jobs/%s/trace = %d", acc.ID, resp.StatusCode)
	}
	var spans []obs.SpanData
	if err := json.NewDecoder(resp.Body).Decode(&spans); err != nil {
		t.Fatal(err)
	}
	if len(spans) == 0 {
		t.Fatal("no spans recorded")
	}
	return spans
}

// attr returns the value of a span attribute ("" when absent).
func attr(s obs.SpanData, k string) string {
	for _, a := range s.Attrs {
		if a.K == k {
			return a.V
		}
	}
	return ""
}

func names(spans []obs.SpanData) []string {
	out := make([]string, len(spans))
	for i, s := range spans {
		out[i] = s.Name
	}
	return out
}

// The queue.wait span starts once the submission is journaled: the
// journal's fsync is journal.submit's time, not queue wait.
func TestQueueWaitExcludesJournalSubmit(t *testing.T) {
	jl, _, err := OpenJournal(filepath.Join(t.TempDir(), "jobs.wal"))
	if err != nil {
		t.Fatal(err)
	}
	m := New(Config{Workers: 1, Journal: jl, Tracer: obs.New(64, nil)})
	defer m.Close()
	id, err := m.Submit(Spec{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	waitStatus(t, m, id, StatusDone)
	spans, _ := m.JobTrace(id)
	var js, qw *obs.SpanData
	for i := range spans {
		switch spans[i].Name {
		case "journal.submit":
			js = &spans[i]
		case "queue.wait":
			qw = &spans[i]
		}
	}
	if js == nil || qw == nil {
		t.Fatalf("want journal.submit and queue.wait spans, got %v", names(spans))
	}
	if end := js.StartNs + int64(math.Round(js.DurMs*float64(time.Millisecond))); qw.StartNs < end {
		t.Fatalf("queue.wait starts %d ns before journal.submit ends", end-qw.StartNs)
	}
}

// A submission carrying a traceparent header must join the caller's trace
// rather than starting its own — the cross-node propagation contract.
func TestSubmitJoinsPropagatedTrace(t *testing.T) {
	tr := obs.New(64, nil)
	m := New(Config{Workers: 1, Tracer: tr})
	defer m.Close()
	srv := httptest.NewServer(NewHandler(m))
	defer srv.Close()

	const parent = "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"
	req, _ := http.NewRequest("POST", srv.URL+"/jobs", strings.NewReader(`{"seed":7}`))
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(obs.Header, parent)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var acc struct {
		ID string `json:"id"`
	}
	json.NewDecoder(resp.Body).Decode(&acc)
	resp.Body.Close()
	waitStatus(t, m, acc.ID, StatusDone)

	spans, ok := m.JobTrace(acc.ID)
	if !ok || len(spans) == 0 {
		t.Fatalf("JobTrace = %v, %t", spans, ok)
	}
	for _, s := range spans {
		if s.Trace != "4bf92f3577b34da6a3ce929d0e0e4736" {
			t.Fatalf("span %s on trace %s, want the propagated trace", s.Name, s.Trace)
		}
		if s.Name == "job" && s.Parent != "00f067aa0ba902b7" {
			t.Fatalf("job span parent = %q, want the propagated span", s.Parent)
		}
	}
}

// With tracing disabled (nil Tracer) the trace endpoints 404 and the job
// path records nothing — the disabled configuration is first-class, not an
// error state.
func TestTracingDisabledEndpoints(t *testing.T) {
	m := New(Config{Workers: 1})
	defer m.Close()
	srv := httptest.NewServer(NewHandler(m))
	defer srv.Close()

	id, err := m.Submit(Spec{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	waitStatus(t, m, id, StatusDone)
	if _, ok := m.JobTrace(id); ok {
		t.Fatal("JobTrace succeeded with tracing disabled")
	}
	for _, path := range []string{"/jobs/" + id + "/trace", "/debug/spans"} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET %s = %d, want 404", path, resp.StatusCode)
		}
	}
}
