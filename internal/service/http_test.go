package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"webslice/internal/obs"
)

// testServer wires a manager with a fast stub runner behind the HTTP API.
func testServer(t *testing.T, cfg Config) (*httptest.Server, *Manager) {
	t.Helper()
	if cfg.Runner == nil {
		cfg.Runner = func(ctx context.Context, spec Spec) (*Result, error) {
			return &Result{Criteria: spec.Criteria, Total: 100, SliceCount: 42, SlicePct: 42}, nil
		}
	}
	m := New(cfg)
	srv := httptest.NewServer(NewHandler(m))
	t.Cleanup(func() { srv.Close(); m.Close() })
	return srv, m
}

func postJSON(t *testing.T, url string, body any) *http.Response {
	t.Helper()
	b, _ := json.Marshal(body)
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func readJSON(t *testing.T, resp *http.Response, v any) {
	t.Helper()
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatal(err)
	}
}

func TestHTTPSubmitStatusResult(t *testing.T) {
	srv, _ := testServer(t, Config{Workers: 2, QueueDepth: 8})

	resp := postJSON(t, srv.URL+"/jobs", Spec{Site: "amazon-desktop", Criteria: "pixels"})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit = %d, want 202", resp.StatusCode)
	}
	var sub struct {
		ID string `json:"id"`
	}
	readJSON(t, resp, &sub)
	if sub.ID == "" {
		t.Fatal("no job id returned")
	}

	deadline := time.Now().Add(30 * time.Second)
	var info Info
	for {
		r, err := http.Get(srv.URL + "/jobs/" + sub.ID)
		if err != nil {
			t.Fatal(err)
		}
		readJSON(t, r, &info)
		if info.Status.Terminal() || time.Now().After(deadline) {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	if info.Status != StatusDone {
		t.Fatalf("job = %s, want done", info.Status)
	}

	r, err := http.Get(srv.URL + "/jobs/" + sub.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	if r.StatusCode != http.StatusOK {
		t.Fatalf("result = %d, want 200", r.StatusCode)
	}
	var res Result
	readJSON(t, r, &res)
	if res.SliceCount != 42 {
		t.Fatalf("result = %+v, want the stub's 42", res)
	}
}

func TestHTTPBackpressureAndErrors(t *testing.T) {
	block := make(chan struct{})
	defer close(block)
	srv, m := testServer(t, Config{
		Workers:    1,
		QueueDepth: 1,
		Runner: func(ctx context.Context, spec Spec) (*Result, error) {
			<-block
			return &Result{}, nil
		},
	})

	resp := postJSON(t, srv.URL+"/jobs", Spec{Site: "maps"})
	var sub struct {
		ID string `json:"id"`
	}
	readJSON(t, resp, &sub)
	waitStatus(t, m, sub.ID, StatusRunning)
	resp = postJSON(t, srv.URL+"/jobs", Spec{Site: "maps"})
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("second submit = %d, want 202 (queued)", resp.StatusCode)
	}

	// Queue full: 429 with Retry-After and a JSON error body.
	resp = postJSON(t, srv.URL+"/jobs", Spec{Site: "maps"})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow submit = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 carries no Retry-After")
	}
	var e struct {
		Error string `json:"error"`
	}
	readJSON(t, resp, &e)
	if !strings.Contains(e.Error, "queue full") {
		t.Fatalf("429 body = %q, want queue-full error", e.Error)
	}

	// Bad requests.
	resp = postJSON(t, srv.URL+"/jobs", Spec{Site: "no-such-site"})
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad site = %d, want 400", resp.StatusCode)
	}
	resp, err := http.Post(srv.URL+"/jobs", "application/json", strings.NewReader("{not json"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad json = %d, want 400", resp.StatusCode)
	}

	// Unknown job: 404. Unfinished result: 409.
	r, _ := http.Get(srv.URL + "/jobs/j999999")
	r.Body.Close()
	if r.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job = %d, want 404", r.StatusCode)
	}
	r, _ = http.Get(srv.URL + "/jobs/" + sub.ID + "/result")
	r.Body.Close()
	if r.StatusCode != http.StatusConflict {
		t.Fatalf("result of running job = %d, want 409", r.StatusCode)
	}
}

func TestHTTPCancel(t *testing.T) {
	block := make(chan struct{})
	defer close(block)
	srv, m := testServer(t, Config{
		Workers:    1,
		QueueDepth: 4,
		Runner: func(ctx context.Context, spec Spec) (*Result, error) {
			<-block
			return &Result{}, nil
		},
	})
	resp := postJSON(t, srv.URL+"/jobs", Spec{Site: "bing"})
	var a struct {
		ID string `json:"id"`
	}
	readJSON(t, resp, &a)
	waitStatus(t, m, a.ID, StatusRunning)
	resp = postJSON(t, srv.URL+"/jobs", Spec{Site: "bing"})
	var b struct {
		ID string `json:"id"`
	}
	readJSON(t, resp, &b)

	req, _ := http.NewRequest(http.MethodDelete, srv.URL+"/jobs/"+b.ID, nil)
	r, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusOK {
		t.Fatalf("cancel = %d, want 200", r.StatusCode)
	}
	req, _ = http.NewRequest(http.MethodDelete, srv.URL+"/jobs/nope", nil)
	r, _ = http.DefaultClient.Do(req)
	r.Body.Close()
	if r.StatusCode != http.StatusConflict {
		t.Fatalf("cancel unknown = %d, want 409", r.StatusCode)
	}
}

// TestHTTPRejectsBadSubmissions is the table-driven sweep over invalid
// submissions: every row must be rejected synchronously with a 4xx and a
// JSON error body — none may reach a worker.
func TestHTTPRejectsBadSubmissions(t *testing.T) {
	ran := make(chan struct{}, 16)
	srv, _ := testServer(t, Config{
		Workers: 1,
		Runner: func(ctx context.Context, spec Spec) (*Result, error) {
			ran <- struct{}{}
			return &Result{}, nil
		},
	})
	cases := []struct {
		name        string
		path        string
		contentType string
		body        string
		wantCode    int
		wantErr     string
	}{
		{"negative scale", "/jobs", "application/json", `{"site":"maps","scale":-1}`, 400, "invalid scale"},
		{"tiny negative scale", "/jobs", "application/json", `{"site":"maps","scale":-0.001}`, 400, "invalid scale"},
		{"scale over the cap", "/jobs", "application/json", `{"site":"amazon-desktop","scale":64}`, 400, "invalid scale"},
		{"unknown site", "/jobs", "application/json", `{"site":"no-such-site"}`, 400, "unknown site"},
		{"unknown criteria", "/jobs", "application/json", `{"site":"maps","criteria":"wishes"}`, 400, "unknown criteria"},
		{"malformed json", "/jobs", "application/json", `{"site":`, 400, "bad job spec"},
		{"empty trace body", "/jobs/trace", "application/octet-stream", "", 400, "empty trace body"},
		{"non-trace bytes", "/jobs/trace", "application/octet-stream", "GIF89a definitely pixels", 400, "not a WSLT trace"},
		{"truncated magic", "/jobs/trace", "application/octet-stream", "WSL", 400, "not a WSLT trace"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, err := http.Post(srv.URL+tc.path, tc.contentType, strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode != tc.wantCode {
				t.Errorf("status = %d, want %d", resp.StatusCode, tc.wantCode)
			}
			var e struct {
				Error string `json:"error"`
			}
			readJSON(t, resp, &e)
			if !strings.Contains(e.Error, tc.wantErr) {
				t.Errorf("error body %q does not mention %q", e.Error, tc.wantErr)
			}
		})
	}
	select {
	case <-ran:
		t.Fatal("a rejected submission reached the runner")
	default:
	}
}

// TestHTTPRefusesV2Trace: a trace in the retired flat v2 format gets a 400
// naming its version, and is never enqueued, journaled, or run.
func TestHTTPRefusesV2Trace(t *testing.T) {
	j, _, err := OpenJournal(filepath.Join(t.TempDir(), "jobs.wal"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { j.Close() })
	ran := make(chan struct{}, 1)
	srv, m := testServer(t, Config{
		Workers: 1,
		Journal: j,
		Runner: func(ctx context.Context, spec Spec) (*Result, error) {
			ran <- struct{}{}
			return &Result{}, nil
		},
	})
	v2 := append([]byte("WSLT\x02"), bytes.Repeat([]byte{0}, 64)...)
	resp, err := http.Post(srv.URL+"/jobs/trace", "application/octet-stream", bytes.NewReader(v2))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("status = %d, want 400", resp.StatusCode)
	}
	var e struct {
		Error string `json:"error"`
	}
	readJSON(t, resp, &e)
	if !strings.Contains(e.Error, "format version 2") {
		t.Errorf("error body %q does not name format version 2", e.Error)
	}
	if n := m.Metrics().Counter("jobs_submitted").Value(); n != 0 {
		t.Errorf("jobs_submitted = %d, want 0", n)
	}
	if j.MaxID() != 0 {
		t.Errorf("journal recorded job id %d, want none", j.MaxID())
	}
	select {
	case <-ran:
		t.Fatal("the refused submission reached the runner")
	default:
	}
}

func TestHTTPHealthzDuringDrain(t *testing.T) {
	block := make(chan struct{})
	m := New(Config{
		Workers:    1,
		QueueDepth: 4,
		Runner: func(ctx context.Context, spec Spec) (*Result, error) {
			<-block
			return &Result{}, nil
		},
	})
	srv := httptest.NewServer(NewHandler(m))
	defer srv.Close()

	// Healthy before drain.
	r, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %d before drain, want 200", r.StatusCode)
	}

	id, err := m.Submit(Spec{Site: "maps"})
	if err != nil {
		t.Fatal(err)
	}
	waitStatus(t, m, id, StatusRunning)
	done := make(chan struct{})
	go func() { m.Close(); close(done) }()
	waitDraining(t, m)

	// Unhealthy while draining: 503 with an explicit status, so a balancer
	// stops routing here while the in-flight job finishes.
	r, err = http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var h struct {
		Status string `json:"status"`
	}
	if r.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("healthz = %d during drain, want 503", r.StatusCode)
	}
	readJSON(t, r, &h)
	if h.Status != "draining" {
		t.Errorf("healthz status = %q during drain, want draining", h.Status)
	}

	// New submissions are turned away with 503 as well.
	resp := postJSON(t, srv.URL+"/jobs", Spec{Site: "maps"})
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("submit during drain = %d, want 503", resp.StatusCode)
	}

	close(block)
	<-done
}

func waitDraining(t *testing.T, m *Manager) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for !m.Draining() {
		if time.Now().After(deadline) {
			t.Fatal("timeout waiting for drain to begin")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestHTTPHealthAndMetrics(t *testing.T) {
	srv, m := testServer(t, Config{Workers: 3})
	r, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var h struct {
		Status  string `json:"status"`
		Workers int    `json:"workers"`
	}
	readJSON(t, r, &h)
	if h.Status != "ok" || h.Workers != 3 {
		t.Fatalf("healthz = %+v", h)
	}

	resp := postJSON(t, srv.URL+"/jobs", Spec{Site: "maps"})
	var sub struct {
		ID string `json:"id"`
	}
	readJSON(t, resp, &sub)
	waitStatus(t, m, sub.ID, StatusDone)

	r, err = http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(r.Body)
	r.Body.Close()
	text := string(body)
	for _, want := range []string{"jobs_submitted 1", "jobs_done 1", "queue_wait_ms_count 1",
		"# TYPE jobs_submitted counter", "# TYPE slice_ms histogram", `slice_ms_bucket{le="+Inf"} 1`} {
		if !strings.Contains(text, want) {
			t.Fatalf("metrics exposition missing %q:\n%s", want, text)
		}
	}
	if ct := r.Header.Get("Content-Type"); ct != "text/plain; version=0.0.4" {
		t.Fatalf("metrics content type = %q, want the Prometheus 0.0.4 exposition type", ct)
	}
}

// TestHTTPQuarantineAndAdmission covers the robustness surface: the
// poisoned-job list endpoint and the 413 trace admission limit.
func TestHTTPQuarantineAndAdmission(t *testing.T) {
	srv, m := testServer(t, Config{
		Workers:       1,
		MaxTraceBytes: 16,
		Runner: func(ctx context.Context, spec Spec) (*Result, error) {
			if spec.Site == "bing" {
				panic("poisoned")
			}
			return &Result{}, nil
		},
	})

	// Empty quarantine list serves as JSON, not a 404 into GET /jobs/{id}.
	r, err := http.Get(srv.URL + "/jobs/quarantined")
	if err != nil {
		t.Fatal(err)
	}
	var empty []Info
	readJSON(t, r, &empty)
	if r.StatusCode != http.StatusOK || len(empty) != 0 {
		t.Fatalf("empty quarantine = %d %v, want 200 []", r.StatusCode, empty)
	}

	resp := postJSON(t, srv.URL+"/jobs", Spec{Site: "bing"})
	var sub struct {
		ID string `json:"id"`
	}
	readJSON(t, resp, &sub)
	deadline := time.Now().Add(30 * time.Second)
	for {
		info, _ := m.Info(sub.ID)
		if info.Status.Terminal() {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("timeout waiting for quarantine")
		}
		time.Sleep(time.Millisecond)
	}
	r, err = http.Get(srv.URL + "/jobs/quarantined")
	if err != nil {
		t.Fatal(err)
	}
	var quarantined []Info
	readJSON(t, r, &quarantined)
	if len(quarantined) != 1 || quarantined[0].ID != sub.ID || quarantined[0].Status != StatusQuarantined {
		t.Fatalf("quarantine list = %+v, want the panicked job", quarantined)
	}

	// A trace over the admission limit maps to 413, not 400.
	big := append([]byte("WSLT"), bytes.Repeat([]byte{0}, 64)...)
	resp, err = http.Post(srv.URL+"/jobs/trace", "application/octet-stream", bytes.NewReader(big))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized trace = %d, want 413", resp.StatusCode)
	}
}

// panicOnSubmit is a worker's backend whose submit route hits a bug.
type panicOnSubmit struct{ *Manager }

func (panicOnSubmit) Submit(Spec) (string, error) { panic("submit bug") }

// TestHTTPEveryErrorIsJSON: a request no route matches gets a JSON
// {"error"}: a 404, or a 405 that keeps ServeMux's Allow header. A route
// that panics answers a JSON 500 and counts in http_panics, and the server
// keeps serving.
func TestHTTPEveryErrorIsJSON(t *testing.T) {
	m := New(Config{Workers: 1})
	t.Cleanup(m.Kill)
	srv := httptest.NewServer(NewHandler(panicOnSubmit{m}))
	t.Cleanup(srv.Close)
	for _, tc := range []struct {
		method, path string
		code         int
		errHas       string
		allow        string
	}{
		{"GET", "/nope", http.StatusNotFound, "GET /nope: Not Found", ""},
		{"PUT", "/jobs/x", http.StatusMethodNotAllowed, "PUT /jobs/x: Method Not Allowed", "DELETE"},
		{"GET", "/jobs", http.StatusMethodNotAllowed, "Method Not Allowed", "POST"},
		{"POST", "/jobs", http.StatusInternalServerError, "submit bug", ""},
	} {
		req, _ := http.NewRequest(tc.method, srv.URL+tc.path, strings.NewReader(`{"site":"maps"}`))
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("%s %s: %v", tc.method, tc.path, err)
		}
		var e struct {
			Error string `json:"error"`
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != tc.code || resp.Header.Get("Content-Type") != "application/json" ||
			json.Unmarshal(body, &e) != nil || !strings.Contains(e.Error, tc.errHas) {
			t.Errorf("%s %s = %d %q %s, want %d JSON naming %q", tc.method, tc.path, resp.StatusCode, resp.Header.Get("Content-Type"), body, tc.code, tc.errHas)
		}
		if allow := resp.Header.Get("Allow"); !strings.Contains(allow, tc.allow) || (tc.allow == "") != (allow == "") {
			t.Errorf("%s %s: Allow %q, want one naming %q", tc.method, tc.path, allow, tc.allow)
		}
	}
	if n := m.Metrics().Counter("http_panics").Value(); n != 1 {
		t.Fatalf("http_panics = %d, want 1", n)
	}
	if resp, err := http.Get(srv.URL + "/healthz"); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz after a panic = %v, %v", resp, err)
	}
}

// FuzzHandlerNeverPanics sends one request of any method, path and body to
// NewHandler over a Manager with a stub runner, no store and no journal,
// which has admitted one job (j000001) for the job routes to find. The
// handler also gets a subtree route at /debug/pprof/, as websliced adds
// net/http/pprof's, stubbed to answer 200 with a body. The
// request is parsed from its wire form as a server would, and one that does
// not parse is skipped: net/http refuses it before any handler runs. No
// route may panic, so http_panics stays 0, and every answer that is not a
// 2xx is JSON with an "error" field. Each input gets its own Manager,
// killed when the input is done: the job table keeps every admitted job,
// and this way it holds at most that input's two.
func FuzzHandlerNeverPanics(f *testing.F) {
	for _, seed := range []struct {
		method, path string
		body         []byte
	}{
		{"POST", "/jobs", []byte(`{"site":"maps","scale":0.05}`)},
		{"POST", "/jobs", []byte(`{"seed":7,"criteria":"syscalls"}`)},
		{"POST", "/jobs", []byte(`{"site":"maps","scale":64}`)},
		{"POST", "/jobs", []byte(`{"site":`)},
		{"POST", "/jobs/trace?criteria=pixels&verify=1", noiseUpload(f, 16)},
		{"POST", "/jobs/trace?criteria=syscalls", declaredRecsUpload(9)},
		{"POST", "/jobs/trace", []byte("WSLT\x02")},
		{"GET", "/jobs/j000001", nil},
		{"GET", "/jobs/j000001/result", nil},
		{"GET", "/jobs/j000001/trace", nil},
		{"DELETE", "/jobs/j000001", nil},
		{"DELETE", "/jobs/j999999", nil},
		{"GET", "/jobs/quarantined", nil},
		{"GET", "/healthz", nil},
		{"GET", "/metrics", nil},
		{"GET", "/debug/spans", nil},
		{"PUT", "/jobs/x", []byte("x")},
		{"GET", "/jobs", nil},
		{"GET", "/nope", nil},
		{"GET", "/jobs/../healthz", nil},
		{"GET", "*", nil},
		{"GET", "/debug/pprof/", nil},
		{"GET", "/debug/pprof", nil},
		{"POST", "/debug/pprof/../jobs", []byte(`{"site":"maps"}`)},
	} {
		f.Add(seed.method, seed.path, seed.body)
	}
	runner := func(ctx context.Context, spec Spec) (*Result, error) {
		return &Result{Criteria: spec.Criteria, Total: 100, SliceCount: 42, SlicePct: 42}, nil
	}
	f.Fuzz(func(t *testing.T, method, path string, body []byte) {
		wire := fmt.Sprintf("%s %s HTTP/1.1\r\nHost: webslice.test\r\nContent-Length: %d\r\n\r\n", method, path, len(body))
		req, err := http.ReadRequest(bufio.NewReader(io.MultiReader(strings.NewReader(wire), bytes.NewReader(body))))
		if err != nil {
			return
		}
		m := New(Config{Workers: 1, QueueDepth: 4, Runner: runner, Tracer: obs.New(64, nil)})
		defer m.Kill()
		if _, err := m.Submit(Spec{Site: "maps", Scale: 0.05}); err != nil {
			t.Fatal(err)
		}
		h := NewHandler(m)
		h.HandleFunc("/debug/pprof/", func(w http.ResponseWriter, r *http.Request) { io.WriteString(w, "profiles") })
		w := httptest.NewRecorder()
		h.ServeHTTP(w, req)
		if n := m.Metrics().Counter("http_panics").Value(); n != 0 {
			t.Fatalf("%s %q: a route panicked (http_panics %d): %s", method, path, n, w.Body)
		}
		if w.Code >= 200 && w.Code < 300 {
			return
		}
		var e struct {
			Error string `json:"error"`
		}
		if ct := w.Header().Get("Content-Type"); ct != "application/json" || json.Unmarshal(w.Body.Bytes(), &e) != nil || e.Error == "" {
			t.Fatalf("%s %q = %d %q %q, want a JSON error", method, path, w.Code, ct, w.Body)
		}
	})
}
