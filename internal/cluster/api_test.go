package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"webslice/internal/service"
)

// contractWorker is a worker for the contract test: one slot that holds
// every job until block closes, a queue of one, a 1 KiB admission limit,
// and tracing off.
func contractWorker(t *testing.T, block chan struct{}) *service.Manager {
	t.Helper()
	m := service.New(service.Config{
		Workers:       1,
		QueueDepth:    1,
		MaxTraceBytes: 1 << 10,
		Runner: func(ctx context.Context, spec service.Spec) (*service.Result, error) {
			select {
			case <-block:
				return &service.Result{Criteria: spec.Criteria}, nil
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		},
	})
	t.Cleanup(m.Kill)
	return m
}

// apiRole is one role serving the websliced API in process.
type apiRole struct {
	h http.Handler
	// admitted counts the jobs the role's nodes admitted, from their
	// counters.
	admitted func() int64
	// drain begins the role's shutdown.
	drain func()
}

// serve sends one request to h and returns the recorded answer.
func serve(h http.Handler, method, path string, body []byte, contentLength int64) *httptest.ResponseRecorder {
	req := httptest.NewRequest(method, path, bytes.NewReader(body))
	if contentLength != 0 {
		req.ContentLength = contentLength
	}
	rw := httptest.NewRecorder()
	h.ServeHTTP(rw, req)
	return rw
}

// TestAPIContract: a worker and a coordinator serve one API, so the same
// requests get the same status codes from both. On the coordinator every
// submit is routed to an in-process worker, and the worker's refusal (429
// with its Retry-After, 400, 413) is the coordinator's answer.
func TestAPIContract(t *testing.T) {
	roles := map[string]func(t *testing.T, block chan struct{}) apiRole{
		"worker": func(t *testing.T, block chan struct{}) apiRole {
			m := contractWorker(t, block)
			return apiRole{
				h:        service.NewHandler(m),
				admitted: m.Metrics().Counter("jobs_submitted").Value,
				drain:    m.Close,
			}
		},
		"coordinator": func(t *testing.T, block chan struct{}) apiRole {
			w := contractWorker(t, block)
			srv := httptest.NewServer(service.NewHandler(w))
			t.Cleanup(srv.Close)
			local := service.New(service.Config{Workers: 1, QueueDepth: 1, Node: "http://coordinator.test"})
			t.Cleanup(local.Kill)
			co := New(Config{Self: "http://coordinator.test", Local: local, Peers: []string{srv.URL}})
			t.Cleanup(co.Stop)
			return apiRole{
				h: NewHandler(co),
				admitted: func() int64 {
					reg := co.Metrics()
					return reg.Counter("cluster_jobs_routed").Value() + reg.Counter("cluster_jobs_local").Value() +
						w.Metrics().Counter("jobs_submitted").Value()
				},
				drain: local.Close,
			}
		},
	}
	for name, start := range roles {
		t.Run(name, func(t *testing.T) {
			block := make(chan struct{})
			role := start(t, block)
			unblock := sync.OnceFunc(func() { close(block) })
			t.Cleanup(unblock)

			// 202 with exactly {"id"}: one job runs (held), one waits in
			// the queue, so the queue is full.
			var ids []string
			for range 2 {
				rw := serve(role.h, http.MethodPost, "/jobs", []byte(`{"site":"maps"}`), 0)
				var body map[string]any
				if err := json.Unmarshal(rw.Body.Bytes(), &body); err != nil || rw.Code != http.StatusAccepted {
					t.Fatalf("submit = %d %s, want 202", rw.Code, rw.Body)
				}
				id, _ := body["id"].(string)
				if len(body) != 1 || id == "" {
					t.Fatalf("submit body = %s, want {\"id\": ...}", rw.Body)
				}
				ids = append(ids, id)
				if len(ids) == 1 {
					waitRunning(t, role.h, id)
				}
			}

			v2 := append([]byte("WSLT\x02"), bytes.Repeat([]byte{0}, 64)...)
			overLimit := append([]byte("WSLT\x03"), bytes.Repeat([]byte{0}, 2<<10)...)
			cases := []struct {
				name, method, path string
				body               []byte
				contentLength      int64
				code               int
				errHas             string
				retryAfter         string
			}{
				{"queue full", "POST", "/jobs", []byte(`{"site":"maps"}`), 0, 429, "queue full", "1"},
				{"bad JSON", "POST", "/jobs", []byte(`{not json`), 0, 400, "bad job spec", ""},
				{"v2 trace", "POST", "/jobs/trace", v2, 0, 400, "format version 2", ""},
				{"admission limit", "POST", "/jobs/trace", overLimit, 0, 413, "admission limit", ""},
				// Declares one byte over the 256 MiB body cap; refused
				// before a byte is read.
				{"body cap", "POST", "/jobs/trace", []byte("WSLT\x03short"), 256<<20 + 1, 413, "too large", ""},
				{"unknown job", "GET", "/jobs/nope", nil, 0, 404, `no job "nope"`, ""},
				{"unknown result", "GET", "/jobs/nope/result", nil, 0, 404, `no job "nope"`, ""},
				{"unknown trace", "GET", "/jobs/nope/trace", nil, 0, 404, "no trace", ""},
				{"result not done", "GET", "/jobs/" + ids[0] + "/result", nil, 0, 409, "not done", ""},
				{"cancel unknown", "DELETE", "/jobs/nope", nil, 0, 409, "unknown or already finished", ""},
				// No route lists jobs: /jobs only takes a submission.
				{"job list", "GET", "/jobs", nil, 0, 405, "Method Not Allowed", ""},
				{"spans with tracing off", "GET", "/debug/spans", nil, 0, 404, "tracing disabled", ""},
			}
			admitted := role.admitted()
			for _, tc := range cases {
				rw := serve(role.h, tc.method, tc.path, tc.body, tc.contentLength)
				var e struct {
					Error string `json:"error"`
				}
				json.Unmarshal(rw.Body.Bytes(), &e)
				if rw.Code != tc.code || !strings.Contains(e.Error, tc.errHas) {
					t.Errorf("%s: %s %s = %d %q, want %d with an error naming %q", tc.name, tc.method, tc.path, rw.Code, e.Error, tc.code, tc.errHas)
				}
				if got := rw.Header().Get("Retry-After"); got != tc.retryAfter {
					t.Errorf("%s: Retry-After %q, want %q", tc.name, got, tc.retryAfter)
				}
				if n := role.admitted(); n != admitted {
					t.Errorf("%s: %d jobs admitted, want %d", tc.name, n, admitted)
				}
			}

			if rw := serve(role.h, "GET", "/healthz", nil, 0); rw.Code != http.StatusOK {
				t.Fatalf("healthz = %d %s, want 200", rw.Code, rw.Body)
			}
			unblock()
			role.drain()
			rw := serve(role.h, "GET", "/healthz", nil, 0)
			var h struct {
				Status string `json:"status"`
			}
			json.Unmarshal(rw.Body.Bytes(), &h)
			if rw.Code != http.StatusServiceUnavailable || h.Status != "draining" {
				t.Fatalf("healthz while draining = %d %s, want 503 draining", rw.Code, rw.Body)
			}
			if rw := serve(role.h, http.MethodPost, "/jobs", []byte(`{"site":"maps"}`), 0); rw.Code != http.StatusServiceUnavailable {
				t.Fatalf("submit while draining = %d %s, want 503", rw.Code, rw.Body)
			}
		})
	}
}

// waitRunning polls GET /jobs/{id} until the job runs.
func waitRunning(t *testing.T, h http.Handler, id string) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		var info service.Info
		json.Unmarshal(serve(h, "GET", "/jobs/"+id, nil, 0).Body.Bytes(), &info)
		if info.Status == service.StatusRunning {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("job %s never ran", id)
}

// panicOnSubmit is a worker's backend whose submit route hits a bug.
type panicOnSubmit struct{ *service.Manager }

func (panicOnSubmit) Submit(service.Spec) (string, error) { panic("submit bug") }

// TestCoordinatorErrorsAreJSON: a coordinator answers a request no route
// matches with a JSON 404 or 405, as a worker does. A worker whose submit
// route panics answers a JSON 500, which the coordinator passes on as a
// refusal: the worker is not counted unreachable, and the job does not
// fall back to the coordinator's own manager. A panic in one of the
// coordinator's own routes is a JSON 500 too, counted in http_panics.
func TestCoordinatorErrorsAreJSON(t *testing.T) {
	w := service.New(service.Config{Workers: 1})
	t.Cleanup(w.Kill)
	wsrv := httptest.NewServer(service.NewHandler(panicOnSubmit{w}))
	t.Cleanup(wsrv.Close)
	local := service.New(service.Config{Workers: 1, Node: "http://coordinator.test"})
	t.Cleanup(local.Kill)
	co := New(Config{Self: "http://coordinator.test", Local: local, Peers: []string{wsrv.URL}})
	t.Cleanup(co.Stop)
	h := NewHandler(co)
	h.HandleFunc("GET /boom", func(http.ResponseWriter, *http.Request) { panic("route bug") })
	srv := httptest.NewServer(h)
	t.Cleanup(srv.Close)

	for _, tc := range []struct {
		method, path string
		code         int
		errHas       string
	}{
		{"GET", "/nope", http.StatusNotFound, "Not Found"},
		{"PUT", "/jobs/x", http.StatusMethodNotAllowed, "Method Not Allowed"},
		{"POST", "/batch", http.StatusNotFound, "Not Found"},
		{"POST", "/jobs", http.StatusInternalServerError, "submit bug"},
		{"GET", "/boom", http.StatusInternalServerError, "route bug"},
	} {
		req, _ := http.NewRequest(tc.method, srv.URL+tc.path, strings.NewReader(`{"site":"maps"}`))
		resp, err := srv.Client().Do(req)
		if err != nil {
			t.Fatalf("%s %s: %v", tc.method, tc.path, err)
		}
		var e struct {
			Error string `json:"error"`
		}
		err = json.NewDecoder(resp.Body).Decode(&e)
		resp.Body.Close()
		if resp.StatusCode != tc.code || err != nil || !strings.Contains(e.Error, tc.errHas) {
			t.Errorf("%s %s = %d, error %q (%v), want %d JSON naming %q", tc.method, tc.path, resp.StatusCode, e.Error, err, tc.code, tc.errHas)
		}
	}
	reg := co.Metrics()
	for name, want := range map[string]int64{
		"cluster_forward_failed":  0,
		"cluster_local_fallbacks": 0,
		"cluster_jobs_local":      0,
		"http_panics":             1,
	} {
		if got := reg.Counter(name).Value(); got != want {
			t.Errorf("coordinator %s = %d, want %d", name, got, want)
		}
	}
	if got := w.Metrics().Counter("http_panics").Value(); got != 1 {
		t.Errorf("worker http_panics = %d, want 1", got)
	}
	if m := co.Members(); len(m) != 1 || m[0].Fails != 0 || co.Ring().Len() != 1 {
		t.Errorf("members %+v, ring size %d: want the worker in the ring with no failure", m, co.Ring().Len())
	}
}
