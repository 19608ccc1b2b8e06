package main

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"webslice/internal/cluster"
	"webslice/internal/service"
)

// recordClock is an auto-advancing service.Clock: Sleep returns at once
// but logs the requested duration and moves Now forward by it, so the
// client's backoff schedule is asserted without real waiting.
type recordClock struct {
	mu     sync.Mutex
	now    time.Time
	sleeps []time.Duration
}

func newRecordClock() *recordClock { return &recordClock{now: time.Unix(1700000000, 0)} }

func (c *recordClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *recordClock) Sleep(d time.Duration, stop <-chan struct{}) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.sleeps = append(c.sleeps, d)
	if d > 0 {
		c.now = c.now.Add(d)
	}
}

func (c *recordClock) Sleeps() []time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]time.Duration(nil), c.sleeps...)
}

func testClient(srv *httptest.Server, maxWait time.Duration) (*client, *recordClock) {
	clock := newRecordClock()
	return &client{api: service.NewClient(srv.URL, srv.Client()), clock: clock, maxWait: maxWait, out: io.Discard}, clock
}

// A busy server's 429s are retried, waiting out the Retry-After hint when
// it exceeds the client's own backoff, and the submit eventually lands.
func TestClientSubmitHonorsRetryAfter(t *testing.T) {
	var mu sync.Mutex
	posts := 0
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		posts++
		n := posts
		mu.Unlock()
		if n <= 2 {
			w.Header().Set("Retry-After", "3")
			w.WriteHeader(http.StatusTooManyRequests)
			json.NewEncoder(w).Encode(map[string]string{"error": "queue full"})
			return
		}
		w.WriteHeader(http.StatusAccepted)
		json.NewEncoder(w).Encode(map[string]string{"id": "j000123"})
	}))
	defer srv.Close()

	c, clock := testClient(srv, 0)
	id, err := c.submit(service.Spec{})
	if err != nil {
		t.Fatal(err)
	}
	if id != "j000123" {
		t.Fatalf("id = %q", id)
	}
	if posts != 3 {
		t.Fatalf("posts = %d, want 3 (two 429s then accept)", posts)
	}
	// Retry-After: 3 dominates the 100ms/200ms base backoff both times.
	want := []time.Duration{3 * time.Second, 3 * time.Second}
	got := clock.Sleeps()
	if len(got) != len(want) || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("sleeps = %v, want %v", got, want)
	}
}

// Without a Retry-After header the client falls back to its own capped
// exponential backoff: 100ms, 200ms, 400ms, ... capped at 2s.
func TestClientSubmitExponentialBackoff(t *testing.T) {
	var mu sync.Mutex
	posts := 0
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		posts++
		n := posts
		mu.Unlock()
		if n <= 7 {
			w.WriteHeader(http.StatusTooManyRequests)
			return
		}
		w.WriteHeader(http.StatusAccepted)
		json.NewEncoder(w).Encode(map[string]string{"id": "j1"})
	}))
	defer srv.Close()

	c, clock := testClient(srv, 0)
	if _, err := c.submit(service.Spec{}); err != nil {
		t.Fatal(err)
	}
	want := []time.Duration{
		100 * time.Millisecond, 200 * time.Millisecond, 400 * time.Millisecond,
		800 * time.Millisecond, 1600 * time.Millisecond, 2 * time.Second, 2 * time.Second,
	}
	got := clock.Sleeps()
	if len(got) != len(want) {
		t.Fatalf("sleeps = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("sleep[%d] = %v, want %v (all: %v)", i, got[i], want[i], got)
		}
	}
}

// -max-wait bounds the total time spent retrying: a permanently busy
// server produces an error instead of an unbounded loop.
func TestClientSubmitMaxWait(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "10")
		w.WriteHeader(http.StatusTooManyRequests)
	}))
	defer srv.Close()

	c, clock := testClient(srv, 15*time.Second)
	_, err := c.submit(service.Spec{})
	if err == nil || !strings.Contains(err.Error(), "-max-wait") {
		t.Fatalf("err = %v, want a -max-wait give-up", err)
	}
	// First wait (10s, trimmed within budget) runs; the second attempt's
	// wait is trimmed to the remaining 5s; the third finds no budget left.
	sleeps := clock.Sleeps()
	if len(sleeps) != 2 || sleeps[0] != 10*time.Second || sleeps[1] != 5*time.Second {
		t.Fatalf("sleeps = %v, want [10s 5s]", sleeps)
	}
}

// Result polling backs off exponentially instead of the old fixed 200ms
// hammer, and stops as soon as the job reports terminal.
func TestClientAwaitBackoff(t *testing.T) {
	var mu sync.Mutex
	polls := 0
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		polls++
		n := polls
		mu.Unlock()
		info := service.Info{ID: "j1", Status: service.StatusRunning}
		if n >= 4 {
			info.Status = service.StatusDone
		}
		json.NewEncoder(w).Encode(info)
	}))
	defer srv.Close()

	c, clock := testClient(srv, 0)
	if err := c.await("j1"); err != nil {
		t.Fatal(err)
	}
	want := []time.Duration{100 * time.Millisecond, 200 * time.Millisecond, 400 * time.Millisecond}
	got := clock.Sleeps()
	if len(got) != len(want) {
		t.Fatalf("sleeps = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("sleep[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

// A failed job surfaces its error through await rather than hanging.
func TestClientAwaitFailedJob(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(service.Info{ID: "j1", Status: service.StatusFailed, Error: "panic: bad trace"})
	}))
	defer srv.Close()
	c, _ := testClient(srv, 0)
	err := c.await("j1")
	if err == nil || !strings.Contains(err.Error(), "bad trace") {
		t.Fatalf("err = %v, want the job's failure", err)
	}
}

// TestClientScatterAllOrNothing: scatter admits its sites all or none, on
// a worker and through a coordinator alike. A site that is refused fails
// the command with an error naming it, and the job admitted before it is
// canceled where it runs. Each worker runs every job until canceled.
func TestClientScatterAllOrNothing(t *testing.T) {
	worker := func(t *testing.T) (*service.Manager, *httptest.Server) {
		m := service.New(service.Config{Workers: 1, QueueDepth: 8,
			Runner: func(ctx context.Context, spec service.Spec) (*service.Result, error) {
				<-ctx.Done()
				return nil, ctx.Err()
			}})
		srv := httptest.NewServer(service.NewHandler(m))
		t.Cleanup(func() { srv.Close(); m.Kill() })
		return m, srv
	}
	direct, directSrv := worker(t)
	routed, routedSrv := worker(t)
	local := service.New(service.Config{Workers: 1, Node: "http://coordinator.test"})
	co := cluster.New(cluster.Config{Self: "http://coordinator.test", Local: local, Peers: []string{routedSrv.URL}})
	coSrv := httptest.NewServer(cluster.NewHandler(co))
	t.Cleanup(func() { coSrv.Close(); co.Stop(); local.Kill() })

	for _, tc := range []struct {
		name     string
		url, id  string // the scatter's target, and the id it gives the first job
		executor *service.Manager
	}{
		{"worker", directSrv.URL, "j000001", direct},
		{"coordinator", coSrv.URL, "c000001", routed},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var out strings.Builder
			c := &client{api: service.NewClient(tc.url, http.DefaultClient), clock: service.SystemClock, out: &out}
			err := c.clientScatter("maps,no-such-site,bing", 0.05, "pixels", false)
			var refused *service.APIError
			if !errors.As(err, &refused) || refused.Code != http.StatusBadRequest || !strings.Contains(err.Error(), "site no-such-site refused") {
				t.Fatalf("scatter with an unknown site = %v, want a 400 naming the site", err)
			}
			if out.Len() != 0 {
				t.Errorf("a refused scatter printed %q, want no ids", out.String())
			}
			deadline := time.Now().Add(10 * time.Second)
			for {
				info, err := c.api.Info(tc.id)
				if err != nil {
					t.Fatal(err)
				}
				if info.Status.Terminal() {
					if info.Status != service.StatusCanceled {
						t.Fatalf("the site admitted before the refused one is %s, want canceled", info.Status)
					}
					break
				}
				if time.Now().After(deadline) {
					t.Fatalf("the site admitted before the refused one is still %s", info.Status)
				}
				time.Sleep(5 * time.Millisecond)
			}
			if n := tc.executor.Metrics().Counter("jobs_submitted").Value(); n != 1 {
				t.Fatalf("the executing worker admitted %d jobs, want the 1 before the refused site", n)
			}
		})
	}
}

func TestSplitSites(t *testing.T) {
	got := splitSites("a,b,,c,")
	if len(got) != 3 || got[0] != "a" || got[1] != "b" || got[2] != "c" {
		t.Fatalf("splitSites = %v", got)
	}
	if splitSites("") != nil {
		t.Fatal("splitSites(\"\") != nil")
	}
}
