package service

import (
	"bytes"
	"context"
	"errors"
	"math"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"webslice/internal/browser"
	"webslice/internal/sites"
	"webslice/internal/store"
)

// waitStatus polls until the job reaches status s (or fails the test).
func waitStatus(t *testing.T, m *Manager, id string, s Status) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		info, err := m.Info(id)
		if err != nil {
			t.Fatalf("job %s disappeared: %v", id, err)
		}
		if info.Status == s {
			return
		}
		if info.Status.Terminal() {
			t.Fatalf("job %s is %s (err=%q), want %s", id, info.Status, info.Error, s)
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timeout waiting for job %s to reach %s", id, s)
}

func TestQueueFullRejectsWithTypedError(t *testing.T) {
	block := make(chan struct{})
	m := New(Config{
		Workers:    1,
		QueueDepth: 1,
		Runner: func(ctx context.Context, spec Spec) (*Result, error) {
			<-block
			return &Result{}, nil
		},
	})
	idA, err := m.Submit(Spec{Site: "amazon-desktop"})
	if err != nil {
		t.Fatal(err)
	}
	waitStatus(t, m, idA, StatusRunning) // A is off the queue, held by the worker
	if _, err := m.Submit(Spec{Site: "amazon-desktop"}); err != nil {
		t.Fatalf("second submit should queue, got %v", err)
	}
	_, err = m.Submit(Spec{Site: "amazon-desktop"})
	if !errors.Is(err, ErrQueueFull) {
		t.Fatalf("third submit = %v, want ErrQueueFull", err)
	}
	if got := m.Metrics().Counter("jobs_rejected").Value(); got != 1 {
		t.Fatalf("jobs_rejected = %d, want 1", got)
	}
	close(block)
	m.Close()
	if _, err := m.Submit(Spec{Site: "amazon-desktop"}); !errors.Is(err, ErrClosed) {
		t.Fatalf("submit after Close = %v, want ErrClosed", err)
	}
}

func TestSubmitValidation(t *testing.T) {
	m := New(Config{Workers: 1, Runner: func(context.Context, Spec) (*Result, error) { return &Result{}, nil }})
	defer m.Close()
	if _, err := m.Submit(Spec{Site: "no-such-site"}); err == nil {
		t.Fatal("unknown site accepted")
	}
	if _, err := m.Submit(Spec{Site: "maps", Criteria: "vibes"}); err == nil {
		t.Fatal("unknown criteria accepted")
	}
	for _, scale := range []float64{-1, -0.25, math.NaN(), math.Inf(1), 64, math.Nextafter(maxScale, 3)} {
		_, err := m.Submit(Spec{Site: "maps", Scale: scale})
		if err == nil {
			t.Errorf("scale %v accepted", scale)
			continue
		}
		if !strings.Contains(err.Error(), "scale") {
			t.Errorf("scale %v: error %q does not name the bad field", scale, err)
		}
	}
	// Zero means "default"; small positive scales are valid.
	if id, err := m.Submit(Spec{Site: "maps", Scale: 0}); err != nil {
		t.Errorf("zero scale (default) rejected: %v", err)
	} else {
		waitStatus(t, m, id, StatusDone)
	}
	if _, err := m.Submit(Spec{Site: "maps", Scale: 0.01}); err != nil {
		t.Errorf("valid scale rejected: %v", err)
	}
	if _, err := m.Submit(Spec{Site: "maps", Scale: maxScale}); err != nil {
		t.Errorf("the largest admitted scale was rejected: %v", err)
	}
}

// TestValidateDoesNotBuildTheSite: admitting a site job checks its name
// only. Building the site to learn that the name exists cost 1,000 to
// 3,600 allocations a submit, result-cache hits and journal replays
// included.
func TestValidateDoesNotBuildTheSite(t *testing.T) {
	m := &Manager{}
	for _, name := range sites.Names() {
		allocs := testing.AllocsPerRun(20, func() {
			spec := Spec{Site: name, Scale: 0.5}
			if err := m.Validate(&spec); err != nil {
				t.Fatal(err)
			}
		})
		if allocs >= 10 {
			t.Errorf("validating a job for site %s made %.0f allocations, want under 10", name, allocs)
		}
	}
}

func TestWorkerPoolRunsJobsConcurrently(t *testing.T) {
	const n = 4
	arrived := make(chan struct{}, n)
	release := make(chan struct{})
	m := New(Config{
		Workers:    n,
		QueueDepth: n,
		Runner: func(ctx context.Context, spec Spec) (*Result, error) {
			arrived <- struct{}{}
			<-release
			return &Result{}, nil
		},
	})
	ids := make([]string, n)
	for i := range ids {
		id, err := m.Submit(Spec{Site: "amazon-desktop"})
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = id
	}
	// All n jobs must be inside the runner at the same time — the pool
	// genuinely saturates, it does not serialize.
	for i := 0; i < n; i++ {
		select {
		case <-arrived:
		case <-time.After(30 * time.Second):
			t.Fatalf("only %d of %d jobs started concurrently", i, n)
		}
	}
	if peak := m.Metrics().Gauge("jobs_running_peak").Value(); peak != n {
		t.Fatalf("jobs_running_peak = %d, want %d", peak, n)
	}
	close(release)
	m.Close()
	for _, id := range ids {
		info, _ := m.Info(id)
		if info.Status != StatusDone {
			t.Fatalf("job %s = %s, want done", id, info.Status)
		}
	}
}

func TestCloseDrainsAcceptedJobs(t *testing.T) {
	var ran atomic.Int64
	m := New(Config{
		Workers:    2,
		QueueDepth: 16,
		Runner: func(ctx context.Context, spec Spec) (*Result, error) {
			time.Sleep(5 * time.Millisecond)
			ran.Add(1)
			return &Result{}, nil
		},
	})
	const n = 8
	ids := make([]string, n)
	for i := range ids {
		id, err := m.Submit(Spec{Site: "maps"})
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = id
	}
	m.Close() // must drain all 8, not abandon the queued ones
	if ran.Load() != n {
		t.Fatalf("Close drained %d jobs, want %d", ran.Load(), n)
	}
	for _, id := range ids {
		if info, _ := m.Info(id); info.Status != StatusDone {
			t.Fatalf("job %s = %s after drain, want done", id, info.Status)
		}
	}
}

func TestCancelQueuedJobNeverRuns(t *testing.T) {
	block := make(chan struct{})
	var ranB atomic.Bool
	m := New(Config{
		Workers:    1,
		QueueDepth: 4,
		Runner: func(ctx context.Context, spec Spec) (*Result, error) {
			if spec.Site == "bing" {
				ranB.Store(true)
			}
			<-block
			return &Result{}, nil
		},
	})
	idA, err := m.Submit(Spec{Site: "amazon-desktop"})
	if err != nil {
		t.Fatal(err)
	}
	waitStatus(t, m, idA, StatusRunning)
	idB, err := m.Submit(Spec{Site: "bing"}) // sits in the queue behind A
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Cancel(idB); err != nil {
		t.Fatalf("Cancel of a queued job: %v", err)
	}
	close(block)
	m.Close()
	if info, _ := m.Info(idB); info.Status != StatusCanceled {
		t.Fatalf("canceled job = %s, want canceled", info.Status)
	}
	if ranB.Load() {
		t.Fatal("canceled job still ran")
	}
	if err := m.Cancel(idB); !errors.Is(err, ErrJobState) {
		t.Fatalf("Cancel of a terminal job = %v, want ErrJobState", err)
	}
}

// TestConcurrentSiteJobsWithCache is the acceptance scenario: with 4
// workers, 4 independent real site jobs complete concurrently under -race,
// and a repeat submission of one of them is served whole from the result
// cache.
func TestConcurrentSiteJobsWithCache(t *testing.T) {
	st, err := store.Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	m := New(Config{Workers: 4, QueueDepth: 16, Store: st})
	specs := []Spec{
		{Site: "amazon-desktop", Scale: 0.04},
		{Site: "amazon-mobile", Scale: 0.04},
		{Site: "amazon-desktop", Scale: 0.06},
		{Site: "amazon-mobile", Scale: 0.06},
	}
	ids := make([]string, len(specs))
	for i, s := range specs {
		id, err := m.Submit(s)
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = id
	}
	results := make([]*Result, len(ids))
	for i, id := range ids {
		deadline := time.Now().Add(120 * time.Second)
		for {
			info, err := m.Info(id)
			if err != nil {
				t.Fatalf("job %s disappeared: %v", id, err)
			}
			if info.Status == StatusDone {
				break
			}
			if info.Status.Terminal() {
				t.Fatalf("job %s: %s (%s)", id, info.Status, info.Error)
			}
			if time.Now().After(deadline) {
				t.Fatalf("job %s timed out in %s", id, info.Status)
			}
			time.Sleep(10 * time.Millisecond)
		}
		res, err := m.Result(id)
		if err != nil {
			t.Fatalf("no result for done job %s: %v", id, err)
		}
		results[i] = res
	}
	if peak := m.Metrics().Gauge("jobs_running_peak").Value(); peak < 2 {
		t.Fatalf("jobs_running_peak = %d, want >= 2 (pool did not overlap)", peak)
	}
	for i, res := range results {
		if res.CacheHit {
			t.Fatalf("job %d was a cache hit on first sight", i)
		}
		if res.Total == 0 || res.SliceCount == 0 || res.TraceKey == "" {
			t.Fatalf("job %d result looks empty: %+v", i, res)
		}
	}

	// Re-submit the first spec: the result comes out of the store, with the
	// same trace key and the cache-hit counter incremented.
	hitsBefore := st.Stats().Hits
	id, err := m.Submit(specs[0])
	if err != nil {
		t.Fatal(err)
	}
	waitStatus(t, m, id, StatusDone)
	res, _ := m.Result(id)
	if !res.CacheHit {
		t.Fatal("repeat job of an identical trace was not a cache hit")
	}
	if res.TraceKey != results[0].TraceKey {
		t.Fatalf("repeat job key %s differs from original %s", res.TraceKey, results[0].TraceKey)
	}
	if res.Total != results[0].Total || res.SliceCount != results[0].SliceCount {
		t.Fatalf("cached result differs: %d/%d vs %d/%d",
			res.SliceCount, res.Total, results[0].SliceCount, results[0].Total)
	}
	if st.Stats().Hits <= hitsBefore {
		t.Fatal("store hit counter did not increment on the repeat job")
	}
	m.Close()
}

// TestTraceJobRoundTrip submits an encoded trace instead of a site name.
func TestTraceJobRoundTrip(t *testing.T) {
	b, err := sites.ByName("amazon-desktop", sites.Options{Scale: 0.04})
	if err != nil {
		t.Fatal(err)
	}
	br := browser.New(b.Site, b.Profile)
	br.RunSession()
	if len(br.Errors) > 0 {
		t.Fatal(br.Errors[0])
	}
	var buf bytes.Buffer
	if err := br.M.Tr.WriteV3(&buf); err != nil {
		t.Fatal(err)
	}

	st, _ := store.Open(t.TempDir(), 0)
	m := New(Config{Workers: 2, Store: st})
	defer m.Close()
	id, err := m.Submit(Spec{Trace: buf.Bytes(), Criteria: "syscalls"})
	if err != nil {
		t.Fatal(err)
	}
	waitStatus(t, m, id, StatusDone)
	res, _ := m.Result(id)
	if res.Criteria != "syscalls" {
		t.Fatalf("criteria = %q, want syscalls", res.Criteria)
	}
	if res.Total != len(br.M.Tr.Recs) {
		t.Fatalf("total = %d, want %d", res.Total, len(br.M.Tr.Recs))
	}
	// Garbage bytes are rejected at submission — they never reach a worker.
	if _, err := m.Submit(Spec{Trace: []byte("not a trace")}); err == nil {
		t.Fatal("submit of non-WSLT bytes accepted")
	}
	// A body whose index and footer are intact but whose block payload is
	// corrupt passes admission (which decodes no block) and fails
	// asynchronously in the worker. A decode error is not retried: the
	// same bytes would fail the same way.
	corrupt := append([]byte(nil), buf.Bytes()...)
	corrupt[len(corrupt)/2] ^= 0x01
	id2, err := m.Submit(Spec{Trace: corrupt})
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		info, _ := m.Info(id2)
		if info.Status.Terminal() {
			if info.Status != StatusFailed {
				t.Fatalf("corrupt trace job = %s, want failed", info.Status)
			}
			if info.Attempts != 1 {
				t.Fatalf("corrupt trace job ran %d attempts, want 1 (a decode error is not retried)", info.Attempts)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("timeout waiting for corrupt trace job")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestVerifiedJob runs a real job with Spec.Verify set, twice. Verified
// jobs bypass the result cache, so the repeat is no cache hit: it slices
// again and is invariant-checked again. Both report Verified.
func TestVerifiedJob(t *testing.T) {
	st, _ := store.Open(t.TempDir(), 0)
	m := New(Config{Workers: 1, Store: st})
	defer m.Close()

	for round := 0; round < 2; round++ {
		id, err := m.Submit(Spec{Site: "amazon-desktop", Scale: 0.04, Verify: true})
		if err != nil {
			t.Fatal(err)
		}
		waitStatus(t, m, id, StatusDone)
		res, err := m.Result(id)
		if err != nil {
			t.Fatalf("round %d: no result: %v", round, err)
		}
		if !res.Verified {
			t.Errorf("round %d: result not marked verified", round)
		}
		if res.CacheHit {
			t.Errorf("round %d: a verified job was a cache hit", round)
		}
	}
}
