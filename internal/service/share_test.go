package service

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"webslice/internal/core"
	"webslice/internal/experiments"
	"webslice/internal/obs"
	"webslice/internal/sites"
	"webslice/internal/slicer"
	"webslice/internal/store"
	"webslice/internal/trace"
)

// holders returns how many jobs hold key's share, 0 when none does.
func holders(s *traceShares, key string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	if sh := s.m[key]; sh != nil {
		return sh.holders
	}
	return 0
}

// awaitHolders waits until at least n jobs hold key's share, polling. It
// reports false if that takes over 30 s; it may run off the test's
// goroutine, so it does not fail the test itself.
func awaitHolders(s *traceShares, key string, n int) bool {
	deadline := time.Now().Add(30 * time.Second)
	for holders(s, key) < n {
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(100 * time.Microsecond)
	}
	return true
}

// acquired is what one acquire returned.
type acquired struct {
	sh  *traceShare
	err error
}

// acquireAsync runs acquire on its own goroutine and delivers the outcome.
// The spec it acquires with names key as its site.
func acquireAsync(ctx context.Context, s *traceShares, parent *obs.Span, key string) <-chan acquired {
	out := make(chan acquired, 1)
	go func() {
		sh, err := s.acquire(ctx, parent, "render", key, Spec{Site: key})
		out <- acquired{sh, err}
	}()
	return out
}

// mustAwait fails the test unless n jobs come to hold key's share.
func mustAwait(t *testing.T, s *traceShares, key string, n int) {
	t.Helper()
	if !awaitHolders(s, key, n) {
		t.Fatalf("%d jobs hold %q after 30 s, want %d", holders(s, key), key, n)
	}
}

// TestTraceShareObtainsOncePerKey: eight jobs of one key in flight together
// get one trace from one obtain step. The one that obtained records an
// unshared render span, the seven that waited a shared one. The trace is
// freed once, after the last of them releases it.
func TestTraceShareObtainsOncePerKey(t *testing.T) {
	const n = 8
	gate := make(chan struct{})
	var calls, frees atomic.Int32
	s := newTraceShares(func(spec Spec) (*trace.Trace, func(), error) {
		calls.Add(1)
		<-gate
		return trace.New(), func() { frees.Add(1) }, nil
	})
	tracer := obs.New(64, nil)
	root := tracer.Root("test")
	outs := make([]<-chan acquired, n)
	for i := range outs {
		outs[i] = acquireAsync(context.Background(), s, root, "k")
	}
	mustAwait(t, s, "k", n)
	close(gate)
	var shares []*traceShare
	for _, out := range outs {
		a := <-out
		if a.err != nil {
			t.Fatal(a.err)
		}
		if len(shares) > 0 && a.sh != shares[0] {
			t.Fatal("holders got different shares")
		}
		shares = append(shares, a.sh)
	}
	if c := calls.Load(); c != 1 {
		t.Fatalf("%d concurrent acquirers of one key ran the obtain step %d times, want 1", n, c)
	}
	for i, sh := range shares {
		s.release("k", sh)
		if f := frees.Load(); f != 0 && i < n-1 || f != 1 && i == n-1 {
			t.Fatalf("after %d of %d releases the trace was freed %d times", i+1, n, f)
		}
	}
	root.End()
	shared, unshared := 0, 0
	for _, sp := range tracer.Snapshot() {
		switch {
		case sp.Name != "render":
		case attr(sp, "shared") == "true":
			shared++
		default:
			unshared++
		}
	}
	if unshared != 1 || shared != n-1 {
		t.Fatalf("render spans: %d unshared, %d shared; want 1 and %d", unshared, shared, n-1)
	}
}

// TestTraceShareKeysAreIndependent: two keys are obtained side by side,
// each by its own obtain step, and neither waits for the other.
func TestTraceShareKeysAreIndependent(t *testing.T) {
	started := make(chan string, 2)
	gate := make(chan struct{})
	s := newTraceShares(func(spec Spec) (*trace.Trace, func(), error) {
		started <- spec.Site
		<-gate
		return trace.New(), nil, nil
	})
	a := acquireAsync(context.Background(), s, nil, "a")
	b := acquireAsync(context.Background(), s, nil, "b")
	// Both obtain steps are running at once: neither key's waits on the other.
	seen := map[string]bool{<-started: true, <-started: true}
	if !seen["a"] || !seen["b"] {
		t.Fatalf("obtain steps started for %v, want a and b", seen)
	}
	close(gate)
	ga, gb := <-a, <-b
	if ga.err != nil || gb.err != nil {
		t.Fatal(ga.err, gb.err)
	}
	if ga.sh == gb.sh || ga.sh.t == gb.sh.t {
		t.Fatal("two keys share a trace")
	}
	s.release("a", ga.sh)
	if holders(s, "b") != 1 {
		t.Fatal("releasing one key dropped the other")
	}
	s.release("b", gb.sh)
}

// TestTraceShareWaiterCanceled: a waiter whose context ends returns
// ErrCanceled and lets go of its hold, and the other holders still get
// the trace.
func TestTraceShareWaiterCanceled(t *testing.T) {
	gate := make(chan struct{})
	var frees atomic.Int32
	s := newTraceShares(func(spec Spec) (*trace.Trace, func(), error) {
		<-gate
		return trace.New(), func() { frees.Add(1) }, nil
	})
	obtainer := acquireAsync(context.Background(), s, nil, "k")
	mustAwait(t, s, "k", 1)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	quitter := acquireAsync(ctx, s, nil, "k")
	waiter := acquireAsync(context.Background(), s, nil, "k")
	mustAwait(t, s, "k", 3)
	cancel()
	if q := <-quitter; !errors.Is(q.err, ErrCanceled) || q.sh != nil {
		t.Fatalf("canceled waiter got (%v, %v), want ErrCanceled", q.sh, q.err)
	}
	if h := holders(s, "k"); h != 2 {
		t.Fatalf("%d holders after a waiter gave up, want 2", h)
	}
	close(gate)
	ob, w := <-obtainer, <-waiter
	if ob.err != nil || w.err != nil || ob.sh != w.sh || w.sh.t == nil {
		t.Fatalf("obtainer got (%v, %v), waiter (%v, %v); want one trace", ob.sh, ob.err, w.sh, w.err)
	}
	s.release("k", ob.sh)
	s.release("k", w.sh)
	if f := frees.Load(); f != 1 {
		t.Fatalf("trace freed %d times, want 1", f)
	}
}

// TestTraceShareErrorReachesEveryWaiter: a decode error is deterministic,
// so the obtain step runs once and every holder gets its error.
func TestTraceShareErrorReachesEveryWaiter(t *testing.T) {
	const n = 4
	gate := make(chan struct{})
	var calls atomic.Int32
	bad := &trace.DecodeError{Section: "block 0", Msg: "checksum mismatch"}
	s := newTraceShares(func(spec Spec) (*trace.Trace, func(), error) {
		calls.Add(1)
		<-gate
		return nil, nil, fmt.Errorf("service: decoding submitted trace: %w", bad)
	})
	tracer := obs.New(64, nil)
	root := tracer.Root("test")
	outs := make([]<-chan acquired, n)
	for i := range outs {
		outs[i] = acquireAsync(context.Background(), s, root, "k")
	}
	mustAwait(t, s, "k", n)
	close(gate)
	for _, out := range outs {
		a := <-out
		var de *trace.DecodeError
		if !errors.As(a.err, &de) || de != bad || a.sh != nil {
			t.Fatalf("holder got (%v, %v), want the obtain step's decode error", a.sh, a.err)
		}
	}
	if c := calls.Load(); c != 1 {
		t.Fatalf("obtain step ran %d times, want 1", c)
	}
	if len(s.m) != 0 {
		t.Fatalf("%d keys left after every holder failed", len(s.m))
	}
	root.End()
	for _, sp := range tracer.Snapshot() {
		if sp.Name == "render" && attr(sp, "error") == "" {
			t.Fatalf("render span %+v carries no error", sp)
		}
	}
}

// TestTraceSharePanicStaysWithItsJob: a panic in the obtain step re-panics
// in the job that obtained only. Its waiters are not charged it: they
// acquire afresh, so one of them obtains the trace and the other shares it.
func TestTraceSharePanicStaysWithItsJob(t *testing.T) {
	gate := make(chan struct{})
	var calls atomic.Int32
	s := newTraceShares(func(spec Spec) (*trace.Trace, func(), error) {
		if calls.Add(1) == 1 {
			<-gate
			panic("poisoned render")
		}
		return trace.New(), nil, nil
	})
	panicked := make(chan any, 1)
	go func() {
		defer func() { panicked <- recover() }()
		s.acquire(context.Background(), nil, "render", "k", Spec{})
	}()
	mustAwait(t, s, "k", 1)
	a := acquireAsync(context.Background(), s, nil, "k")
	b := acquireAsync(context.Background(), s, nil, "k")
	mustAwait(t, s, "k", 3)
	close(gate)
	if r := <-panicked; r != "poisoned render" {
		t.Fatalf("obtaining job recovered %v, want its own panic", r)
	}
	ga, gb := <-a, <-b
	if ga.err != nil || gb.err != nil || ga.sh != gb.sh || ga.sh.t == nil {
		t.Fatalf("waiters got (%v, %v) and (%v, %v), want one trace obtained afresh", ga.sh, ga.err, gb.sh, gb.err)
	}
	if c := calls.Load(); c != 2 {
		t.Fatalf("obtain step ran %d times, want 2: the panic, then one waiter's", c)
	}
	s.release("k", ga.sh)
	s.release("k", gb.sh)
	if len(s.m) != 0 {
		t.Fatalf("%d keys left after the last release", len(s.m))
	}
}

// TestTraceShareRetainsNothing: the last release deletes the key and frees
// the trace, so a later job of the key obtains it afresh.
func TestTraceShareRetainsNothing(t *testing.T) {
	var calls, frees atomic.Int32
	s := newTraceShares(func(spec Spec) (*trace.Trace, func(), error) {
		calls.Add(1)
		return trace.New(), func() { frees.Add(1) }, nil
	})
	ctx := context.Background()
	first, err := s.acquire(ctx, nil, "render", "k", Spec{})
	if err != nil {
		t.Fatal(err)
	}
	second, err := s.acquire(ctx, nil, "render", "k", Spec{})
	if err != nil || second != first {
		t.Fatalf("second holder got (%v, %v), want the first's share", second, err)
	}
	s.release("k", first)
	if frees.Load() != 0 || holders(s, "k") != 1 {
		t.Fatal("the trace was freed while a job still held it")
	}
	s.release("k", second)
	if frees.Load() != 1 || len(s.m) != 0 {
		t.Fatalf("after the last release: freed %d times, %d keys left; want 1 and 0", frees.Load(), len(s.m))
	}
	again, err := s.acquire(ctx, nil, "render", "k", Spec{})
	if err != nil || again == first || calls.Load() != 2 {
		t.Fatalf("a job after the last release got the old share or did not obtain (%d obtains)", calls.Load())
	}
	s.release("k", again)
}

// gateObtain makes m's obtain step wait until n jobs hold the share it
// fills, so that they are in flight together however the workers are
// scheduled. then, if non-nil, runs after that wait.
func gateObtain(m *Manager, n int, then func(spec Spec)) {
	obtain := m.shares.obtain
	m.shares.obtain = func(spec Spec) (*trace.Trace, func(), error) {
		awaitHolders(m.shares, JobKey(spec), n)
		if then != nil {
			then(spec)
		}
		return obtain(spec)
	}
}

// goldenEntry returns the golden corpus entry of a site or seed.
func goldenEntry(t *testing.T, site string, scale float64, seed uint64) experiments.GoldenEntry {
	t.Helper()
	corpus, err := experiments.LoadGolden("../../examples/golden/corpus.json")
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range corpus.Sites {
		if e.Name == site && e.Scale == scale && e.Seed == seed {
			return e
		}
	}
	t.Fatalf("no golden entry for site %q scale %v seed %d", site, scale, seed)
	return experiments.GoldenEntry{}
}

// checkTwins runs both criteria of one trace together on a manager with a
// tracer, 2 workers and st as its store (nil for none). Both must match
// their golden digests, with one obtain step between them (one unshared
// span named obtain, and one shared) and one forward pass (one unshared
// forward span, and one shared). With a store, the forward pass is looked
// up once, a miss, and put once. No trace may be left once both are done.
func checkTwins(t *testing.T, st *store.Store, pixels Spec, obtain, wantKey string, e experiments.GoldenEntry) {
	m := New(Config{Workers: 2, Store: st, Tracer: obs.New(1024, nil)})
	defer m.Close()
	gateObtain(m, 2, nil)
	syscalls := pixels
	syscalls.Criteria = "syscalls"
	want := map[string]string{} // job ID -> golden slice digest
	for _, j := range []struct {
		spec   Spec
		digest string
	}{{pixels, e.Pixels}, {syscalls, e.Syscalls}} {
		id, err := m.Submit(j.spec)
		if err != nil {
			t.Fatal(err)
		}
		want[id] = j.digest
	}
	type spanCount struct{ unshared, shared int }
	var obtains, forwards spanCount
	count := func(c *spanCount, s obs.SpanData) {
		if attr(s, "shared") == "true" {
			c.shared++
		} else {
			c.unshared++
		}
	}
	depsGets := map[string]int{} // hit attribute -> deps lookups
	depsPuts := 0
	for id, digest := range want {
		waitStatus(t, m, id, StatusDone)
		res, _ := m.Result(id)
		if res.SliceDigest != digest || res.TraceKey != wantKey {
			t.Errorf("%s (%s): slice %s, trace key %s; want %s, %s", id, res.Criteria, res.SliceDigest, res.TraceKey, digest, wantKey)
		}
		spans, _ := m.JobTrace(id)
		for _, s := range spans {
			switch {
			case s.Name == obtain:
				count(&obtains, s)
			case s.Name == "forward":
				count(&forwards, s)
			case s.Name == "store.get" && attr(s, "kind") == "deps":
				depsGets[attr(s, "hit")]++
			case s.Name == "store.put" && attr(s, "kind") == "deps":
				depsPuts++
			}
		}
	}
	one := spanCount{unshared: 1, shared: 1}
	if obtains != one || forwards != one {
		t.Errorf("two jobs of one trace in flight: %+v %s spans and %+v forward spans; want one unshared and one shared of each",
			obtains, obtain, forwards)
	}
	lookups := 0
	if st != nil {
		lookups = 1
	}
	if depsGets["false"] != lookups || depsGets["true"] != 0 || depsPuts != lookups {
		t.Errorf("forward-pass store spans: %d misses, %d hits, %d puts; want %d, 0, %d",
			depsGets["false"], depsGets["true"], depsPuts, lookups, lookups)
	}
	if holders(m.shares, JobKey(pixels)) != 0 || len(m.shares.m) != 0 {
		t.Error("a trace outlived its jobs")
	}
}

// openStore opens a store over a directory the test removes.
func openStore(t *testing.T) *store.Store {
	t.Helper()
	st, err := store.Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// TestTwinSiteJobsShareOneRender: a site's pixels and syscalls jobs in
// flight together render once and run one forward pass.
func TestTwinSiteJobsShareOneRender(t *testing.T) {
	e := goldenEntry(t, "amazon-desktop", 0.05, 0)
	spec := Spec{Site: e.Name, Scale: e.Scale}
	checkTwins(t, openStore(t), spec, "render", JobKey(spec), e)
}

// TestTwinUploadsShareOneDecode: one upload submitted with both criteria at
// once is decoded once and runs one forward pass.
func TestTwinUploadsShareOneDecode(t *testing.T) {
	e := goldenEntry(t, "", 0, 1003)
	up := encodeV3(t, sites.Random(e.Seed))
	checkTwins(t, openStore(t), Spec{Trace: up}, "trace.open", store.KeyBytes(up), e)
}

// TestTwinsWithoutStoreShareOneForwardPass: on a manager without a store,
// a site's pixels and syscalls jobs in flight together still run one
// forward pass, which the trace's share holds for the second.
func TestTwinsWithoutStoreShareOneForwardPass(t *testing.T) {
	e := goldenEntry(t, "amazon-desktop", 0.05, 0)
	spec := Spec{Site: e.Name, Scale: e.Scale}
	checkTwins(t, nil, spec, "render", JobKey(spec), e)
}

// TestTwinForwardPassFailureLeavesShareEmpty: a holder whose forward pass
// is canceled leaves the share without one, so the next holder computes
// it, and the holder after that takes it from the share.
func TestTwinForwardPassFailureLeavesShareEmpty(t *testing.T) {
	m := &Manager{} // no store
	sh := &traceShare{t: trace.New()}
	canceled := core.NewProfiler(sh.t)
	canceled.Opts.Canceled = func() bool { return true }
	if err := m.forward(sh, canceled, ""); !errors.Is(err, slicer.ErrCanceled) || sh.deps != nil {
		t.Fatalf("canceled forward pass: err %v, share holds %v; want ErrCanceled and none", err, sh.deps)
	}
	next := core.NewProfiler(sh.t)
	if err := m.forward(sh, next, ""); err != nil || next.Deps == nil || sh.deps != next.Deps {
		t.Fatalf("next holder: err %v; want it to compute the pass and leave it in the share", err)
	}
	last := core.NewProfiler(sh.t)
	if err := m.forward(sh, last, ""); err != nil || last.Deps != sh.deps {
		t.Fatalf("last holder: err %v; want the share's forward pass", err)
	}
}

// TestCanceledObtainerLeavesTwinDone: canceling the job that is rendering a
// shared trace ends that job canceled; its twin, waiting for the trace,
// still finishes with the pinned digest.
func TestCanceledObtainerLeavesTwinDone(t *testing.T) {
	e := goldenEntry(t, "amazon-desktop", 0.05, 0)
	m := New(Config{Workers: 2, Store: openStore(t)})
	defer m.Close()
	obtaining := make(chan string, 1)
	resume := make(chan struct{})
	var once sync.Once
	gateObtain(m, 2, func(spec Spec) {
		once.Do(func() {
			obtaining <- spec.Criteria
			<-resume
		})
	})
	ids := map[string]string{}
	for _, c := range []string{"pixels", "syscalls"} {
		id, err := m.Submit(Spec{Site: e.Name, Scale: e.Scale, Criteria: c})
		if err != nil {
			t.Fatal(err)
		}
		ids[c] = id
	}
	crit := <-obtaining // its twin holds the share and waits
	if !m.Cancel(ids[crit]) {
		t.Fatalf("Cancel of the obtaining job %s returned false", ids[crit])
	}
	close(resume)
	waitStatus(t, m, ids[crit], StatusCanceled)
	twin, want := ids["syscalls"], e.Syscalls
	if crit == "syscalls" {
		twin, want = ids["pixels"], e.Pixels
	}
	waitStatus(t, m, twin, StatusDone)
	if res, _ := m.Result(twin); res.SliceDigest != want {
		t.Fatalf("twin slice %s, golden %s", res.SliceDigest, want)
	}
}
