package obs

import (
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"
)

// fakeClock is a deterministic Clock: every Now() advances by step.
type fakeClock struct {
	mu   sync.Mutex
	now  time.Time
	step time.Duration
}

func newFakeClock(step time.Duration) *fakeClock {
	return &fakeClock{now: time.Unix(1000, 0), step: step}
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	t := c.now
	c.now = c.now.Add(c.step)
	return t
}

func TestSpanLifecycleAndParentage(t *testing.T) {
	tr := New(64, newFakeClock(time.Millisecond))
	tr.Seed(1)

	root := tr.Root("job")
	root.Set("site", "maps")
	child := root.Child("render")
	child.Event("styled", Attr{K: "rules", V: "12"})
	child.End()
	root.End()

	spans := tr.ForTrace(root.TraceID())
	if len(spans) != 2 {
		t.Fatalf("got %d spans, want 2", len(spans))
	}
	// Oldest-first by start: root started before child.
	if spans[0].Name != "job" || spans[1].Name != "render" {
		t.Fatalf("order = %s, %s", spans[0].Name, spans[1].Name)
	}
	r, c := spans[0], spans[1]
	if r.Parent != "" {
		t.Fatalf("root has parent %q", r.Parent)
	}
	if c.Parent != r.ID {
		t.Fatalf("child parent %q != root id %q", c.Parent, r.ID)
	}
	if c.Trace != r.Trace || len(r.Trace) != 32 || len(r.ID) != 16 {
		t.Fatalf("id shapes wrong: trace=%q span=%q", r.Trace, r.ID)
	}
	if r.DurMs <= 0 || c.DurMs <= 0 {
		t.Fatalf("durations not stamped: root=%v child=%v", r.DurMs, c.DurMs)
	}
	if len(r.Attrs) != 1 || r.Attrs[0] != (Attr{K: "site", V: "maps"}) {
		t.Fatalf("root attrs = %v", r.Attrs)
	}
	if len(c.Events) != 1 || c.Events[0].Name != "styled" {
		t.Fatalf("child events = %v", c.Events)
	}
}

func TestSpanIDsDeterministicUnderSeed(t *testing.T) {
	mk := func() []string {
		tr := New(16, newFakeClock(time.Millisecond))
		tr.Seed(42)
		a := tr.Root("a")
		b := a.Child("b")
		b.End()
		a.End()
		return []string{a.TraceID(), a.Context().Span, b.Context().Span}
	}
	x, y := mk(), mk()
	for i := range x {
		if x[i] != y[i] {
			t.Fatalf("id %d differs across identically-seeded tracers: %q vs %q", i, x[i], y[i])
		}
	}
}

func TestRingBoundedOverwritesOldest(t *testing.T) {
	tr := New(4, newFakeClock(time.Millisecond)) // power of two already
	tr.Seed(7)
	for i := 0; i < 10; i++ {
		tr.Root("s").End()
	}
	got := tr.Snapshot()
	if len(got) != 4 {
		t.Fatalf("ring holds %d spans, want exactly 4", len(got))
	}
	// The survivors must be the newest four (starts strictly increasing on
	// the fake clock).
	for i := 1; i < len(got); i++ {
		if got[i].StartNs <= got[i-1].StartNs {
			t.Fatalf("snapshot not oldest-first: %v", got)
		}
	}
}

func TestMutationAfterEndIsDropped(t *testing.T) {
	tr := New(16, newFakeClock(time.Millisecond))
	s := tr.Root("s")
	s.End()
	s.Set("late", "1")
	s.Event("late-event")
	s.End() // double End must not re-publish
	spans := tr.Snapshot()
	if len(spans) != 1 {
		t.Fatalf("double End published twice: %d spans", len(spans))
	}
	if len(spans[0].Attrs) != 0 || len(spans[0].Events) != 0 {
		t.Fatalf("post-End mutation leaked: %+v", spans[0])
	}
}

func TestNilTracerAndSpanAreInert(t *testing.T) {
	var tr *Tracer
	s := tr.Root("x")
	if s != nil {
		t.Fatal("nil tracer returned a span")
	}
	// All nil-span operations must be no-ops, not panics.
	s.Set("k", "v").Event("e")
	s.Child("c").End()
	s.ChildAt("p", time.Now(), time.Now())
	s.EndErr(nil)
	s.End()
	if s.TraceID() != "" || s.Context().Valid() {
		t.Fatal("nil span leaked identity")
	}
	if got := tr.Snapshot(); got != nil {
		t.Fatalf("nil tracer snapshot = %v", got)
	}
	if got := tr.ForTrace("abc"); got != nil {
		t.Fatalf("nil tracer ForTrace = %v", got)
	}
	h := http.Header{}
	InjectContext(h, (*Span)(nil).Context())
	if len(h) != 0 {
		t.Fatal("nil span injected a header")
	}
}

func TestChildAtSynthesizesPhaseSpans(t *testing.T) {
	clk := newFakeClock(time.Millisecond)
	tr := New(16, clk)
	tr.Seed(3)
	root := tr.Root("slice")
	t0 := time.Unix(2000, 0)
	root.ChildAt("slice.scan", t0, t0.Add(40*time.Millisecond), Attr{K: "segments", V: "4"})
	root.ChildAt("slice.stitch", t0.Add(40*time.Millisecond), t0.Add(50*time.Millisecond))
	root.End()
	spans := tr.ForTrace(root.TraceID())
	if len(spans) != 3 {
		t.Fatalf("got %d spans, want 3", len(spans))
	}
	var scan *SpanData
	for i := range spans {
		if spans[i].Name == "slice.scan" {
			scan = &spans[i]
		}
	}
	if scan == nil {
		t.Fatal("no slice.scan span")
	}
	if scan.DurMs != 40 {
		t.Fatalf("scan dur = %v, want 40", scan.DurMs)
	}
	if scan.Parent != root.Context().Span {
		t.Fatal("synthesized span not parented under root")
	}
}

func TestConcurrentSpansUnderRace(t *testing.T) {
	tr := New(128, nil)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				s := tr.Root("g")
				s.Set("i", "x")
				c := s.Child("c")
				c.Event("e")
				c.End()
				s.End()
				tr.Snapshot()
			}
		}()
	}
	wg.Wait()
	if got := len(tr.Snapshot()); got != 128 {
		t.Fatalf("ring holds %d spans after saturation, want 128", got)
	}
}

func TestRemoteParentsAcrossTracers(t *testing.T) {
	// Two tracers standing in for two nodes: the worker's span must join
	// the coordinator's trace with correct parentage.
	co := New(16, newFakeClock(time.Millisecond))
	co.Seed(1)
	wk := New(16, newFakeClock(time.Millisecond))
	wk.Seed(99)

	route := co.Root("route")
	h := http.Header{}
	InjectContext(h, route.Context())
	sc, ok := Extract(h)
	if !ok {
		t.Fatal("extract failed")
	}
	job := wk.Remote(sc, "job")
	job.End()
	route.End()

	if job.TraceID() != route.TraceID() {
		t.Fatalf("trace split across the hop: %q vs %q", job.TraceID(), route.TraceID())
	}
	ws := wk.ForTrace(route.TraceID())
	if len(ws) != 1 || ws[0].Parent != route.Context().Span {
		t.Fatalf("worker span not parented under route: %+v", ws)
	}
}

func TestRemoteInvalidContextDegradesToRoot(t *testing.T) {
	tr := New(16, nil)
	s := tr.Remote(SpanContext{}, "job")
	if s.Context().Trace == "" {
		t.Fatal("no trace minted")
	}
	s.End()
	if got := tr.Snapshot(); len(got) != 1 || got[0].Parent != "" {
		t.Fatalf("degraded span not a root: %+v", got)
	}
}

func TestJSONLRoundTrip(t *testing.T) {
	tr := New(16, newFakeClock(time.Millisecond))
	tr.Seed(5)
	s := tr.Root("job")
	s.Set("k", "v")
	s.End()
	var sb strings.Builder
	if err := WriteJSONL(&sb, tr.Snapshot()); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	if len(lines) != 1 {
		t.Fatalf("got %d JSONL lines, want 1", len(lines))
	}
	if !strings.Contains(lines[0], `"name":"job"`) || !strings.Contains(lines[0], `"k":"k"`) {
		t.Fatalf("line = %s", lines[0])
	}
}
