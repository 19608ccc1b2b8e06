// Package obs is the observability layer of the slicing service:
// hierarchical spans with W3C-traceparent-style context propagation, so a
// coordinator-routed job yields one causally-linked trace spanning the
// router, the owner's queue, the worker, its store lookups, and the
// profiler's forward and backward passes — a per-request "Table II" for the
// service itself.
//
// The design goals mirror the paper's instrumentation discipline: cheap
// (a handful of allocations per span, zero when tracing is disabled),
// deterministic (span IDs come from a seedable splitmix64 sequence on an
// injectable clock, so tests replay identical traces), and bounded (spans
// land in a fixed-size lock-free ring buffer that overwrites the oldest
// entries instead of growing).
//
// A nil *Tracer and a nil *Span are both valid and inert: every method is
// nil-safe, so call sites are sprinkled unconditionally and the disabled
// path costs one pointer test.
package obs

import (
	"math/rand/v2"
	"sync"
	"sync/atomic"
	"time"
)

// Clock abstracts time so spans are testable on a fake clock. It is
// satisfied by service.Clock (and by anything exposing Now).
type Clock interface{ Now() time.Time }

type systemClock struct{}

func (systemClock) Now() time.Time { return time.Now() }

// Attr is one key/value annotation on a span or event. Values are strings
// on purpose: spans are a wire format (JSONL, /jobs/{id}/trace) first and
// an in-memory structure second.
type Attr struct {
	K string `json:"k"`
	V string `json:"v"`
}

// Event is a point-in-time annotation within a span (a retry, a
// backpressure response, a breaker trip).
type Event struct {
	Name  string `json:"name"`
	AtNs  int64  `json:"at_ns"`
	Attrs []Attr `json:"attrs,omitempty"`
}

// SpanData is the exported form of a finished (or synthesized) span — the
// unit the ring buffer stores, the JSON endpoints serve, and the renderer
// draws. IDs are lower-hex strings: 32 chars of trace ID, 16 of span ID,
// matching the traceparent field widths.
type SpanData struct {
	Trace   string  `json:"trace"`
	ID      string  `json:"span"`
	Parent  string  `json:"parent,omitempty"` // "" for a root span
	Name    string  `json:"name"`
	StartNs int64   `json:"start_ns"`
	DurMs   float64 `json:"dur_ms"`
	Attrs   []Attr  `json:"attrs,omitempty"`
	Events  []Event `json:"events,omitempty"`
}

// SpanContext is the propagated identity of a span: enough to parent a
// child on another node. The zero value is "no context".
type SpanContext struct {
	Trace string
	Span  string
}

// Valid reports whether the context names a real span.
func (sc SpanContext) Valid() bool { return sc.Trace != "" && sc.Span != "" }

// Span is one in-flight span. It is created by Tracer.Root / Tracer.Remote
// / Span.Child, annotated with Set/Event, and published into the tracer's
// ring by End. After End it is immutable; further mutation calls are
// no-ops. All methods are safe on a nil receiver.
type Span struct {
	t  *Tracer
	mu sync.Mutex
	d  SpanData
	// ended guards against mutate-after-publish: the ring hands out *d to
	// concurrent readers, so d must be frozen once published.
	ended bool
}

// Tracer issues spans and records finished ones in a bounded lock-free
// ring buffer (oldest entries are overwritten). The zero capacity rounds
// up to a small default; capacities round up to a power of two.
type Tracer struct {
	clock Clock
	// idState seeds the splitmix64 ID sequence; each ID advances it by the
	// golden-ratio increment. Seedable for deterministic tests; the default
	// is random so two nodes of one cluster never collide span IDs within a
	// shared trace.
	idState atomic.Uint64
	ring    []atomic.Pointer[SpanData]
	head    atomic.Uint64
	mask    uint64
}

// DefaultCapacity is the ring size used when New is given cap <= 0.
const DefaultCapacity = 4096

// New returns a tracer whose ring holds capacity spans (rounded up to a
// power of two). A nil clock uses the system clock.
func New(capacity int, clock Clock) *Tracer {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	size := 1
	for size < capacity {
		size <<= 1
	}
	if clock == nil {
		clock = systemClock{}
	}
	t := &Tracer{clock: clock, ring: make([]atomic.Pointer[SpanData], size), mask: uint64(size - 1)}
	t.idState.Store(rand.Uint64())
	return t
}

// Seed pins the ID sequence for deterministic tests.
func (t *Tracer) Seed(s uint64) { t.idState.Store(s) }

// nextID draws the next splitmix64 output. Lock-free: the state advances
// atomically, the mix is pure.
func (t *Tracer) nextID() uint64 {
	x := t.idState.Add(0x9E3779B97F4A7C15)
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	return x ^ (x >> 31)
}

const hexDigits = "0123456789abcdef"

// hexID renders n 64-bit words as one lower-hex string in a single
// allocation (hot path: every span mints at least one ID).
func hexID(words ...uint64) string {
	b := make([]byte, 16*len(words))
	for w, x := range words {
		for i := 15; i >= 0; i-- {
			b[w*16+i] = hexDigits[x&0xf]
			x >>= 4
		}
	}
	return string(b)
}

// Root starts a span at the top of a brand-new trace.
func (t *Tracer) Root(name string) *Span {
	if t == nil {
		return nil
	}
	return t.start(hexID(t.nextID(), t.nextID()), "", name)
}

// Remote starts a span whose parent lives on another node (or in another
// component), identified by a propagated SpanContext. An invalid context
// degrades to Root.
func (t *Tracer) Remote(sc SpanContext, name string) *Span {
	if t == nil {
		return nil
	}
	if !sc.Valid() {
		return t.Root(name)
	}
	return t.start(sc.Trace, sc.Span, name)
}

func (t *Tracer) start(trace, parent, name string) *Span {
	s := &Span{t: t}
	s.d = SpanData{
		Trace:   trace,
		ID:      hexID(t.nextID()),
		Parent:  parent,
		Name:    name,
		StartNs: t.clock.Now().UnixNano(),
	}
	return s
}

// publish commits a finished span to the ring, overwriting the oldest
// entry when full. Lock-free: one atomic fetch-add claims a slot, one
// atomic store fills it.
func (t *Tracer) publish(d *SpanData) {
	i := t.head.Add(1) - 1
	t.ring[i&t.mask].Store(d)
}

// Snapshot copies every span currently in the ring, oldest-first by start
// time. The copies are safe to mutate.
func (t *Tracer) Snapshot() []SpanData {
	if t == nil {
		return nil
	}
	out := make([]SpanData, 0, len(t.ring))
	for i := range t.ring {
		if d := t.ring[i].Load(); d != nil {
			out = append(out, *d)
		}
	}
	sortSpans(out)
	return out
}

// ForTrace returns the recorded spans of one trace, oldest-first. Spans
// evicted by the ring are simply absent — the ring bounds memory, not
// history.
func (t *Tracer) ForTrace(traceID string) []SpanData {
	if t == nil || traceID == "" {
		return nil
	}
	var out []SpanData
	for i := range t.ring {
		if d := t.ring[i].Load(); d != nil && d.Trace == traceID {
			out = append(out, *d)
		}
	}
	sortSpans(out)
	return out
}

// Sort orders spans oldest-first (start time, then span ID) — the order
// Snapshot and ForTrace already return; callers merging spans from
// several tracers (the coordinator joining its own spans with a worker's)
// use it to restore the invariant.
func Sort(spans []SpanData) { sortSpans(spans) }

func sortSpans(spans []SpanData) {
	// Insertion sort: snapshots are small (ring-bounded) and usually almost
	// sorted already; avoids pulling in sort's interface allocations.
	for i := 1; i < len(spans); i++ {
		for j := i; j > 0 && less(&spans[j], &spans[j-1]); j-- {
			spans[j], spans[j-1] = spans[j-1], spans[j]
		}
	}
}

func less(a, b *SpanData) bool {
	if a.StartNs != b.StartNs {
		return a.StartNs < b.StartNs
	}
	return a.ID < b.ID
}

// Child starts a sub-span of s in the same trace.
func (s *Span) Child(name string) *Span {
	if s == nil {
		return nil
	}
	return s.t.start(s.d.Trace, s.d.ID, name)
}

// ChildAt records an already-elapsed sub-span with explicit bounds and
// publishes it immediately, for intervals measured before a span could be
// opened — the service's queue wait, which ends when a worker picks the
// job up.
func (s *Span) ChildAt(name string, start, end time.Time, attrs ...Attr) {
	if s == nil {
		return
	}
	d := &SpanData{
		Trace:   s.d.Trace,
		ID:      hexID(s.t.nextID()),
		Parent:  s.d.ID,
		Name:    name,
		StartNs: start.UnixNano(),
		DurMs:   float64(end.Sub(start)) / float64(time.Millisecond),
		Attrs:   attrs,
	}
	s.t.publish(d)
}

// Set annotates the span, returning it for chaining.
func (s *Span) Set(key, val string) *Span {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	if !s.ended {
		s.d.Attrs = append(s.d.Attrs, Attr{K: key, V: val})
	}
	s.mu.Unlock()
	return s
}

// Event records a point-in-time annotation at the tracer's current clock.
func (s *Span) Event(name string, attrs ...Attr) {
	if s == nil {
		return
	}
	at := s.t.clock.Now().UnixNano()
	s.mu.Lock()
	if !s.ended {
		s.d.Events = append(s.d.Events, Event{Name: name, AtNs: at, Attrs: attrs})
	}
	s.mu.Unlock()
}

// End stamps the duration and publishes the span to the ring. Safe to call
// more than once; only the first call publishes.
func (s *Span) End() {
	if s == nil {
		return
	}
	now := s.t.clock.Now()
	s.mu.Lock()
	if s.ended {
		s.mu.Unlock()
		return
	}
	s.ended = true
	s.d.DurMs = float64(now.UnixNano()-s.d.StartNs) / float64(time.Millisecond)
	d := &s.d
	s.mu.Unlock()
	s.t.publish(d)
}

// EndErr annotates the span with the error (when non-nil) and ends it.
func (s *Span) EndErr(err error) {
	if s == nil {
		return
	}
	if err != nil {
		s.Set("error", err.Error())
	}
	s.End()
}

// Context returns the span's propagation identity (zero for nil spans).
func (s *Span) Context() SpanContext {
	if s == nil {
		return SpanContext{}
	}
	return SpanContext{Trace: s.d.Trace, Span: s.d.ID}
}

// TraceID returns the span's trace ID ("" for nil spans).
func (s *Span) TraceID() string {
	if s == nil {
		return ""
	}
	return s.d.Trace
}
