// Package metrics is the lightweight instrumentation layer of the slicing
// service: atomic counters and gauges plus fixed-bucket histograms
// (a scraper estimates percentiles from the buckets), collected in a named
// registry that renders a
// deterministic Prometheus text exposition (format version 0.0.4) for the
// /metrics endpoint. It is
// dependency-free on purpose — the service, the store, and the daemon all
// publish through it without pulling in an external metrics stack.
package metrics

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing value.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a value that can move in both directions.
type Gauge struct{ v atomic.Int64 }

// Set stores n.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add moves the gauge by n (negative to decrease) and returns the new
// value.
func (g *Gauge) Add(n int64) int64 { return g.v.Add(n) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// SetMax raises the gauge to n if n is greater — a lock-free high-water
// mark (used for peak worker concurrency).
func (g *Gauge) SetMax(n int64) {
	for {
		cur := g.v.Load()
		if n <= cur || g.v.CompareAndSwap(cur, n) {
			return
		}
	}
}

// LatencyBuckets are the default histogram bounds for millisecond
// latencies, exponential from 1ms to 10s.
var LatencyBuckets = []float64{1, 2, 5, 10, 25, 50, 100, 250, 500, 1000, 2500, 5000, 10000}

// Histogram counts observations in fixed buckets. WriteText exposes the
// cumulative bucket counts, from which a scraper estimates quantiles.
type Histogram struct {
	mu     sync.Mutex
	bounds []float64 // ascending upper bounds; an implicit +Inf bucket follows
	counts []int64   // len(bounds)+1
	sum    float64
	n      int64
	// exemplars holds the latest trace-linked observation per bucket
	// (len(bounds)+1, lazily allocated) — the span/metric linkage: a
	// latency bucket's exposition carries a trace ID whose span tree shows
	// where that latency went.
	exemplars []Exemplar
}

// Exemplar links one observed value to the trace that produced it.
type Exemplar struct {
	TraceID string
	Value   float64
}

func newHistogram(bounds []float64) *Histogram {
	b := make([]float64, len(bounds))
	copy(b, bounds)
	sort.Float64s(b)
	return &Histogram{bounds: b, counts: make([]int64, len(b)+1)}
}

// ObserveExemplar records one sample and, when traceID is non-empty,
// remembers it as the bucket's exemplar — the most recent trace that
// landed there. WriteText exposes exemplars as `# EXEMPLAR` comment
// lines, so a latency spike in a histogram links straight to the span
// tree that explains it (GET /jobs/{id}/trace). NaN samples are dropped:
// a NaN would land in the overflow bucket by accident of comparison
// order and poison the sum forever.
func (h *Histogram) ObserveExemplar(v float64, traceID string) {
	if math.IsNaN(v) {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v)
	h.mu.Lock()
	h.counts[i]++
	h.sum += v
	h.n++
	if traceID != "" {
		if h.exemplars == nil {
			h.exemplars = make([]Exemplar, len(h.bounds)+1)
		}
		h.exemplars[i] = Exemplar{TraceID: traceID, Value: v}
	}
	h.mu.Unlock()
}

// snapshot returns the bucket bounds with their *cumulative* counts (the
// Prometheus _bucket convention: each count includes every bucket below
// it), plus the sum and total count, all under one lock acquisition.
func (h *Histogram) snapshot() (bounds []float64, cum []int64, sum float64, n int64, ex []Exemplar) {
	h.mu.Lock()
	defer h.mu.Unlock()
	bounds = append([]float64(nil), h.bounds...)
	cum = make([]int64, len(h.bounds))
	var running int64
	for i := range h.bounds {
		running += h.counts[i]
		cum[i] = running
	}
	ex = append([]Exemplar(nil), h.exemplars...)
	return bounds, cum, h.sum, h.n, ex
}

// Registry is a named collection of metrics. All lookup methods are
// get-or-create and safe for concurrent use; creating a name twice returns
// the same instrument.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	funcs    map[string]func() int64
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
		funcs:    make(map[string]func() int64),
	}
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it with the given bucket
// bounds on first use (later calls ignore bounds).
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = newHistogram(bounds)
		r.hists[name] = h
	}
	return h
}

// Func registers a callback gauge: f is invoked at exposition time. Useful
// for values owned elsewhere (e.g. artifact-store hit counts).
func (r *Registry) Func(name string, f func() int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.funcs[name] = f
}

// ContentType is the Content-Type for WriteText output: Prometheus text
// exposition format, version 0.0.4.
const ContentType = "text/plain; version=0.0.4"

// SanitizeName maps an arbitrary string onto a valid Prometheus metric
// name ([a-zA-Z_:][a-zA-Z0-9_:]*): every invalid character becomes '_',
// and a leading digit is prefixed with '_'. Used both at exposition time
// and by callers deriving metric names from free-form strings (peer URLs).
func SanitizeName(name string) string {
	if name == "" {
		return "_"
	}
	var b strings.Builder
	b.Grow(len(name) + 1)
	for i, c := range name {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
			b.WriteRune(c)
		case c >= '0' && c <= '9':
			if i == 0 {
				b.WriteByte('_')
			}
			b.WriteRune(c)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// formatLe renders a bucket upper bound for the le label.
func formatLe(bound float64) string {
	return strconv.FormatFloat(bound, 'g', -1, 64)
}

// WriteText renders the registry in Prometheus text exposition format
// (version 0.0.4): each metric family gets a `# TYPE` line followed by its
// samples, families sorted by (sanitized) name so the output is
// deterministic. Counters and gauges are single samples; Func callbacks
// export as gauges; histograms expand to cumulative `_bucket{le="..."}`
// series (ending at le="+Inf"), `_sum`, and `_count`.
func (r *Registry) WriteText(w io.Writer) error {
	type family struct {
		name  string
		typ   string
		lines []string
	}
	r.mu.Lock()
	fams := make([]family, 0, len(r.counters)+len(r.gauges)+len(r.funcs)+len(r.hists))
	for name, c := range r.counters {
		n := SanitizeName(name)
		fams = append(fams, family{n, "counter", []string{fmt.Sprintf("%s %d", n, c.Value())}})
	}
	for name, g := range r.gauges {
		n := SanitizeName(name)
		fams = append(fams, family{n, "gauge", []string{fmt.Sprintf("%s %d", n, g.Value())}})
	}
	for name, f := range r.funcs {
		n := SanitizeName(name)
		fams = append(fams, family{n, "gauge", []string{fmt.Sprintf("%s %d", n, f())}})
	}
	for name, h := range r.hists {
		n := SanitizeName(name)
		bounds, cum, sum, count, ex := h.snapshot()
		lines := make([]string, 0, len(bounds)+3)
		for i, b := range bounds {
			lines = append(lines, fmt.Sprintf("%s_bucket{le=%q} %d", n, formatLe(b), cum[i]))
		}
		lines = append(lines,
			fmt.Sprintf("%s_bucket{le=\"+Inf\"} %d", n, count),
			fmt.Sprintf("%s_sum %.3f", n, sum),
			fmt.Sprintf("%s_count %d", n, count))
		// Exemplars ride as comment lines: the 0.0.4 text format has no
		// native exemplar syntax (that is OpenMetrics), and comments are
		// the one extension every parser must skip. Each line links a
		// bucket to the most recent trace that landed in it.
		for i, e := range ex {
			if e.TraceID == "" {
				continue
			}
			le := "+Inf"
			if i < len(bounds) {
				le = formatLe(bounds[i])
			}
			lines = append(lines, fmt.Sprintf("# EXEMPLAR %s_bucket{le=%q} trace_id=%q %g", n, le, e.TraceID, e.Value))
		}
		fams = append(fams, family{n, "histogram", lines})
	}
	r.mu.Unlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })
	var sb strings.Builder
	for _, f := range fams {
		fmt.Fprintf(&sb, "# TYPE %s %s\n", f.name, f.typ)
		for _, l := range f.lines {
			sb.WriteString(l)
			sb.WriteByte('\n')
		}
	}
	_, err := io.WriteString(w, sb.String())
	return err
}
