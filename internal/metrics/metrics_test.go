package metrics

import (
	"math"
	"sort"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeConcurrent(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("ops")
	g := r.Gauge("depth")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Inc()
				g.Add(1)
				g.Add(-1)
			}
		}()
	}
	wg.Wait()
	if c.Value() != 8000 {
		t.Fatalf("counter = %d, want 8000", c.Value())
	}
	if g.Value() != 0 {
		t.Fatalf("gauge = %d, want 0", g.Value())
	}
	if r.Counter("ops") != c {
		t.Fatal("second lookup returned a different counter")
	}
}

func TestGaugeSetMax(t *testing.T) {
	var g Gauge
	g.SetMax(5)
	g.SetMax(3)
	if g.Value() != 5 {
		t.Fatalf("SetMax high-water = %d, want 5", g.Value())
	}
	g.SetMax(9)
	if g.Value() != 9 {
		t.Fatalf("SetMax high-water = %d, want 9", g.Value())
	}
}

func TestWriteTextDeterministic(t *testing.T) {
	r := NewRegistry()
	r.Counter("b_counter").Inc()
	r.Counter("b_counter").Inc()
	r.Gauge("a_gauge").Set(7)
	r.Func("c_func", func() int64 { return 42 })
	r.Histogram("lat_ms", LatencyBuckets).ObserveExemplar(3, "")
	var sb1, sb2 strings.Builder
	if err := r.WriteText(&sb1); err != nil {
		t.Fatal(err)
	}
	if err := r.WriteText(&sb2); err != nil {
		t.Fatal(err)
	}
	if sb1.String() != sb2.String() {
		t.Fatal("two expositions of the same registry differ")
	}
	out := sb1.String()
	for _, want := range []string{
		"# TYPE a_gauge gauge", "a_gauge 7",
		"# TYPE b_counter counter", "b_counter 2",
		"# TYPE c_func gauge", "c_func 42",
		"# TYPE lat_ms histogram",
		`lat_ms_bucket{le="1"} 0`,
		`lat_ms_bucket{le="5"} 1`,
		`lat_ms_bucket{le="+Inf"} 1`,
		"lat_ms_sum 3.000", "lat_ms_count 1",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
	// Families come out sorted by name.
	var families []string
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "# TYPE ") {
			families = append(families, strings.Fields(line)[2])
		}
	}
	if !sort.StringsAreSorted(families) {
		t.Fatalf("families not sorted: %v", families)
	}
}

func TestWriteTextPrometheusShape(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h", []float64{10, 20})
	h.ObserveExemplar(5, "")
	h.ObserveExemplar(15, "")
	h.ObserveExemplar(100, "") // overflow bucket
	var sb strings.Builder
	if err := r.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	// Bucket counts are cumulative and +Inf equals the total count.
	for _, want := range []string{
		`h_bucket{le="10"} 1`,
		`h_bucket{le="20"} 2`,
		`h_bucket{le="+Inf"} 3`,
		"h_count 3",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestSanitizeName(t *testing.T) {
	cases := map[string]string{
		"jobs_done":              "jobs_done",
		"http://127.0.0.1:8078":  "http:__127_0_0_1:8078",
		"9lives":                 "_9lives",
		"":                       "_",
		"a-b.c d":                "a_b_c_d",
		"already:colons_allowed": "already:colons_allowed",
	}
	for in, want := range cases {
		if got := SanitizeName(in); got != want {
			t.Errorf("SanitizeName(%q) = %q, want %q", in, got, want)
		}
	}
}

// NaN observations are dropped instead of poisoning the sum and the
// overflow bucket.
func TestObserveNaNIgnored(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h", []float64{10})
	exposition := func() string {
		var sb strings.Builder
		if err := r.WriteText(&sb); err != nil {
			t.Fatal(err)
		}
		return sb.String()
	}
	h.ObserveExemplar(math.NaN(), "")
	if out := exposition(); !strings.Contains(out, "h_count 0\n") || !strings.Contains(out, "h_sum 0.000\n") ||
		!strings.Contains(out, `h_bucket{le="+Inf"} 0`) {
		t.Fatalf("NaN observation recorded:\n%s", out)
	}
	h.ObserveExemplar(5, "")
	if out := exposition(); !strings.Contains(out, "h_count 1\n") || !strings.Contains(out, "h_sum 5.000\n") {
		t.Fatalf("histogram poisoned after NaN:\n%s", out)
	}
}

// Exemplars: ObserveExemplar links a bucket to the trace that most
// recently landed in it, and WriteText exposes the linkage as # EXEMPLAR
// comment lines (format-safe: 0.0.4 parsers skip comments).
func TestHistogramExemplars(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat_ms", []float64{10, 100})
	h.ObserveExemplar(5, "aaaa0000aaaa0000aaaa0000aaaa0000")
	h.ObserveExemplar(7, "bbbb0000bbbb0000bbbb0000bbbb0000") // same bucket: latest wins
	h.ObserveExemplar(500, "cccc0000cccc0000cccc0000cccc0000")
	h.ObserveExemplar(50, "") // no trace: bucket keeps no exemplar

	var sb strings.Builder
	if err := r.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		`# EXEMPLAR lat_ms_bucket{le="10"} trace_id="bbbb0000bbbb0000bbbb0000bbbb0000" 7`,
		`# EXEMPLAR lat_ms_bucket{le="+Inf"} trace_id="cccc0000cccc0000cccc0000cccc0000" 500`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "aaaa0000") {
		t.Fatal("overwritten exemplar still exposed")
	}
	if strings.Contains(out, `le="100"} trace_id`) {
		t.Fatal("traceless bucket grew an exemplar")
	}
	// Exemplar comments must not disturb the samples themselves.
	if !strings.Contains(out, `lat_ms_bucket{le="+Inf"} 4`) || !strings.Contains(out, "lat_ms_count 4") {
		t.Fatalf("sample lines wrong:\n%s", out)
	}
}
