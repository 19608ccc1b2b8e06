package main

import (
	"errors"
	"math"
	"math/rand/v2"
	"testing"
	"time"

	"webslice/internal/experiments"
	"webslice/internal/obs"
)

func TestP90NeedsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{{100, 90}, {101, 91}, {250, 225}, {1000, 900}} {
		xs := make([]float64, tc.n)
		for i := range xs {
			xs[i] = float64(i + 1)
		}
		rand.New(rand.NewPCG(1, 2)).Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
		got, err := p90(xs)
		if err != nil || got != tc.want {
			t.Errorf("p90 of 1..%d = %v, %v; want %v", tc.n, got, err, tc.want)
		}
		above := 0
		for _, x := range xs {
			if x > got {
				above++
			}
		}
		if above < minTail {
			t.Errorf("p90 of %d samples leaves %d beyond it", tc.n, above)
		}
	}
	for _, n := range []int{0, 1, 9, 50, 99} {
		if _, err := p90(make([]float64, n)); !errors.Is(err, errThinTail) {
			t.Errorf("p90 of %d samples: err = %v, want errThinTail", n, err)
		}
	}
}

func TestMedian(t *testing.T) {
	xs := []float64{5, 1, 3}
	if got := median(xs); got != 3 {
		t.Errorf("median = %v, want 3", got)
	}
	if xs[0] != 5 {
		t.Error("median reordered its input")
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v, want 2.5", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("empty median = %v, want 0", got)
	}
}

// manualClock is a span clock the test moves by hand.
type manualClock struct{ now time.Time }

func (c *manualClock) Now() time.Time                  { return c.now }
func (c *manualClock) advance(ms float64)              { c.now = c.now.Add(msDur(ms)) }
func msDur(ms float64) time.Duration                   { return time.Duration(ms * float64(time.Millisecond)) }
func near(a, b float64) bool                           { return math.Abs(a-b) < 1e-6 }
func at(c *manualClock, ms float64) time.Time          { return c.now.Add(msDur(ms)) }
func selfOf(spans []obs.SpanData, name string) float64 { return selfTimes(spans)[spans[0].Trace][name] }

func TestSelfTimeNested(t *testing.T) {
	clock := &manualClock{now: time.Unix(1000, 0)}
	tr := obs.New(64, clock)
	job := tr.Root("job") // 0..100
	clock.advance(10)
	a := job.Child("attempt") // 10..60
	clock.advance(5)
	r := a.Child("render") // 15..35
	clock.advance(20)
	r.End()
	clock.advance(25)
	a.End()
	clock.advance(40)
	job.End()
	spans := tr.Snapshot()
	for name, want := range map[string]float64{"job": 50, "attempt": 30, "render": 20} {
		if got := selfOf(spans, name); !near(got, want) {
			t.Errorf("self(%s) = %v, want %v", name, got, want)
		}
	}
}

// TestSelfTimePhasesSynthesizedBackToFront mirrors how the service records
// the backward pass: after the slice span's work, its phases are published
// with ChildAt, laid back to front from the pass's end. Overlapping or
// overhanging phases must not drive the parent's self time negative.
func TestSelfTimePhasesSynthesizedBackToFront(t *testing.T) {
	for _, tc := range []struct {
		name     string
		phases   []float64 // tally, stitch, scan (ms), laid back to front
		wantSelf float64
	}{
		{"phases inside the span", []float64{8, 30, 20}, 100 - 58},
		{"phases longer than the span", []float64{10, 30, 70}, 0},
	} {
		clock := &manualClock{now: time.Unix(2000, 0)}
		tr := obs.New(64, clock)
		slice := tr.Root("slice")
		clock.advance(100)
		end := clock.now
		names := []string{"slice.tally", "slice.stitch", "slice.scan"}
		for i, ms := range tc.phases {
			start := end.Add(-msDur(ms))
			slice.ChildAt(names[i], start, end)
			end = start
		}
		slice.End()
		spans := tr.Snapshot()
		if got := selfOf(spans, "slice"); !near(got, tc.wantSelf) {
			t.Errorf("%s: self(slice) = %v, want %v", tc.name, got, tc.wantSelf)
		}
		if got := selfOf(spans, "slice.scan"); !near(got, tc.phases[2]) {
			t.Errorf("%s: self(slice.scan) = %v, want its duration %v", tc.name, got, tc.phases[2])
		}
	}
}

// TestSelfTimeMergedAcrossNodes joins a coordinator's route span with the
// owner's job span recorded by another tracer, as a cluster run does: the
// job span is a child of route but outlives it, so only the overlap counts
// against route.
func TestSelfTimeMergedAcrossNodes(t *testing.T) {
	clock := &manualClock{now: time.Unix(3000, 0)}
	coord, worker := obs.New(64, clock), obs.New(64, clock)
	route := coord.Root("route") // 0..10
	clock.advance(2)
	ps := route.Child("peer.submit") // 2..9
	clock.advance(3)
	job := worker.Remote(route.Context(), "job") // 5..200
	js := job.Child("journal.submit")            // 5..8
	clock.advance(3)
	js.End()
	clock.advance(1)
	ps.End()
	clock.advance(1)
	route.End()
	job.ChildAt("attempt", at(clock, 0), at(clock, 150)) // 10..160
	clock.advance(190)
	job.End()

	spans := append(coord.Snapshot(), worker.Snapshot()...)
	selfs := selfTimes(spans)
	if len(selfs) != 1 {
		t.Fatalf("merged spans fall in %d traces, want 1", len(selfs))
	}
	for name, want := range map[string]float64{
		"route":       10 - 8, // peer.submit 2..9 and job 5..10 cover 2..10
		"peer.submit": 7,
		"job":         195 - 3 - 150,
	} {
		if got := selfOf(spans, name); !near(got, want) {
			t.Errorf("self(%s) = %v, want %v", name, got, want)
		}
	}
}

func TestLayerNameSplitsStoreKinds(t *testing.T) {
	clock := &manualClock{now: time.Unix(4000, 0)}
	tr := obs.New(64, clock)
	root := tr.Root("attempt")
	for _, kind := range []string{"deps", "slice"} {
		s := root.Child("store.get").Set("kind", kind)
		clock.advance(2)
		s.End()
	}
	root.End()
	selfs := selfTimes(tr.Snapshot())[root.TraceID()]
	if !near(selfs["store.get/deps"], 2) || !near(selfs["store.get/slice"], 2) || !near(selfs["attempt"], 0) {
		t.Errorf("self times = %v", selfs)
	}
}

func TestParseStatCPU(t *testing.T) {
	// utime 1234 and stime 56 are fields 14 and 15; the command name holds
	// a space and a ')' to test counting from the last ')'.
	stat := "4242 (web) sliced) S 1 4242 4242 0 -1 4194560 1000 0 0 0 1234 56 0 0 20 0 7 0 100 1000000 2000 18446744073709551615\n"
	got, err := parseStatCPU(stat)
	if err != nil || got != 1290 {
		t.Errorf("parseStatCPU = %d, %v; want 1290", got, err)
	}
	for _, bad := range []string{"", "4242 web S 1", "4242 (web) S 1 2 3", "4242 (web) S 1 4242 4242 0 -1 4194560 1000 0 0 0 x 56 0"} {
		if _, err := parseStatCPU(bad); err == nil {
			t.Errorf("parseStatCPU(%q) accepted", bad)
		}
	}
}

func TestParseHostCPU(t *testing.T) {
	stat := "cpu  375281 0 38894 3063988 1090 0 2749 25405 0 0\ncpu0 187000 0 19000 1530000 500 0 1300 12700 0 0\n"
	total, steal, err := parseHostCPU(stat)
	if err != nil || total != 3507407 || steal != 25405 {
		t.Errorf("parseHostCPU = %d, %d, %v; want 3507407, 25405", total, steal, err)
	}
	for _, bad := range []string{"", "cpu0 1 2 3 4 5 6 7 8\n", "cpu 1 2 3 4 5 6 7\n", "cpu 1 2 3 4 5 6 7 x\n"} {
		if _, _, err := parseHostCPU(bad); err == nil {
			t.Errorf("parseHostCPU(%q) accepted", bad)
		}
	}
}

func TestParseVmHWM(t *testing.T) {
	status := "Name:\twebsliced\nVmPeak:\t 1500000 kB\nVmHWM:\t  651892 kB\nVmRSS:\t  600000 kB\n"
	got, err := parseVmHWM(status)
	if err != nil || got != 651892 {
		t.Errorf("parseVmHWM = %d, %v; want 651892", got, err)
	}
	for _, bad := range []string{"Name:\tx\n", "VmHWM:\t 12 MB\n", "VmHWM:\n"} {
		if _, err := parseVmHWM(bad); err == nil {
			t.Errorf("parseVmHWM(%q) accepted", bad)
		}
	}
}

func TestParseMetrics(t *testing.T) {
	text := "# TYPE store_hits gauge\nstore_hits 12\njobs_retried 0\nslice_ms_bucket{le=\"10\"} 3\nslice_ms_sum 41.500\n# EXEMPLAR slice_ms_bucket{le=\"10\"} trace_id=\"ab\" 3\n"
	m := parseMetrics(text)
	if m["store_hits"] != 12 || m["slice_ms_sum"] != 41.5 || len(m) != 3 {
		t.Errorf("parseMetrics = %v", m)
	}
}

var testGolden = []experiments.GoldenEntry{
	{Name: "a", Scale: 0.05}, {Name: "b", Scale: 0.05}, {Name: "c", Scale: 0.05}, {Name: "d", Scale: 0.05},
}

// plan returns the first n timed jobs of a workload.
func plan(t *testing.T, name string, seed uint64, n int) []job {
	t.Helper()
	w, err := workloadByName(name)
	if err != nil {
		t.Fatal(err)
	}
	pairs := sitePairs(testGolden)
	out := make([]job, n)
	for i := range out {
		out[i] = planJob(w, seed, pairs, i)
	}
	return out
}

func equalJobs(a, b []job) bool {
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return len(a) == len(b)
}

func TestPlanSameSeedSameSequence(t *testing.T) {
	for _, w := range workloads {
		a, b := plan(t, w.name, 7, 300), plan(t, w.name, 7, 300)
		if !equalJobs(a, b) {
			t.Errorf("%s: seed 7 gave two different job sequences", w.name)
		}
		if equalJobs(a, plan(t, w.name, 8, 300)) && w.name != "upload-cold" {
			t.Errorf("%s: seeds 7 and 8 gave the same job sequence", w.name)
		}
	}
}

func TestInputsAreOneSetInSeedOrder(t *testing.T) {
	a, b := inputSites(7, 60, clusterLag), inputSites(8, 60, clusterLag)
	for k := 0; k < clusterLag; k++ {
		if a[k] != universeSite(k) || b[k] != universeSite(k) {
			t.Errorf("warm-up input %d differs between seeds", k)
		}
	}
	count := map[uint64]int{}
	for k := range a {
		count[a[k]]++
		count[b[k]]--
	}
	for s, c := range count {
		if c != 0 {
			t.Errorf("site %d is uploaded by only one of seeds 7 and 8", s)
		}
	}
	if len(count) != 60 {
		t.Errorf("60 inputs hold %d distinct sites", len(count))
	}
	same, again := true, inputSites(7, 60, clusterLag)
	for k := range a {
		same = same && a[k] == b[k]
		if a[k] != again[k] {
			t.Fatal("seed 7 gave two different input orders")
		}
	}
	if same {
		t.Error("seeds 7 and 8 upload in the same order")
	}
}

func TestWindowJobs(t *testing.T) {
	for _, w := range workloads {
		for _, secs := range []int{1, 20, 60} {
			n := windowJobs(w, secs)
			if n < minTimedJobs || n%w.cycle != 0 || float64(n) < w.rate*float64(secs) {
				t.Errorf("%s, %ds: window of %d jobs", w.name, secs, n)
			}
		}
	}
}

func TestPlanMixProportionsHoldAcrossSeeds(t *testing.T) {
	for _, seed := range []uint64{1, 2, 99, 1 << 40} {
		// site-repeat: every cycle of eight sends each (site, criteria) pair once.
		sr := plan(t, "site-repeat", seed, 80)
		for c := 0; c < len(sr); c += 8 {
			seen := map[job]bool{}
			for _, j := range sr[c : c+8] {
				seen[j] = true
			}
			if len(seen) != 8 {
				t.Errorf("seed %d: site-repeat cycle at %d holds %d distinct pairs, want 8", seed, c, len(seen))
			}
		}
		// upload-cold: every job a distinct input the warm-up did not send.
		for i, j := range plan(t, "upload-cold", seed, 200) {
			if j.Kind != kindCold || j.Input != coldWarm+i {
				t.Fatalf("seed %d: upload-cold job %d = %+v", seed, i, j)
			}
		}
		// cluster-mixed: every block of three holds one job of each kind;
		// a repeat trails its trace's first sighting by clusterLag blocks.
		cm := plan(t, "cluster-mixed", seed, 300)
		firstAt := map[int]int{}
		for i := 0; i < clusterLag; i++ {
			firstAt[i] = -clusterLag // first seen in the warm-up pass
		}
		crit := map[int]string{}
		pixels := 0
		for b := 0; b < len(cm)/3; b++ {
			kinds := map[string]int{}
			for i := 3 * b; i < 3*b+3; i++ {
				j := cm[i]
				kinds[j.Kind]++
				switch j.Kind {
				case kindFirstSeen:
					firstAt[j.Input] = b
					crit[j.Input] = j.Criteria
					if j.Criteria == "pixels" {
						pixels++
					}
				case kindRepeatSame, kindRepeatOther:
					fb, ok := firstAt[j.Input]
					if !ok || b-fb < clusterLag {
						t.Fatalf("seed %d: block %d repeats input %d first seen in block %d", seed, b, j.Input, fb)
					}
				}
			}
			if kinds[kindFirstSeen] != 1 || kinds[kindRepeatSame] != 1 || kinds[kindRepeatOther] != 1 {
				t.Fatalf("seed %d: cluster-mixed block %d kinds %v", seed, b, kinds)
			}
		}
		if d := 2*pixels - len(cm)/3; d < -1 || d > 1 {
			t.Errorf("seed %d: %d of %d first-seen traces use pixels", seed, pixels, len(cm)/3)
		}
		for _, j := range cm {
			c, ok := crit[j.Input]
			sameOK := j.Kind != kindRepeatSame || j.Criteria == c
			otherOK := j.Kind != kindRepeatOther || j.Criteria != c
			if ok && !(sameOK && otherOK) {
				t.Fatalf("seed %d: %s of input %d uses %s, first seen with %s", seed, j.Kind, j.Input, j.Criteria, c)
			}
		}
	}
}
