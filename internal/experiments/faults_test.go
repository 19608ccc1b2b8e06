package experiments

import (
	"strings"
	"testing"

	"webslice/internal/analysis"
	"webslice/internal/sites"
)

// TestFaultyLoadDegradesGracefully is the experiment's core guarantee, on
// every site `repro -exp faults` runs: a load that loses its stylesheet
// and an image permanently still completes, composites, and produces a
// non-empty pixel slice, with the failures surfaced in Degraded rather
// than Errors. The table has a clean and a faulty row per site.
func TestFaultyLoadDegradesGracefully(t *testing.T) {
	if sites.FaultyVariant(sites.AmazonDesktop(sites.Options{Scale: 0.05}), 7).Faults == nil {
		t.Fatal("FaultyVariant attached no fault plan")
	}
	pairs, err := ExecuteFaultsWith(Config{Scale: 0.05, Workers: 2}, 7)
	if err != nil {
		t.Fatalf("faulty load must complete, got: %v", err)
	}
	for _, p := range pairs {
		r, w := p.Faulty, p.FaultyWaste
		if len(r.Browser.Errors) != 0 {
			t.Fatalf("%s: degradation must not surface as errors: %v", p.Name, r.Browser.Errors)
		}
		var sawSheet, sawImage bool
		for _, d := range r.Browser.Degraded {
			if strings.HasPrefix(d, "stylesheet ") {
				sawSheet = true
			}
			if strings.HasPrefix(d, "image ") {
				sawImage = true
			}
		}
		if !sawSheet || !sawImage {
			t.Errorf("%s: expected a degraded stylesheet and image, got: %v", p.Name, r.Browser.Degraded)
		}
		if r.Pixel.Total == 0 || r.Pixel.Percent() <= 0 {
			t.Fatalf("%s: faulty load must still produce a non-empty pixel slice, got %.1f%% of %d",
				p.Name, r.Pixel.Percent(), r.Pixel.Total)
		}
		if w.ErrorPathInstr == 0 {
			t.Errorf("%s: a faulty run must emit net/error instructions", p.Name)
		}
		if w.OutOfSlice == 0 {
			t.Errorf("%s: retry/timeout work should fall outside the pixel slice", p.Name)
		}
		if l := r.Browser.Loader; l.Retries == 0 || l.Failures == 0 {
			t.Errorf("%s: loader stats missing: retries=%d failures=%d", p.Name, l.Retries, l.Failures)
		}
	}
	if rows := len(FaultsTable(pairs, 7).Rows); len(pairs) != 2 || rows != 2*len(pairs) {
		t.Errorf("%d pairs and %d table rows, want 2 and 4", len(pairs), rows)
	}
}

// TestCleanRunHasNoErrorPath pins the baseline: without a fault plan the
// net/error namespace stays empty, so the faults table's clean column is a
// true zero.
func TestCleanRunHasNoErrorPath(t *testing.T) {
	r, err := Execute(sites.AmazonDesktop(sites.Options{Scale: 0.05}))
	if err != nil {
		t.Fatal(err)
	}
	if w := analysis.FaultWaste(r.Trace, r.Pixel); w.ErrorPathInstr != 0 {
		t.Errorf("clean load emitted %d net/error instructions", w.ErrorPathInstr)
	}
	if len(r.Browser.Degraded) != 0 {
		t.Errorf("clean load degraded: %v", r.Browser.Degraded)
	}
}
