package experiments

import (
	"strings"
	"testing"

	"webslice/internal/analysis"
	"webslice/internal/sites"
)

// TestFaultyLoadDegradesGracefully is the experiment's core guarantee: a load
// that loses its stylesheet and an image permanently still completes,
// composites, and produces a non-empty pixel slice, with the failures
// surfaced in Degraded rather than Errors.
func TestFaultyLoadDegradesGracefully(t *testing.T) {
	b := sites.FaultyVariant(sites.AmazonDesktop(sites.Options{Scale: 0.05}), 7)
	if b.Faults == nil {
		t.Fatal("FaultyVariant attached no fault plan")
	}
	r, err := Execute(b)
	if err != nil {
		t.Fatalf("faulty load must complete, got: %v", err)
	}
	if len(r.Browser.Errors) != 0 {
		t.Fatalf("degradation must not surface as errors: %v", r.Browser.Errors)
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
		t.Errorf("expected a degraded stylesheet and image, got: %v", r.Browser.Degraded)
	}
	if r.Pixel.Total == 0 || r.Pixel.Percent() <= 0 {
		t.Fatalf("faulty load must still produce a non-empty pixel slice, got %.1f%% of %d",
			r.Pixel.Percent(), r.Pixel.Total)
	}
	w := analysis.FaultWaste(r.Trace, r.Pixel)
	if w.ErrorPathInstr == 0 {
		t.Error("a faulty run must emit net/error instructions")
	}
	if w.OutOfSlice == 0 {
		t.Error("retry/timeout work should fall outside the pixel slice")
	}
	if l := r.Browser.Loader; l.Retries == 0 || l.Failures == 0 {
		t.Errorf("loader stats missing: retries=%d failures=%d", l.Retries, l.Failures)
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
