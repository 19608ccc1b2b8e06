package experiments

import (
	"math"
	"strings"
	"testing"

	"webslice/internal/analysis"
	"webslice/internal/sites"
)

const testScale = 0.06

func TestExecuteAndTableII(t *testing.T) {
	runs, err := ExecuteTableIIWith(Config{Scale: testScale, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 4 {
		t.Fatalf("want 4 benchmarks, got %d", len(runs))
	}
	for _, r := range runs {
		if r.Pixel.SliceCount == 0 {
			t.Errorf("%s: empty slice", r.Bench.Name)
		}
		pct := r.Pixel.Percent()
		if pct <= 5 || pct >= 95 {
			t.Errorf("%s: slice %.1f%% not interior", r.Bench.Name, pct)
		}
	}
	tab := TableII(runs)
	out := tab.String()
	for _, want := range []string{"All", "Main", "Compositor", "Rasterizer 1", "Rasterizer 3", "Amazon", "Bing"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table II missing %q:\n%s", want, out)
		}
	}

	// Figure 4 and 5 from the same runs.
	for _, r := range runs {
		chart := Figure4(r)
		if !strings.Contains(chart.String(), "main thread") {
			t.Error("Figure 4 missing main-thread series")
		}
	}
	f5 := Figure5(runs).String()
	if !strings.Contains(f5, "JavaScript") || !strings.Contains(f5, "Compositing") {
		t.Errorf("Figure 5 missing categories:\n%s", f5)
	}

	// Shape claims (EXPERIMENTS.md, Table II and Figure 5), measured at
	// testScale. Only Amazon desktop runs three rasterizer threads.
	for _, r := range runs {
		raster := 0
		for _, th := range r.Trace.Threads {
			if strings.HasPrefix(th.Name, "CompositorTileWorker") && r.Pixel.ByThread[th.ID] > 0 {
				raster++
			}
		}
		if desktop := strings.HasPrefix(r.Bench.Name, "Amazon (desktop"); (raster == 3) != desktop {
			t.Errorf("%s: %d rasterizer threads ran; only Amazon desktop runs three", r.Bench.Name, raster)
		}
	}
	// The load+browse benchmark (Bing) wastes a smaller share on
	// JavaScript than every load-only one: load is the most JS-heavy phase.
	var browse *Run
	for _, r := range runs {
		if strings.Contains(r.Bench.Name, "Browse") {
			browse = r
		}
	}
	if browse == nil {
		t.Fatal("no load+browse benchmark among the Table II runs")
	}
	jsShare := func(r *Run) float64 { return analysis.Categorize(r.Trace, r.Pixel).Share["JavaScript"] }
	for _, r := range runs {
		if r != browse && jsShare(browse) >= jsShare(r) {
			t.Errorf("%s JavaScript share %.1f%% is not below load-only %s's %.1f%%",
				browse.Bench.Name, 100*jsShare(browse), r.Bench.Name, 100*jsShare(r))
		}
	}
	// Figure 4: the all-threads curve stays comparatively flat while the
	// main-thread curve swings much more, over the series Figure4 plots. A
	// main-thread series that counted every thread would be the all-threads
	// one, and the comparison must reject it.
	for _, r := range runs {
		curve := analysis.BackwardCurve(r.Trace, r.Pixel, figure4Points)
		if all, main := curveSpread(curve); main <= all {
			t.Errorf("%s: main-thread curve's standard deviation %.2f is not above all threads' %.2f",
				r.Bench.Name, main, all)
		}
		broken := append([]analysis.CurvePoint(nil), curve...)
		for i := range broken {
			broken[i].MainProcessed, broken[i].MainSliced = broken[i].Processed, broken[i].Sliced
		}
		if all, main := curveSpread(broken); main > all {
			t.Errorf("%s: a main-thread series counting every thread passes (%.2f > %.2f)", r.Bench.Name, main, all)
		}
	}
}

// curveSpread returns the population standard deviations of a Figure 4
// curve's all-threads and main-thread percentages.
func curveSpread(curve []analysis.CurvePoint) (all, main float64) {
	return stdDev(curve, analysis.CurvePoint.AllPct), stdDev(curve, analysis.CurvePoint.MainPct)
}

func stdDev(curve []analysis.CurvePoint, pct func(analysis.CurvePoint) float64) float64 {
	var sum float64
	for _, p := range curve {
		sum += pct(p)
	}
	mean := sum / float64(len(curve))
	var sq float64
	for _, p := range curve {
		sq += (pct(p) - mean) * (pct(p) - mean)
	}
	return math.Sqrt(sq / float64(len(curve)))
}

func TestTableIExperiment(t *testing.T) {
	rows, err := ExecuteTableIWith(Config{Scale: testScale, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("want 3 sites, got %d", len(rows))
	}
	for _, r := range rows {
		if r.Load.TotalBytes == 0 || r.Load.UnusedBytes == 0 {
			t.Errorf("%s: degenerate load usage %+v", r.Name, r.Load)
		}
		// Browsing executes more code: the unused fraction must not grow
		// relative to the same session's total for Amazon (the paper's
		// 58% -> 54%); Bing/Maps download more, so compare percentages.
		if r.LoadAndBrowse.Percent() > r.Load.Percent()+2 {
			t.Errorf("%s: browsing should not increase unused%% (load %.0f%%, browse %.0f%%)",
				r.Name, r.Load.Percent(), r.LoadAndBrowse.Percent())
		}
	}
	// Shape claims (EXPERIMENTS.md, Table I), measured at testScale: at
	// least 40% of every site's JS+CSS bytes go unused at load, and Maps'
	// absolute unused bytes grow while browsing even as its share falls.
	var maps *TableIRow
	for i, r := range rows {
		if p := r.Load.Percent(); p < 40 {
			t.Errorf("%s: %.1f%% of JS+CSS bytes unused at load, want at least 40%%", r.Name, p)
		}
		if r.Name == "Google Maps" {
			maps = &rows[i]
		}
	}
	if maps == nil {
		t.Fatal("no Google Maps row in Table I")
	}
	if maps.LoadAndBrowse.UnusedBytes <= maps.Load.UnusedBytes {
		t.Errorf("Google Maps: unused bytes %d at load, %d after browsing; want them to grow",
			maps.Load.UnusedBytes, maps.LoadAndBrowse.UnusedBytes)
	}
	out := TableI(rows).String()
	if !strings.Contains(out, "Only Load") || !strings.Contains(out, "Load and Browse") {
		t.Errorf("Table I malformed:\n%s", out)
	}
}

func TestFigure2Experiment(t *testing.T) {
	chart, err := Figure2(testScale)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(chart.String(), "utilization") {
		t.Error("Figure 2 missing legend")
	}
}

func TestBingPartialExperiment(t *testing.T) {
	r, err := Execute(sites.Bing(sites.Options{Scale: testScale, Browse: true}))
	if err != nil {
		t.Fatal(err)
	}
	res, err := ExecuteBingPartial(r)
	if err != nil {
		t.Fatal(err)
	}
	if res.LoadInstr <= 0 || res.LoadInstr >= res.FullSessionTotal {
		t.Fatalf("load boundary out of range: %+v", res)
	}
	// Slicing with more criteria (the full session) can only make more of
	// the load-time instructions useful — the paper found +0.8%.
	if res.FullSessionPct+0.01 < res.LoadOnlyPct {
		t.Errorf("full-session slice (%.1f%%) smaller than load-only (%.1f%%)",
			res.FullSessionPct, res.LoadOnlyPct)
	}
	if res.FullSessionPct-res.LoadOnlyPct > 20 {
		t.Errorf("browsing changed load-phase usefulness too much: %.1f%% -> %.1f%%",
			res.LoadOnlyPct, res.FullSessionPct)
	}
}

func TestCriteriaComparisonExperiment(t *testing.T) {
	r, err := Execute(sites.AmazonMobile(sites.Options{Scale: testScale}))
	if err != nil {
		t.Fatal(err)
	}
	cs, err := ExecuteCriteriaComparison([]*Run{r}, 1)
	if err != nil {
		t.Fatal(err)
	}
	c := cs[0]
	if c.PixelOnly != 0 {
		t.Errorf("syscall slice must contain the pixel slice (missing %d records)", c.PixelOnly)
	}
	if c.SyscallPct < c.PixelPct {
		t.Errorf("syscall %.1f%% < pixel %.1f%%", c.SyscallPct, c.PixelPct)
	}
	// §V: the two criteria lead to almost the same slice.
	if c.SyscallPct-c.PixelPct > 15 {
		t.Errorf("criteria diverge too much: pixel %.1f%% vs syscall %.1f%%", c.PixelPct, c.SyscallPct)
	}
}
