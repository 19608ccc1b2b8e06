// Package experiments regenerates every table and figure of the paper's
// evaluation: Table I (unused JS/CSS bytes), Table II (pixel-slice
// percentages per thread), Figure 2 (main-thread CPU utilization while
// browsing), Figure 4 (slicing percentage over the backward pass), Figure 5
// (categorization of unnecessary computations), plus the §V-A Bing
// partial-slice experiment and the pixel-vs-syscall criteria comparison.
// cmd/webslice and the repository benchmarks both call these entry points.
package experiments

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"webslice/internal/analysis"
	"webslice/internal/browser"
	"webslice/internal/core"
	"webslice/internal/report"
	"webslice/internal/sites"
	"webslice/internal/slicer"
	"webslice/internal/trace"
)

// Config tunes how a batch of experiment sessions executes.
type Config struct {
	// Scale is the workload scale (1.0 = calibrated benchmark size).
	Scale float64
	// Workers bounds how many site sessions render and slice concurrently;
	// <= 0 means GOMAXPROCS. Sessions are independent, and results are
	// collected in deterministic (site-list) order regardless of the value.
	Workers int
}

// Timing is the per-stage wall clock of one executed benchmark.
type Timing struct {
	RenderMs  float64 `json:"render_ms"`
	ForwardMs float64 `json:"forward_ms"`
	SliceMs   float64 `json:"slice_ms"`
}

// Run is one executed benchmark: the browser after its session, the trace,
// the pixel-based slice, and the profiler that holds the trace's forward
// pass for further slices.
type Run struct {
	Bench   sites.Benchmark
	Browser *browser.Browser
	Trace   *trace.Trace
	Pixel   *slicer.Result
	Prof    *core.Profiler
	Timing  Timing
}

// Execute runs a benchmark's session, its forward pass, and its pixel slice.
func Execute(b sites.Benchmark) (*Run, error) {
	start := time.Now()
	br := browser.New(b.Site, b.Profile)
	if b.Faults != nil {
		br.Loader.SetFaults(b.Faults)
	}
	br.RunSession()
	if len(br.Errors) > 0 {
		return nil, fmt.Errorf("experiments: %s: %v", b.Name, br.Errors[0])
	}
	renderDone := time.Now()
	p := core.NewProfiler(br.M.Tr)
	p.Opts.ProgressPoints = 160
	if err := p.Forward(); err != nil {
		return nil, fmt.Errorf("experiments: %s: %w", b.Name, err)
	}
	forwardDone := time.Now()
	pix, err := p.Slice(slicer.PixelCriteria{})
	if err != nil {
		return nil, fmt.Errorf("experiments: %s: %w", b.Name, err)
	}
	end := time.Now()
	return &Run{
		Bench: b, Browser: br, Trace: br.M.Tr, Pixel: pix, Prof: p,
		Timing: Timing{
			RenderMs:  ms(renderDone.Sub(start)),
			ForwardMs: ms(forwardDone.Sub(renderDone)),
			SliceMs:   ms(end.Sub(forwardDone)),
		},
	}, nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// forEach runs fn(0..n-1) over a bounded worker pool. Every index runs even
// if an earlier one fails; the lowest-index error is returned so parallel
// runs fail deterministically.
func forEach(workers, n int, fn func(int) error) error {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}
	errs := make([]error, n)
	var next atomic.Int64
	next.Store(-1)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1))
				if i >= n {
					return
				}
				errs[i] = fn(i)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// ExecuteTableIIWith runs the Table II benchmarks over cfg's worker pool,
// returning runs in the site-list order.
func ExecuteTableIIWith(cfg Config) ([]*Run, error) {
	benches := sites.TableII(cfg.Scale)
	out := make([]*Run, len(benches))
	err := forEach(cfg.Workers, len(benches), func(i int) error {
		r, err := Execute(benches[i])
		if err != nil {
			return err
		}
		out[i] = r
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// threadRow describes one Table II thread row.
type threadRow struct {
	label  string
	thread uint8
	nth    int // for rasterizers: 1-based worker index, 0 otherwise
}

// TableII renders the paper's Table II from executed runs: pixel-slice
// percentage and total instructions for all threads and for the main,
// compositor, and rasterizer threads.
func TableII(runs []*Run) *report.Table {
	t := &report.Table{
		Title:   "Table II: Slicing statistics of pixel-based approach (per thread)",
		Headers: []string{"Threads"},
	}
	for _, r := range runs {
		t.Headers = append(t.Headers, r.Bench.Name+" [pixels]", "[total]")
	}
	maxRaster := 0
	for _, r := range runs {
		if n := r.Bench.Profile.RasterWorkers; n > maxRaster {
			maxRaster = n
		}
	}
	rows := []threadRow{
		{"All", 0, -1},
		{"Main", browser.MainThread, 0},
		{"Compositor", browser.CompositorThread, 0},
	}
	for i := 0; i < maxRaster; i++ {
		rows = append(rows, threadRow{fmt.Sprintf("Rasterizer %d", i+1), browser.RasterThreadBase + uint8(i), i + 1})
	}
	for _, row := range rows {
		cells := []string{row.label}
		for _, r := range runs {
			if row.nth == -1 {
				cells = append(cells, report.Pct(r.Pixel.Percent()), report.MInstr(r.Pixel.Total))
				continue
			}
			if row.nth > 0 && row.nth > r.Bench.Profile.RasterWorkers {
				cells = append(cells, "-", "-")
				continue
			}
			cells = append(cells,
				report.Pct(r.Pixel.ThreadPercent(row.thread)),
				report.MInstr(r.Pixel.ByThread[row.thread]))
		}
		t.AddRow(cells...)
	}
	return t
}

// TableIRow is one website's Table I measurements.
type TableIRow struct {
	Name          string
	Load          analysis.ByteUsage
	LoadAndBrowse analysis.ByteUsage
}

// ExecuteTableIWith runs the Table I site set (load and load+browse
// sessions) over cfg's worker pool and measures unused JS/CSS bytes. Each
// pair's load and load+browse sessions are independent units, so a pool of
// W workers keeps W sessions rendering at once; rows come back in site-list
// order.
func ExecuteTableIWith(cfg Config) ([]TableIRow, error) {
	pairs := sites.TableI(cfg.Scale)
	usages := make([]analysis.ByteUsage, 2*len(pairs))
	err := forEach(cfg.Workers, 2*len(pairs), func(i int) error {
		pair := pairs[i/2]
		bench, label := pair.Load, "load"
		if i%2 == 1 {
			bench, label = pair.LoadAndBrowse, "browse"
		}
		br := browser.New(bench.Site, bench.Profile)
		br.RunSession()
		if len(br.Errors) > 0 {
			return fmt.Errorf("experiments: table1 %s %s: %v", pair.Name, label, br.Errors[0])
		}
		usages[i] = analysis.UnusedBytes(br)
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := make([]TableIRow, len(pairs))
	for i, pair := range pairs {
		out[i] = TableIRow{Name: pair.Name, Load: usages[2*i], LoadAndBrowse: usages[2*i+1]}
	}
	return out, nil
}

// TableI renders the unused-bytes table.
func TableI(rows []TableIRow) *report.Table {
	t := &report.Table{
		Title:   "Table I: Unused JavaScript and CSS code bytes",
		Headers: []string{"Website", "Session", "Unused bytes", "Total bytes", "Percentage"},
	}
	for _, r := range rows {
		t.AddRow(r.Name, "Only Load", report.KB(r.Load.UnusedBytes), report.KB(r.Load.TotalBytes), report.Pct(r.Load.Percent()))
		t.AddRow("", "Load and Browse", report.KB(r.LoadAndBrowse.UnusedBytes), report.KB(r.LoadAndBrowse.TotalBytes), report.Pct(r.LoadAndBrowse.Percent()))
	}
	return t
}

// Figure2 runs the Amazon desktop load-and-browse session and charts the
// main thread's CPU utilization over virtual time.
func Figure2(scale float64) (*report.Chart, error) {
	bench := sites.AmazonDesktop(sites.Options{Scale: scale, Browse: true})
	br := browser.New(bench.Site, bench.Profile)
	br.RunSession()
	if len(br.Errors) > 0 {
		return nil, fmt.Errorf("experiments: fig2: %v", br.Errors[0])
	}
	points := analysis.CPUTimeline(br.M.Tr, browser.MainThread, 100)
	series := make([]float64, len(points))
	for i, p := range points {
		series[i] = p.UtilizationPct
	}
	endMs := uint64(0)
	if len(points) > 0 {
		endMs = points[len(points)-1].TimeMs
	}
	return &report.Chart{
		Title:   "Figure 2: CPU utilization of the main thread while browsing amazon (load, scroll, photo roll, menu)",
		Height:  12,
		Width:   90,
		SeriesA: series,
		ALegend: fmt.Sprintf("main-thread utilization per 100ms window, 0..%d ms", endMs),
	}, nil
}

// Figure4 renders the backward-pass slicing-percentage curves for one run:
// all threads and main thread, x advancing from the end of the trace to its
// beginning, as in the paper's subplots.
func Figure4(r *Run) *report.Chart {
	curve := analysis.BackwardCurve(r.Pixel)
	all := make([]float64, len(curve))
	main := make([]float64, len(curve))
	for i, p := range curve {
		all[i] = p.AllPct
		main[i] = p.MainPct
	}
	var endX float64
	if len(curve) > 0 {
		endX = curve[len(curve)-1].XMInstr
	}
	return &report.Chart{
		Title:   fmt.Sprintf("Figure 4: slicing %% over the backward pass — %s", r.Bench.Name),
		Height:  12,
		Width:   90,
		SeriesA: all,
		SeriesB: main,
		ALegend: fmt.Sprintf("all threads (x: 0..%.1f M instructions from trace end)", endX),
		BLegend: "main thread",
	}
}

// Figure5 renders the categorization of potentially unnecessary
// computations for the executed runs.
func Figure5(runs []*Run) *report.Table {
	t := &report.Table{
		Title:   "Figure 5: categorization of potentially unnecessary computations (share of categorized non-slice instructions)",
		Headers: append([]string{"Benchmark"}, append(append([]string{}, analysis.Categories...), "Categorized")...),
	}
	for _, r := range runs {
		d := analysis.Categorize(r.Trace, r.Pixel)
		cells := []string{r.Bench.Name}
		for _, c := range analysis.Categories {
			cells = append(cells, report.Pct1(100*d.Share[c]))
		}
		cells = append(cells, report.Pct(d.CoveragePct))
		t.AddRow(cells...)
	}
	return t
}

// BingPartial reproduces the §V-A experiment: slice the Bing trace with
// criteria restricted to the load phase (backward from the page-loaded
// point), and compare against the full-session slice restricted to load-time
// instructions. The paper measured 49.8% vs 50.6% — browsing makes only ~1%
// more of the load-time work useful.
type BingPartialResult struct {
	LoadInstr        int
	LoadOnlyPct      float64 // slicing from the loaded point backward
	FullSessionPct   float64 // full-session slice, counted over load instructions
	FullSessionTotal int
}

// ExecuteBingPartial runs the experiment on an executed Bing run.
func ExecuteBingPartial(r *Run) (BingPartialResult, error) {
	cut := r.Browser.LoadedIndex
	res := BingPartialResult{LoadInstr: cut, FullSessionTotal: r.Pixel.Total}
	partial, err := r.Prof.Slice(slicer.Window{Inner: slicer.PixelCriteria{}, Limit: cut})
	if err != nil {
		return res, err
	}
	res.LoadOnlyPct = partial.RangePercent(0, cut)
	res.FullSessionPct = r.Pixel.RangePercent(0, cut)
	return res, nil
}

// CriteriaComparison computes the pixel vs syscall slice sizes for a run
// (§IV-C / §V: the two criteria yield almost the same slice, with the
// syscall slice a strict superset).
type CriteriaComparisonResult struct {
	PixelPct, SyscallPct float64
	PixelOnly            int // pixel-slice records missing from syscall slice (must be 0)
	ExtraSyscall         int // syscall-slice records beyond the pixel slice
}

// ExecuteCriteriaComparison compares each run's pixel slice with its
// syscall slice. It takes each syscall slice through the run's profiler, so
// the walk reuses the run's forward pass. The walks run on a pool of
// workers (<= 0 means GOMAXPROCS); results come back in run order.
func ExecuteCriteriaComparison(runs []*Run, workers int) ([]CriteriaComparisonResult, error) {
	out := make([]CriteriaComparisonResult, len(runs))
	err := forEach(workers, len(runs), func(k int) error {
		r := runs[k]
		sys, err := r.Prof.Slice(slicer.SyscallCriteria{})
		if err != nil {
			return fmt.Errorf("experiments: %s: %w", r.Bench.Name, err)
		}
		c := CriteriaComparisonResult{
			PixelPct:   r.Pixel.Percent(),
			SyscallPct: sys.Percent(),
		}
		for i := 0; i < r.Pixel.Total; i++ {
			inP, inS := r.Pixel.InSlice.Get(i), sys.InSlice.Get(i)
			if inP && !inS {
				c.PixelOnly++
			}
			if inS && !inP {
				c.ExtraSyscall++
			}
		}
		out[k] = c
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
