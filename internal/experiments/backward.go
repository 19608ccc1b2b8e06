package experiments

// The backward-pass scaling experiment: one rendered session, one forward
// pass, then the same fused multi-criteria slice computed twice — forced
// sequential and segmented with cfg.Workers workers — with the results
// compared field-for-field. This is the measurement behind the
// "Parallel backward pass" section of EXPERIMENTS.md and the `backward`
// unit of `webslice repro`.

import (
	"fmt"
	"reflect"
	"runtime"
	"time"

	"webslice/internal/browser"
	"webslice/internal/core"
	"webslice/internal/sites"
	"webslice/internal/slicer"
)

// BackwardResult is one measured sequential-vs-segmented comparison.
type BackwardResult struct {
	Site    string `json:"site"`
	Records int    `json:"records"`
	Workers int    `json:"workers"`

	SequentialMs float64 `json:"sequential_ms"`
	SegmentedMs  float64 `json:"segmented_ms"`
	// Speedup is SequentialMs / SegmentedMs (>1 means segmented wins).
	Speedup float64 `json:"speedup"`

	// Per-phase wall time of the segmented pass.
	Segments int     `json:"segments"`
	ScanMs   float64 `json:"scan_ms"`
	StitchMs float64 `json:"stitch_ms"`
	TallyMs  float64 `json:"tally_ms"`

	// Match reports that the segmented results were identical to the
	// sequential ones in every field. ExecuteBackward errors when false;
	// the field is recorded so BENCH_repro.json carries the evidence.
	Match bool `json:"match"`
}

// backwardReps: each mode is timed this many times and the best run is
// kept, shielding the recorded speedup from scheduler noise.
const backwardReps = 3

// ExecuteBackward renders the Amazon desktop load-and-browse session at
// cfg.Scale and measures the fused pixel+syscall backward pass forced
// sequential vs segmented with cfg.Workers workers (<= 0 means GOMAXPROCS).
func ExecuteBackward(cfg Config) (BackwardResult, error) {
	bench := sites.AmazonDesktop(sites.Options{Scale: cfg.Scale, Browse: true})
	br := browser.New(bench.Site, bench.Profile)
	br.RunSession()
	if len(br.Errors) > 0 {
		return BackwardResult{}, fmt.Errorf("experiments: backward: %v", br.Errors[0])
	}
	p := core.NewProfiler(br.M.Tr)
	p.Opts.ProgressPoints = 160
	p.Opts.MainThread = browser.MainThread
	if err := p.Forward(); err != nil {
		return BackwardResult{}, fmt.Errorf("experiments: backward: %w", err)
	}
	crits := []slicer.Criteria{slicer.PixelCriteria{}, slicer.SyscallCriteria{}}

	out := BackwardResult{Site: bench.Name, Records: len(br.M.Tr.Recs), Workers: cfg.Workers}

	seqOpts := p.Opts
	seqOpts.Segments = 1
	want, seqMs, _, err := timeSlice(p, crits, seqOpts)
	if err != nil {
		return out, fmt.Errorf("experiments: backward sequential: %w", err)
	}
	out.SequentialMs = seqMs

	segOpts := p.Opts
	segOpts.Workers = cfg.Workers
	// Force segmentation even when the scaled trace is below the automatic
	// threshold: the experiment exists to measure the segmented path.
	segOpts.Segments = segCount(segOpts, len(br.M.Tr.Recs))
	got, segMs, stats, err := timeSlice(p, crits, segOpts)
	if err != nil {
		return out, fmt.Errorf("experiments: backward segmented: %w", err)
	}
	out.SegmentedMs = segMs
	out.Segments = stats.Segments
	out.ScanMs = stats.ScanMs
	out.StitchMs = stats.StitchMs
	out.TallyMs = stats.TallyMs
	if segMs > 0 {
		out.Speedup = seqMs / segMs
	}

	out.Match = true
	for k := range crits {
		if !reflect.DeepEqual(want[k], got[k]) {
			out.Match = false
			return out, fmt.Errorf("experiments: backward: segmented %s slice differs from sequential", crits[k].Name())
		}
	}
	return out, nil
}

// segCount mirrors the slicer's automatic segment choice (workers × 4)
// without its minimum-trace-size gate.
func segCount(opts slicer.Options, n int) int {
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return workers * 4
}

// timeSlice runs the fused pass backwardReps times with opts, returning the
// results of the last run, the best wall time, and that run's phase stats.
func timeSlice(p *core.Profiler, crits []slicer.Criteria, opts slicer.Options) ([]*slicer.Result, float64, slicer.PassStats, error) {
	var best slicer.PassStats
	bestMs := 0.0
	var rs []*slicer.Result
	for rep := 0; rep < backwardReps; rep++ {
		var stats slicer.PassStats
		opts.Stats = &stats
		p.Opts = opts
		start := time.Now()
		out, _, err := p.SliceAll(crits)
		if err != nil {
			return nil, 0, best, err
		}
		elapsed := ms(time.Since(start))
		if rep == 0 || elapsed < bestMs {
			bestMs, best = elapsed, stats
		}
		rs = out
	}
	return rs, bestMs, best, nil
}
