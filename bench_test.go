// Package webslice holds the benchmark harness that regenerates every table
// and figure of the paper's evaluation. Each benchmark renders the
// corresponding workload on the simulated browser, runs the slicing
// profiler, reports the paper's metrics via b.ReportMetric, and logs the
// regenerated rows/series on the first iteration.
//
// The workload scale defaults to 0.25 of the calibrated benchmark size so a
// full `go test -bench=.` run stays laptop-friendly; set WEBSLICE_SCALE=1
// for the full-size runs used in EXPERIMENTS.md.
package webslice

import (
	"bytes"
	"os"
	"strconv"
	"strings"
	"testing"

	"webslice/internal/analysis"
	"webslice/internal/browser"
	"webslice/internal/cdg"
	"webslice/internal/cfg"
	"webslice/internal/experiments"
	"webslice/internal/sites"
	"webslice/internal/slicer"
	"webslice/internal/trace"
)

func benchScale() float64 {
	if v := os.Getenv("WEBSLICE_SCALE"); v != "" {
		if f, err := strconv.ParseFloat(v, 64); err == nil && f > 0 {
			return f
		}
	}
	return 0.25
}

// BenchmarkTableI regenerates Table I: unused JS/CSS bytes for Amazon, Bing,
// and Google Maps in load and load+browse sessions.
func BenchmarkTableI(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.ExecuteTableIWith(experiments.Config{Scale: benchScale(), Workers: 1})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + experiments.TableI(rows).String())
			for _, r := range rows {
				name := strings.ReplaceAll(r.Name, " ", "")
				b.ReportMetric(r.Load.Percent(), name+"_load_unused_%")
				b.ReportMetric(r.LoadAndBrowse.Percent(), name+"_browse_unused_%")
			}
		}
	}
}

func benchTableIIOne(b *testing.B, mk func(sites.Options) sites.Benchmark, browse bool) {
	for i := 0; i < b.N; i++ {
		bench := mk(sites.Options{Scale: benchScale(), Browse: browse})
		r, err := experiments.Execute(bench)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(r.Pixel.Percent(), "all_slice_%")
			b.ReportMetric(r.Pixel.ThreadPercent(browser.MainThread), "main_slice_%")
			b.ReportMetric(r.Pixel.ThreadPercent(browser.CompositorThread), "compositor_slice_%")
			b.ReportMetric(r.Pixel.ThreadPercent(browser.RasterThreadBase), "raster1_slice_%")
			b.ReportMetric(float64(r.Pixel.Total)/1e6, "Minstr")
		}
	}
}

// BenchmarkTableII_* regenerate the four Table II columns.
func BenchmarkTableII_AmazonDesktop(b *testing.B) { benchTableIIOne(b, sites.AmazonDesktop, false) }
func BenchmarkTableII_AmazonMobile(b *testing.B)  { benchTableIIOne(b, sites.AmazonMobile, false) }
func BenchmarkTableII_GoogleMaps(b *testing.B)    { benchTableIIOne(b, sites.GoogleMaps, false) }
func BenchmarkTableII_Bing(b *testing.B)          { benchTableIIOne(b, sites.Bing, true) }

// BenchmarkFigure2 regenerates the main-thread CPU-utilization timeline of
// the Amazon browsing session.
func BenchmarkFigure2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		chart, err := experiments.Figure2(benchScale())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + chart.String())
		}
	}
}

// BenchmarkFigure4 regenerates the backward-pass slicing curves (all
// benchmarks, all-threads and main-thread series).
func BenchmarkFigure4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		runs, err := experiments.ExecuteTableIIWith(experiments.Config{Scale: benchScale(), Workers: 1})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, r := range runs {
				b.Log("\n" + experiments.Figure4(r).String())
			}
		}
	}
}

// BenchmarkFigure5 regenerates the categorization of unnecessary
// computations.
func BenchmarkFigure5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		runs, err := experiments.ExecuteTableIIWith(experiments.Config{Scale: benchScale(), Workers: 1})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + experiments.Figure5(runs).String())
			for _, r := range runs {
				d := analysis.Categorize(r.Trace, r.Pixel)
				b.ReportMetric(100*d.Share["JavaScript"], "js_waste_%")
			}
		}
	}
}

// BenchmarkBingPartialSlice regenerates the §V-A experiment: slicing the
// Bing trace from the page-loaded point vs from the end of the session.
func BenchmarkBingPartialSlice(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Execute(sites.Bing(sites.Options{Scale: benchScale(), Browse: true}))
		if err != nil {
			b.Fatal(err)
		}
		res, err := experiments.ExecuteBingPartial(r)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(res.LoadOnlyPct, "load_only_%")
			b.ReportMetric(res.FullSessionPct, "full_session_%")
		}
	}
}

// BenchmarkCriteriaComparison is the pixel-vs-syscall criteria ablation:
// one render and forward pass, then one backward walk per criterion.
func BenchmarkCriteriaComparison(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Execute(sites.AmazonDesktop(sites.Options{Scale: benchScale()}))
		if err != nil {
			b.Fatal(err)
		}
		cs, err := experiments.ExecuteCriteriaComparison([]*experiments.Run{r}, 1)
		if err != nil {
			b.Fatal(err)
		}
		c := cs[0]
		if c.PixelOnly != 0 {
			b.Fatalf("syscall slice must contain the pixel slice; %d records missing", c.PixelOnly)
		}
		if i == 0 {
			b.ReportMetric(c.PixelPct, "pixel_%")
			b.ReportMetric(c.SyscallPct, "syscall_%")
		}
	}
}

// BenchmarkReproRunner measures the parallel experiment runner: the same
// Table II regeneration with a single worker vs a GOMAXPROCS-sized pool.
// On a multi-core machine the parallel series should approach
// serial/num_cores; results are verified byte-identical in
// internal/experiments regardless of pool size.
func BenchmarkReproRunner(b *testing.B) {
	for _, cfg := range []struct {
		name    string
		workers int
	}{{"serial", 1}, {"parallel", 0}} {
		b.Run(cfg.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				runs, err := experiments.ExecuteTableIIWith(experiments.Config{
					Scale:   benchScale(),
					Workers: cfg.workers,
				})
				if err != nil {
					b.Fatal(err)
				}
				if i == 0 {
					var render, forward, slice float64
					for _, r := range runs {
						render += r.Timing.RenderMs
						forward += r.Timing.ForwardMs
						slice += r.Timing.SliceMs
					}
					b.ReportMetric(render, "render_ms")
					b.ReportMetric(forward, "forward_ms")
					b.ReportMetric(slice, "slice_ms")
				}
			}
		})
	}
}

// BenchmarkRender measures recording alone: one render of each named site,
// built and rendered as a site job's first sighting does it, with no
// slicing. records/op tells a change in the cost of recording apart from a
// change in the trace recorded.
func BenchmarkRender(b *testing.B) {
	for _, name := range sites.Names() {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			var recs int
			for i := 0; i < b.N; i++ {
				bench, err := sites.ByName(name, sites.Options{Scale: benchScale()})
				if err != nil {
					b.Fatal(err)
				}
				br := browser.New(bench.Site, bench.Profile)
				br.RunSession()
				if len(br.Errors) > 0 {
					b.Fatal(br.Errors[0])
				}
				recs = len(br.M.Tr.Recs)
			}
			b.ReportMetric(float64(recs), "records/op")
		})
	}
}

// BenchmarkEncodeV3 / BenchmarkDecodeV3 measure trace serialization and
// its reverse. Throughput (MB/s) is over the encoded bytes, and the encode
// benchmark also reports the encoding's size per record.
func codecTrace(b *testing.B) (*trace.Trace, []byte) {
	b.Helper()
	bench := sites.AmazonDesktop(sites.Options{Scale: benchScale()})
	br := browser.New(bench.Site, bench.Profile)
	br.RunSession()
	if len(br.Errors) > 0 {
		b.Fatal(br.Errors[0])
	}
	var v3 bytes.Buffer
	if err := br.M.Tr.WriteV3(&v3); err != nil {
		b.Fatal(err)
	}
	return br.M.Tr, v3.Bytes()
}

func BenchmarkEncodeV3(b *testing.B) {
	tr, v3 := codecTrace(b)
	b.SetBytes(int64(len(v3)))
	b.ResetTimer()
	var buf bytes.Buffer
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := tr.WriteV3(&buf); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(v3))/float64(len(tr.Recs)), "B/rec")
}

func BenchmarkDecodeV3(b *testing.B) {
	_, v3 := codecTrace(b)
	b.SetBytes(int64(len(v3)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		br, err := trace.OpenV3(v3)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := br.ReadAll(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationControlDeps compares full slicing against
// data-dependence-only slicing: the slice over an empty control dependence
// graph.
func BenchmarkAblationControlDeps(b *testing.B) {
	bench := sites.AmazonDesktop(sites.Options{Scale: benchScale()})
	br := browser.New(bench.Site, bench.Profile)
	br.RunSession()
	f, err := cfg.Build(br.M.Tr)
	if err != nil {
		b.Fatal(err)
	}
	deps := cdg.Compute(f)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		full, err := slicer.Slice(br.M.Tr, deps, slicer.PixelCriteria{}, slicer.Options{})
		if err != nil {
			b.Fatal(err)
		}
		dataOnly, err := slicer.Slice(br.M.Tr, &cdg.Deps{}, slicer.PixelCriteria{}, slicer.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(full.Percent(), "full_%")
			b.ReportMetric(dataOnly.Percent(), "data_only_%")
		}
	}
}

// BenchmarkAblationForwardReuse measures re-running the forward pass vs
// loading the control dependence graph from stable storage.
func BenchmarkAblationForwardReuse(b *testing.B) {
	bench := sites.AmazonMobile(sites.Options{Scale: benchScale()})
	br := browser.New(bench.Site, bench.Profile)
	br.RunSession()
	b.Run("Recompute", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			f, err := cfg.Build(br.M.Tr)
			if err != nil {
				b.Fatal(err)
			}
			cdg.Compute(f)
		}
	})
	f, _ := cfg.Build(br.M.Tr)
	deps := cdg.Compute(f)
	b.Run("SliceOnly", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := slicer.Slice(br.M.Tr, deps, slicer.PixelCriteria{}, slicer.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
}
