package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"webslice/internal/analysis"
	"webslice/internal/cdg"
	"webslice/internal/cfg"
	"webslice/internal/cluster"
	"webslice/internal/obs"
	"webslice/internal/postdom"
	"webslice/internal/service"
	"webslice/internal/sites"
	"webslice/internal/store"
	"webslice/internal/trace"
)

// directSample is how many of a window's inputs the direct timings use.
const directSample = 8

// layerRow is one per-layer metric with where it came from.
type layerRow struct {
	name   string
	unit   string
	value  float64
	jobs   int // jobs the layer ran in (span metrics), or samples (direct)
	source string
}

// runTraced measures the per-layer metrics. It drives one untraced window
// (the baseline for obs.overhead_pct) and one traced window on fresh
// daemons, reads the traced daemons' span rings and /metrics, and then,
// with the load stopped, times the public functions that have no span.
func runTraced(ctx context.Context, cfg config, d *loadGen, rec *record, n int) error {
	f, _, err := setUp(ctx, cfg, d, false)
	if err != nil {
		return err
	}
	plain := d.drive(ctx, f.entry.base, n, func() {})
	err = errors.Join(ctx.Err(), f.alive())
	f.stop()
	if err != nil {
		return err
	}

	f, _, err = setUp(ctx, cfg, d, true)
	if err != nil {
		return err
	}
	defer f.stop()
	var before map[string]map[string]float64
	var scrapeErr error
	traced := d.drive(ctx, f.entry.base, n, func() { before, scrapeErr = f.metrics() })
	if err := errors.Join(scrapeErr, ctx.Err(), f.alive()); err != nil {
		return err
	}
	after, err := f.metrics()
	if err != nil {
		return err
	}
	spans, err := f.spans()
	if err != nil {
		return err
	}
	rec.Provenance.DaemonFlags = f.flags()
	f.stop()

	rows, medianTrace, err := layerRows(d, plain, traced, before, after, spans)
	if err != nil {
		return err
	}
	m := make(map[string]metric, len(rows))
	for _, r := range rows {
		m[r.name] = metric{r.value, r.unit}
	}
	rec.Result = tally(rec, m, plain, traced)
	frac := float64(rec.Result.Failed) / float64(rec.Result.Attempted)
	m["failed_frac"] = metric{frac, "ratio"}
	rows = append(rows, layerRow{"failed_frac", "ratio", frac, rec.Result.Attempted, "failed + refused + timed-out + wrong-digest jobs / attempted, both windows"})
	return writeWhere(cfg, rec, rows, spans, medianTrace)
}

// layerRows computes every per-layer metric. It also returns the trace ID
// of the median-latency traced job, whose span tree the artifact draws.
func layerRows(d *loadGen, plain, traced *window, before, after map[string]map[string]float64, spans []obs.SpanData) ([]layerRow, string, error) {
	root := "job"
	if d.w.cluster {
		root = "route" // the coordinator's half; the owner's job span joins it
	}
	traceOf := make(map[string]string)
	for _, s := range spans {
		if s.Name != root {
			continue
		}
		for _, a := range s.Attrs {
			if a.K == "job" {
				traceOf[a.V] = s.Trace
			}
		}
	}
	selfs := selfTimes(spans)
	var traces []string
	var medianTrace string
	var byLatency []outcome
	for _, o := range traced.outcomes {
		if !o.Done {
			continue
		}
		t, ok := traceOf[o.ID]
		if !ok {
			return nil, "", fmt.Errorf("no %s span for job %s: spans were dropped", root, o.ID)
		}
		// The owner's job span is published last, after journal.terminal.
		if _, ok := selfs[t]["job"]; !ok {
			return nil, "", fmt.Errorf("job %s: trace %s has no job span: spans were dropped", o.ID, t)
		}
		traces = append(traces, t)
		byLatency = append(byLatency, o)
	}
	if len(traces) == 0 {
		return nil, "", errors.New("traced window finished no jobs")
	}
	sort.Slice(byLatency, func(a, b int) bool { return byLatency[a].LatencyMs < byLatency[b].LatencyMs })
	medianTrace = traceOf[byLatency[len(byLatency)/2].ID]

	spanRow := func(name, layer, source string) layerRow {
		var xs []float64
		for _, t := range traces {
			if v, ok := selfs[t][layer]; ok {
				xs = append(xs, v)
			}
		}
		return layerRow{name, "ms", median(xs), len(xs), source}
	}
	perTrace := func(f func(t string) (float64, bool)) ([]float64, int) {
		var xs []float64
		for _, t := range traces {
			if v, ok := f(t); ok {
				xs = append(xs, v)
			}
		}
		return xs, len(xs)
	}
	delta := func(name string) float64 { // summed over daemons
		sum := 0.0
		for role, m := range after {
			sum += m[name] - before[role][name]
		}
		return sum
	}
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}

	var submit, sizes []float64
	for _, o := range traced.outcomes {
		if o.Done {
			submit = append(submit, o.SubmitMs)
			if o.Bytes > 0 {
				sizes = append(sizes, float64(o.Bytes))
			}
		}
	}
	segments, nSeg := perTrace(func(t string) (float64, bool) { return scanSegments(spans, t) })
	shares, nShare := perTrace(func(t string) (float64, bool) {
		s := selfs[t]
		scan, ok := s["slice.scan"]
		if !ok {
			return 0, false
		}
		return ratio(s["slice.stitch"], scan+s["slice.stitch"]+s["slice.tally"]), true
	})
	hits, misses := delta("store_hits"), delta("store_misses")
	memBytes := 0.0
	for _, m := range after {
		memBytes += m["store_mem_bytes"]
	}
	plainRate := float64(countDone(plain)) / plain.seconds()
	tracedRate := float64(countDone(traced)) / traced.seconds()

	rows := []layerRow{
		{"service.submit_http_ms", "ms", median(submit), len(submit), "client timing of the POST (body read, validate, journal fsync)"},
		spanRow("service.journal_submit_ms", "journal.submit", "span journal.submit"),
		spanRow("service.journal_terminal_ms", "journal.terminal", "span journal.terminal"),
		spanRow("service.queue_wait_ms", "queue.wait", "span queue.wait"),
		spanRow("service.attempt_self_ms", "attempt", "attempt self time (UseStore hashing, categorize, digest)"),
		{"service.retries", "count", delta("jobs_retried"), len(after), "/metrics jobs_retried delta, all daemons"},
		{"service.rejected", "count", delta("jobs_rejected"), len(after), "/metrics jobs_rejected delta, all daemons"},
		spanRow("store.get_deps_ms", "store.get/deps", "span store.get kind=deps"),
		spanRow("store.put_deps_ms", "store.put/deps", "span store.put kind=deps"),
		{"store.hit_ratio", "ratio", ratio(hits, hits+misses), len(after), "/metrics store_hits / (store_hits + store_misses) delta"},
		{"store.mem_bytes", "bytes", memBytes, len(after), "/metrics store_mem_bytes at the end, summed over daemons"},
		spanRow("browser.render_ms", "render", "span render"),
		spanRow("trace.open_ms", "trace.open", "span trace.open"),
		{"trace.upload_bytes", "bytes", median(sizes), len(sizes), "size of each upload"},
		spanRow("core.forward_ms", "forward", "span forward"),
		spanRow("slicer.slice_self_ms", "slice", "slice self time (includes slice-cache get/put)"),
		spanRow("slicer.scan_ms", "slice.scan", "span slice.scan"),
		spanRow("slicer.stitch_ms", "slice.stitch", "span slice.stitch"),
		spanRow("slicer.tally_ms", "slice.tally", "span slice.tally"),
		{"slicer.segments", "count", median(segments), nSeg, "segments attr of slice.scan"},
		{"slicer.stitch_share", "ratio", median(shares), nShare, "stitch / (scan + stitch + tally) per job"},
		spanRow("cluster.route_ms", "route", "span route, self"),
		spanRow("cluster.peer_submit_ms", "peer.submit", "span peer.submit"),
		{"cluster.affinity_ratio", "ratio", ratio(delta("cluster_affinity_hits"), delta("cluster_jobs_routed")), len(after), "/metrics cluster_affinity_hits / cluster_jobs_routed delta"},
		{"cluster.reroutes", "count", delta("cluster_jobs_rerouted"), len(after), "/metrics cluster_jobs_rerouted delta"},
		{"obs.overhead_pct", "%", 100 * ratio(plainRate-tracedRate, plainRate), countDone(traced), fmt.Sprintf("(untraced %.3f - traced %.3f jobs/s) / untraced", plainRate, tracedRate)},
	}
	direct, err := directTimings(d, traced)
	if err != nil {
		return nil, "", err
	}
	return append(rows, direct...), medianTrace, nil
}

// scanSegments reads the segments attribute of a trace's slice.scan span.
func scanSegments(spans []obs.SpanData, traceID string) (float64, bool) {
	for _, s := range spans {
		if s.Trace != traceID || s.Name != "slice.scan" {
			continue
		}
		for _, a := range s.Attrs {
			if a.K == "segments" {
				v, err := strconv.ParseFloat(a.V, 64)
				return v, err == nil
			}
		}
	}
	return 0, false
}

func countDone(w *window) int {
	_, n := latencies(w)
	return n
}

// directTimings times, in this process and with the load stopped, the
// public functions that have no span of their own, on a seed-chosen sample
// of the inputs the traced window used. Layers a workload does not run
// read 0.
func directTimings(d *loadGen, traced *window) ([]layerRow, error) {
	var keyMs, readAllMs, buildMs, postdomMs, cdgMs, jobKeyMs []float64
	records := map[string][]float64{}
	timed := func(dst *[]float64, f func() error) error {
		runtime.GC()
		t := time.Now()
		err := f()
		*dst = append(*dst, msSince(t))
		return err
	}
	if d.w.name == "site-repeat" {
		seen := map[string]bool{}
		for _, j := range d.pairs {
			if seen[j.Site] {
				continue
			}
			seen[j.Site] = true
			b, err := sites.ByName(j.Site, sites.Options{Scale: j.Scale})
			if err != nil {
				return nil, err
			}
			t, err := render(b)
			if err != nil {
				return nil, err
			}
			if err := timed(&keyMs, func() error { _, err := store.TraceKey(t); return err }); err != nil {
				return nil, err
			}
			for cat, n := range recordsByCategory(t) {
				records[cat] = append(records[cat], float64(n))
			}
		}
	} else {
		for _, in := range sampleInputs(d, traced) {
			data := d.uploads[in].data
			br, err := trace.OpenV3(data)
			if err != nil {
				return nil, err
			}
			if err := timed(&keyMs, func() error { _, err := store.TraceKeyV3(br); return err }); err != nil {
				return nil, err
			}
			if br, err = trace.OpenV3(data); err != nil {
				return nil, err
			}
			var t *trace.Trace
			if err := timed(&readAllMs, func() (err error) { t, err = br.ReadAll(); return err }); err != nil {
				return nil, err
			}
			var forest *cfg.Forest
			if err := timed(&buildMs, func() (err error) { forest, err = cfg.Build(t); return err }); err != nil {
				return nil, err
			}
			trees := make(map[uint32]*postdom.Tree, len(forest.Graphs))
			timed(&postdomMs, func() error {
				for fn, g := range forest.Graphs {
					trees[uint32(fn)] = postdom.Compute(g)
				}
				return nil
			})
			timed(&cdgMs, func() error { cdg.ComputeWithTrees(forest, trees); return nil })
			if d.w.cluster {
				timed(&jobKeyMs, func() error { cluster.JobKey(service.Spec{Trace: data}); return nil })
			}
		}
	}
	n := len(keyMs)
	rows := []layerRow{
		{"store.key_ms", "ms", median(keyMs), n, "direct store.TraceKey (rendered trace) / store.TraceKeyV3 (upload)"},
		{"trace.read_all_ms", "ms", median(readAllMs), len(readAllMs), "direct BlockReader.ReadAll"},
		{"cfg.build_ms", "ms", median(buildMs), len(buildMs), "direct cfg.Build"},
		{"postdom.compute_ms", "ms", median(postdomMs), len(postdomMs), "direct postdom.Compute, summed over graphs"},
		{"cdg.compute_ms", "ms", median(cdgMs), len(cdgMs), "direct cdg.ComputeWithTrees"},
		{"cluster.jobkey_ms", "ms", median(jobKeyMs), len(jobKeyMs), "direct cluster.JobKey on the upload"},
		{"browser.records", "count", median(records[""]), len(records[""]), "records per rendered trace"},
	}
	for _, cat := range analysis.Categories {
		rows = append(rows, layerRow{"browser.records." + cat, "count", median(records[cat]), len(records[cat]),
			"records per rendered trace in category " + cat})
	}
	return rows, nil
}

// recordsByCategory counts a trace's records per analysis category, from
// per-function totals; "" holds the total.
func recordsByCategory(t *trace.Trace) map[string]int {
	perFunc := make(map[trace.FuncID]int)
	for i := range t.Recs {
		perFunc[t.Recs[i].Func()]++
	}
	out := map[string]int{"": len(t.Recs)}
	for _, cat := range analysis.Categories {
		out[cat] = 0
	}
	for fn, n := range perFunc {
		if cat := analysis.CategoryOf(t.Namespace(fn)); cat != "" {
			out[cat] += n
		}
	}
	return out
}

// sampleInputs picks up to directSample distinct inputs the window used,
// in a seed-shuffled order.
func sampleInputs(d *loadGen, win *window) []int {
	seen := map[int]bool{}
	var ins []int
	for _, o := range win.outcomes {
		if o.Done && o.Input >= 0 && !seen[o.Input] {
			seen[o.Input] = true
			ins = append(ins, o.Input)
		}
	}
	stream(d.seed, 99).shuffle(len(ins), func(i, j int) { ins[i], ins[j] = ins[j], ins[i] })
	return ins[:min(len(ins), directSample)]
}

// writeWhere writes the "where did the time go" artifact: the per-layer
// table and the span tree of the median traced job.
func writeWhere(cfg config, rec *record, rows []layerRow, spans []obs.SpanData, medianTrace string) error {
	var b bytes.Buffer
	p := rec.Provenance
	fmt.Fprintf(&b, "where did the time go: %s, seed %d, %d timed jobs\n", p.Workload, p.Seed, p.TimedJobs)
	fmt.Fprintf(&b, "machine: %d cpus (%s), GOMAXPROCS %d, %s, commit %s, sources %s\n\n",
		p.NProc, p.CPU, p.GOMAXPROCS, p.GoVersion, p.Commit, p.SourceDigest)
	fmt.Fprintf(&b, "%-30s %14s %-6s %5s  %s\n", "metric", "value", "unit", "n", "source")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-30s %14.4f %-6s %5d  %s\n", r.name, r.value, r.unit, r.jobs, r.source)
	}
	var tree []obs.SpanData
	for _, s := range spans {
		if s.Trace == medianTrace {
			tree = append(tree, s)
		}
	}
	fmt.Fprintf(&b, "\nspan tree of the median-latency job:\n")
	obs.RenderTree(&b, tree)
	path := filepath.Join(cfg.work, "results", fmt.Sprintf("%s-seed%d-where.txt", p.Workload, p.Seed))
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	if err := os.WriteFile(path, b.Bytes(), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "e2ebench: per-layer table and median span tree in %s\n", path)
	fmt.Fprint(os.Stderr, strings.TrimRight(b.String(), "\n")+"\n")
	return nil
}
