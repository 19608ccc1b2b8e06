// Command webslice drives the full reproduction: it renders the benchmark
// sites on the simulated browser, runs the slicing profiler, and regenerates
// every table and figure of the paper. Run `webslice repro` for everything,
// or one experiment at a time with -exp. The submit/status/result commands
// are the client side of the websliced service (cmd/websliced).
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"

	"webslice/internal/analysis"
	"webslice/internal/browser"
	"webslice/internal/experiments"
	"webslice/internal/report"
	"webslice/internal/sites"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	cmd := os.Args[1]
	fs := flag.NewFlagSet(cmd, flag.ExitOnError)
	scale := fs.Float64("scale", 1.0, "workload scale (1.0 = calibrated benchmark size)")
	exp := fs.String("exp", "all", "experiment: table1|table2|fig2|fig4|fig5|bingload|criteria|faults|all")
	faultSeed := fs.Uint64("faultseed", 7, "fault-plan seed for -exp faults")
	site := fs.String("site", "amazon-desktop", "site: amazon-desktop|amazon-mobile|maps|bing")
	tracePath := fs.String("o", "", "write the binary trace to this path (trace command)")
	in := fs.String("i", "", "read a binary trace from this path (submit command)")
	topN := fs.Int("top", 20, "how many functions to list (categorize command)")
	jsonOut := fs.Bool("json", false, "repro: also write machine-readable rows to "+BenchFile)
	addr := fs.String("addr", "http://localhost:8077", "websliced base URL (submit/status/result commands)")
	id := fs.String("id", "", "job id (status/result commands)")
	criteria := fs.String("criteria", "pixels", "slicing criteria: pixels|syscalls (submit command)")
	wait := fs.Bool("wait", false, "submit/scatter: poll until the job finishes and print its result")
	maxWait := fs.Duration("max-wait", 0, "client commands: give up after this total wait (0 = no limit)")
	scatterSites := fs.String("sites", "", "scatter: comma-separated site names to submit, all or none")
	jobVerify := fs.Bool("verify", false, "submit: ask the service to run the slice oracles on the job")
	count := fs.Int("count", 50, "verify: number of property-generated sites")
	seed := fs.Uint64("seed", 1, "verify: first property-site seed (site k uses seed+k)")
	golden := fs.String("golden", "examples/golden/corpus.json", "verify: golden corpus path (empty skips the golden phase)")
	update := fs.Bool("update", false, "verify: regenerate the golden corpus digests instead of comparing")
	workers := fs.Int("j", 0, "concurrent experiment sessions (0 = GOMAXPROCS)")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := fs.String("memprofile", "", "write a heap profile to this file on exit")
	fs.Parse(os.Args[2:])

	// NaN fails every comparison, so this also rejects -scale NaN.
	if !(*scale > 0) {
		fmt.Fprintf(os.Stderr, "webslice: invalid -scale %v: must be > 0\n", *scale)
		os.Exit(2)
	}
	stopProfiles, err := startProfiles(*cpuprofile, *memprofile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "webslice:", err)
		os.Exit(1)
	}

	switch cmd {
	case "repro":
		var rec *benchRecorder
		if *jsonOut {
			rec = newBenchRecorder(*scale, *workers)
		}
		err = repro(*scale, *exp, *faultSeed, *workers, rec)
		if err == nil {
			err = rec.write(BenchFile)
		}
	case "verify":
		err = doVerify(*exp, experiments.VerifyConfig{
			Scale: *scale, Workers: *workers,
			PropertyCount: *count, Seed: *seed,
			GoldenPath: *golden, Update: *update,
		})
	case "trace":
		err = doTrace(*scale, *site, *tracePath)
	case "slice":
		err = doSlice(*scale, *site)
	case "categorize":
		err = doCategorize(*scale, *site, *topN)
	case "unused":
		err = reproTableI(*scale, *workers, nil)
	case "cpu":
		err = reproFigure2(*scale, nil)
	case "calibrate":
		err = calibrate(*scale)
	case "submit":
		err = newClient(*addr, *maxWait).clientSubmit(*site, *scale, *criteria, *in, *wait, *jobVerify)
	case "scatter":
		err = newClient(*addr, *maxWait).clientScatter(*scatterSites, *scale, *criteria, *wait)
	case "status":
		err = newClient(*addr, *maxWait).clientStatus(*id)
	case "result":
		err = newClient(*addr, *maxWait).clientResult(*id)
	case "quarantined":
		err = newClient(*addr, *maxWait).clientQuarantined()
	case "spans":
		jobID := *id
		if jobID == "" {
			jobID = fs.Arg(0) // allow `webslice spans <job>` without -id
		}
		err = newClient(*addr, *maxWait).clientSpans(jobID)
	default:
		stopProfiles()
		usage()
		os.Exit(2)
	}
	stopProfiles()
	if err != nil {
		fmt.Fprintln(os.Stderr, "webslice:", err)
		os.Exit(1)
	}
}

// startProfiles begins CPU profiling and arranges for a heap profile, per
// the -cpuprofile/-memprofile flags. The returned stop function finishes
// both; it is safe to call when neither flag was set.
func startProfiles(cpuPath, memPath string) (func(), error) {
	var cpuFile *os.File
	if cpuPath != "" {
		f, err := os.Create(cpuPath)
		if err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return nil, fmt.Errorf("starting CPU profile: %w", err)
		}
		cpuFile = f
	}
	return func() {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			cpuFile.Close()
		}
		if memPath != "" {
			f, err := os.Create(memPath)
			if err != nil {
				fmt.Fprintln(os.Stderr, "webslice: memprofile:", err)
				return
			}
			defer f.Close()
			runtime.GC() // materialize up-to-date heap statistics
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "webslice: memprofile:", err)
			}
		}
	}, nil
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: webslice <command> [flags]

commands:
  repro      regenerate the paper's tables and figures (-exp selects one; -json
             also writes machine-readable rows to BENCH_repro.json)
  trace      render a site and write its binary instruction trace (-site, -o)
  slice      render a site and print pixel/syscall slice statistics (-site)
  categorize render+slice a site and list the most-wasteful functions (-site)
  unused     Table I only (unused JS/CSS bytes)
  cpu        Figure 2 only (main-thread CPU utilization)
  calibrate  print per-thread statistics for tuning workload knobs
  verify     run the slice-validation oracles (-exp golden|crossformat|replay|
             differential|invariants|all; -count/-seed property sites, -golden
             corpus path, -update to regenerate digests)
  submit     send a job to a running websliced (-site or -i trace, -criteria,
             -wait to block for the result, -verify for server-side oracles)
  scatter    submit a list of sites to a websliced, all or none; a cluster
             coordinator spreads them over its workers (-sites a,b,c;
             -wait gathers results in site order)
  status     print a websliced job's status (-id)
  result     print a finished websliced job's result (-id)
  quarantined  list websliced's poisoned jobs (quarantined after panicking)
  spans      render a job's span tree from a websliced started with
             -trace-spans (-id <job> or "webslice spans <job>"); against a
             coordinator this is the merged cross-node trace

flags: -scale 1.0 (workload size, must be > 0), -exp all, -site amazon-desktop,
       -j 0 (concurrent experiment sessions, 0 = GOMAXPROCS), -o/-i trace path,
       -faultseed 7 (fault-plan seed for -exp faults), -json (repro),
       -cpuprofile/-memprofile <file> (pprof output),
       -addr http://localhost:8077, -id <job>, -max-wait 0 (client commands)`)
}

func benchByName(name string, scale float64, browse bool) (sites.Benchmark, error) {
	return sites.ByName(name, sites.Options{Scale: scale, Browse: browse})
}

func repro(scale float64, exp string, faultSeed uint64, workers int, rec *benchRecorder) error {
	switch exp {
	case "all", "table1", "table2", "fig2", "fig4", "fig5", "bingload", "criteria", "faults":
	default:
		return fmt.Errorf("unknown experiment %q (want table1|table2|fig2|fig4|fig5|bingload|criteria|faults|all)", exp)
	}
	all := exp == "all"
	var runs []*experiments.Run
	needRuns := all || exp == "table2" || exp == "fig4" || exp == "fig5" || exp == "bingload" || exp == "criteria"
	if needRuns {
		fmt.Printf("Running the four Table II benchmarks at scale %.2f...\n\n", scale)
		rec.begin("render+slice")
		var err error
		runs, err = experiments.ExecuteTableIIWith(experiments.Config{Scale: scale, Workers: workers})
		if err != nil {
			return err
		}
		for _, r := range runs {
			rec.row(r.Bench.Name, map[string]float64{
				"instructions":       float64(r.Pixel.Total),
				"slice_instructions": float64(r.Pixel.SliceCount),
				"slice_pct":          r.Pixel.Percent(),
				"threads":            float64(len(r.Trace.Threads)),
				"render_wall_ms":     r.Timing.RenderMs,
				"forward_wall_ms":    r.Timing.ForwardMs,
				"slice_wall_ms":      r.Timing.SliceMs,
			})
		}
	}
	if all || exp == "table2" {
		fmt.Println(experiments.TableII(runs).String())
	}
	if all || exp == "table1" {
		if err := reproTableI(scale, workers, rec); err != nil {
			return err
		}
	}
	if all || exp == "fig2" {
		if err := reproFigure2(scale, rec); err != nil {
			return err
		}
	}
	if all || exp == "fig4" {
		for _, r := range runs {
			fmt.Println(experiments.Figure4(r).String())
		}
	}
	if all || exp == "fig5" {
		rec.begin("fig5")
		fmt.Println(experiments.Figure5(runs).String())
		for _, r := range runs {
			d := analysis.Categorize(r.Trace, r.Pixel)
			vals := map[string]float64{"coverage_pct": d.CoveragePct}
			for _, c := range analysis.Categories {
				vals[c] = 100 * d.Share[c]
			}
			rec.row(r.Bench.Name, vals)
		}
	}
	if all || exp == "bingload" {
		rec.begin("bingload")
		bing := runs[len(runs)-1]
		res, err := experiments.ExecuteBingPartial(bing)
		if err != nil {
			return err
		}
		fmt.Printf("§V-A Bing partial slice: load phase = %s instructions\n", report.MInstr(res.LoadInstr))
		fmt.Printf("  slicing from the page-loaded point:   %.1f%% of load-time instructions in slice\n", res.LoadOnlyPct)
		fmt.Printf("  slicing from the end of the session:  %.1f%% of load-time instructions in slice\n", res.FullSessionPct)
		fmt.Printf("  (browsing makes %.1f%% more of the load work useful; the paper measured 49.8%% vs 50.6%%)\n\n",
			res.FullSessionPct-res.LoadOnlyPct)
		rec.row(bing.Bench.Name, map[string]float64{
			"load_instructions": float64(res.LoadInstr),
			"load_only_pct":     res.LoadOnlyPct,
			"full_session_pct":  res.FullSessionPct,
		})
	}
	if all || exp == "faults" {
		fmt.Printf("Running fault-injection pairs (clean + faulty) at scale %.2f, seed %d...\n\n", scale, faultSeed)
		rec.begin("faults")
		pairs, err := experiments.ExecuteFaultsWith(experiments.Config{Scale: scale, Workers: workers}, faultSeed)
		if err != nil {
			return err
		}
		fmt.Println(experiments.FaultsTable(pairs, faultSeed).String())
		for _, p := range pairs {
			for _, d := range p.Faulty.Browser.Degraded {
				fmt.Printf("  %s: degraded: %s\n", p.Name, d)
			}
			rec.row(p.Name, map[string]float64{
				"clean_instructions":  float64(p.Clean.Pixel.Total),
				"faulty_instructions": float64(p.Faulty.Pixel.Total),
				"faulty_errpath":      float64(p.FaultyWaste.ErrorPathInstr),
				"faulty_wasted_pct":   p.FaultyWaste.WastedPct(),
				"faulty_slice_pct":    p.Faulty.Pixel.Percent(),
			})
		}
		fmt.Println()
	}
	if all || exp == "criteria" {
		rec.begin("criteria")
		// The syscall walks run on -j workers, like the renders, and each
		// reuses its run's forward pass.
		cs, err := experiments.ExecuteCriteriaComparison(runs, workers)
		if err != nil {
			return err
		}
		t := &report.Table{
			Title:   "Criteria comparison: pixel-buffer vs system-call slicing (§IV-C)",
			Headers: []string{"Benchmark", "Pixel slice", "Syscall slice", "Pixel-only recs", "Extra syscall recs"},
		}
		for i, r := range runs {
			c := cs[i]
			t.AddRow(r.Bench.Name, report.Pct1(c.PixelPct), report.Pct1(c.SyscallPct),
				fmt.Sprint(c.PixelOnly), fmt.Sprint(c.ExtraSyscall))
			rec.row(r.Bench.Name, map[string]float64{
				"pixel_pct":     c.PixelPct,
				"syscall_pct":   c.SyscallPct,
				"extra_syscall": float64(c.ExtraSyscall),
			})
		}
		fmt.Println(t.String())
	}
	return nil
}

// doVerify runs the slice-validation harness: golden corpus digests,
// encoded-and-decoded-vs-rendered digest equality, replay, differential (naive
// reference slicer), and invariant oracles. phase is the -exp flag
// reinterpreted: golden|crossformat|replay|differential|invariants|all.
func doVerify(phase string, cfg experiments.VerifyConfig) error {
	if phase == "all" && cfg.GoldenPath != "" {
		if _, err := os.Stat(cfg.GoldenPath); err != nil && !cfg.Update {
			return fmt.Errorf("golden corpus %s not found (run `webslice verify -update` to generate it, or pass -golden '')", cfg.GoldenPath)
		}
	}
	st, err := experiments.ExecuteVerify(phase, cfg)
	if err != nil {
		return err
	}
	fmt.Printf("verify %s: OK\n", phase)
	if st.GoldenSites > 0 {
		fmt.Printf("  golden corpus:  %d sites, digests %s\n", st.GoldenSites,
			map[bool]string{true: fmt.Sprintf("regenerated (%d changed)", st.Updated), false: "matched"}[cfg.Update])
	}
	if st.CrossFormat > 0 {
		fmt.Printf("  cross-format:   %d sites sliced identically after an encode and decode\n", st.CrossFormat)
	}
	if st.PropertySites > 0 {
		fmt.Printf("  property sites: %d (seeds %d..%d)\n", st.PropertySites, cfg.Seed, cfg.Seed+uint64(st.PropertySites)-1)
	}
	if st.Replays > 0 {
		fmt.Printf("  replays:        %d slices reproduced their criterion bytes\n", st.Replays)
	}
	if st.Differentials > 0 {
		fmt.Printf("  differentials:  %d naive-vs-optimized comparisons agreed exactly\n", st.Differentials)
	}
	if st.Invariants > 0 {
		fmt.Printf("  invariants:     %d sites passed closure/subset/monotonicity\n", st.Invariants)
	}
	return nil
}

func reproTableI(scale float64, workers int, rec *benchRecorder) error {
	rec.begin("table1")
	rows, err := experiments.ExecuteTableIWith(experiments.Config{Scale: scale, Workers: workers})
	if err != nil {
		return err
	}
	fmt.Println(experiments.TableI(rows).String())
	for _, r := range rows {
		rec.row(r.Name, map[string]float64{
			"load_unused_bytes":   float64(r.Load.UnusedBytes),
			"load_total_bytes":    float64(r.Load.TotalBytes),
			"browse_unused_bytes": float64(r.LoadAndBrowse.UnusedBytes),
			"browse_total_bytes":  float64(r.LoadAndBrowse.TotalBytes),
		})
	}
	return nil
}

func reproFigure2(scale float64, rec *benchRecorder) error {
	rec.begin("fig2")
	chart, err := experiments.Figure2(scale)
	if err != nil {
		return err
	}
	fmt.Println(chart.String())
	rec.row("main-thread-utilization", map[string]float64{
		"points": float64(len(chart.SeriesA)),
		"mean":   mean(chart.SeriesA),
	})
	return nil
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func doTrace(scale float64, site, out string) error {
	b, err := benchByName(site, scale, false)
	if err != nil {
		return err
	}
	br := browser.New(b.Site, b.Profile)
	br.RunSession()
	if len(br.Errors) > 0 {
		return br.Errors[0]
	}
	sum := br.M.Tr.Summarize()
	fmt.Printf("%s: %d instructions, %d syscalls, %d pixel markers, %d functions, %d threads\n",
		b.Name, sum.Total, sum.Syscalls, sum.Markers, sum.Functions, sum.Threads)
	if out != "" {
		f, err := os.Create(out)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := br.M.Tr.WriteV3(f); err != nil {
			return err
		}
		fmt.Printf("trace written to %s\n", out)
	}
	return nil
}

func doSlice(scale float64, site string) error {
	b, err := benchByName(site, scale, site == "bing")
	if err != nil {
		return err
	}
	r, err := experiments.Execute(b)
	if err != nil {
		return err
	}
	// The syscall slice reuses the pixel run's forward pass.
	cs, err := experiments.ExecuteCriteriaComparison([]*experiments.Run{r}, 1)
	if err != nil {
		return err
	}
	c := cs[0]
	fmt.Printf("%s: %s instructions\n", b.Name, report.MInstr(r.Pixel.Total))
	fmt.Printf("  pixel slice:   %s\n", report.Pct1(r.Pixel.Percent()))
	fmt.Printf("  syscall slice: %s (extra records: %d)\n", report.Pct1(c.SyscallPct), c.ExtraSyscall)
	for _, th := range r.Trace.Threads {
		fmt.Printf("  %-28s %8s of %s\n", th.Name,
			report.Pct1(r.Pixel.ThreadPercent(th.ID)), report.MInstr(r.Pixel.ByThread[th.ID]))
	}
	return nil
}

func doCategorize(scale float64, site string, topN int) error {
	b, err := benchByName(site, scale, site == "bing")
	if err != nil {
		return err
	}
	r, err := experiments.Execute(b)
	if err != nil {
		return err
	}
	d := analysis.Categorize(r.Trace, r.Pixel)
	fmt.Printf("%s: %d unnecessary instructions (%.0f%% categorized)\n", b.Name, d.UnnecessaryTotal, d.CoveragePct)
	for _, c := range analysis.Categories {
		fmt.Printf("  %-16s %s\n", c, report.Pct1(100*d.Share[c]))
	}
	fmt.Println("\nMost-wasteful functions:")
	for _, fw := range analysis.TopWasted(r.Trace, r.Pixel, topN) {
		fmt.Printf("  %9d / %9d  %-14s %s\n", fw.Wasted, fw.Total, fw.Namespace, fw.Name)
	}
	return nil
}

func calibrate(scale float64) error {
	for _, b := range sites.TableII(scale) {
		r, err := experiments.Execute(b)
		if err != nil {
			return err
		}
		fmt.Printf("== %s: total %s, pixel slice %s, loadedIdx %s, markers %d\n",
			b.Name, report.MInstr(r.Pixel.Total), report.Pct1(r.Pixel.Percent()),
			report.MInstr(r.Browser.LoadedIndex), r.Browser.Raster.MarkedTiles)
		for _, th := range r.Trace.Threads {
			fmt.Printf("   %-28s %8s of %10s\n", th.Name,
				report.Pct1(r.Pixel.ThreadPercent(th.ID)), report.MInstr(r.Pixel.ByThread[th.ID]))
		}
		d := analysis.Categorize(r.Trace, r.Pixel)
		fmt.Printf("   categories (cov %.0f%%): ", d.CoveragePct)
		for _, c := range analysis.Categories {
			fmt.Printf("%s %.0f%%  ", c, 100*d.Share[c])
		}
		u := analysis.UnusedBytes(r.Browser)
		fmt.Printf("\n   unused bytes: %s of %s (%.0f%%)\n\n", report.KB(u.UnusedBytes), report.KB(u.TotalBytes), u.Percent())
	}
	return nil
}
