// Command e2ebench is webslice's end-to-end benchmark. It launches real
// websliced daemons on loopback, drives them through the public HTTP API in
// a closed loop, checks every result's slice digest against a reference,
// and prints one JSON line of metrics. With -trace 0 it reports the
// end-to-end metrics of an untraced run; with -trace 1 it reports per-layer
// metrics from a traced run. See README.md for the workloads and metrics.
//
// It is normally started by run.sh, which builds websliced and this
// command from the checkout first.
package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// minTimedJobs is the least number of timed jobs in a window, so that
// job_p90_ms has at least minTail samples beyond it.
const minTimedJobs = 100

type config struct {
	workload  workload
	seed      uint64
	seconds   int
	trace     bool
	root      string
	websliced string
	work      string
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var (
		cfg      config
		name     string
		seed     uint64
		traceArg int
	)
	flag.StringVar(&name, "workload", "", "site-repeat, upload-cold or cluster-mixed")
	flag.Uint64Var(&seed, "seed", 1, "workload seed: fixes every job sequence and input")
	flag.IntVar(&cfg.seconds, "seconds", 20, "sizes each timed window: about this many seconds of jobs on a 2-core machine, and at least 100 jobs")
	flag.IntVar(&traceArg, "trace", 0, "0: end-to-end metrics from an untraced run; 1: per-layer metrics from a traced run")
	flag.StringVar(&cfg.root, "root", ".", "repository root (reads examples/golden/corpus.json)")
	flag.StringVar(&cfg.websliced, "websliced", "", "websliced binary")
	flag.StringVar(&cfg.work, "work", "", "directory for run state and result records")
	flag.Parse()
	w, err := workloadByName(name)
	if err == nil && (cfg.websliced == "" || cfg.work == "") {
		err = errors.New("-websliced and -work are required (run.sh sets them)")
	}
	if err == nil && (traceArg < 0 || traceArg > 1 || cfg.seconds < 1) {
		err = errors.New("-trace must be 0 or 1 and -seconds at least 1")
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(2)
	}
	cfg.workload, cfg.seed, cfg.trace = w, seed, traceArg == 1

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	res, err := run(ctx, cfg)
	stop()
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// record is the full account of one run, written next to the result line:
// the provenance stamp, every metric, and every failed job.
type record struct {
	Provenance provenance        `json:"provenance"`
	Result     result            `json:"result"`
	Failures   []string          `json:"failures,omitempty"`
	Setups     []float64         `json:"setup_s"`
	Extra      map[string]metric `json:"extra,omitempty"`
}

type provenance struct {
	Workload     string            `json:"workload"`
	Seed         uint64            `json:"seed"`
	Seconds      int               `json:"seconds"`
	Traced       bool              `json:"traced"`
	NProc        int               `json:"nproc"`
	GOMAXPROCS   int               `json:"gomaxprocs"`
	GoVersion    string            `json:"go_version"`
	CPU          string            `json:"cpu"`
	Commit       string            `json:"commit"`
	SourceDigest string            `json:"source_digest"`
	DaemonFlags  map[string]string `json:"daemon_flags"`
	Clients      int               `json:"clients"`
	PollMs       float64           `json:"poll_interval_ms"`
	TimedJobs    int               `json:"timed_jobs"`
	Started      string            `json:"started"`
}

func run(ctx context.Context, cfg config) (*result, error) {
	w := cfg.workload
	d := &loadGen{w: w, seed: cfg.seed, http: newHTTPClient()}
	golden, err := loadGolden(cfg.root)
	if err != nil {
		return nil, err
	}
	d.golden = func(j job) string { return goldenWant(golden, j) }
	n := windowJobs(w, cfg.seconds)
	if w.name == "site-repeat" {
		d.pairs = sitePairs(golden)
	} else {
		// The untraced and traced windows of a traced run each start on
		// fresh daemons, so they share the inputs.
		t := time.Now()
		if d.uploads, err = makeUploads(w, cfg.seed, poolSize(w, n)); err != nil {
			return nil, err
		}
		fmt.Fprintf(os.Stderr, "e2ebench: generated %d inputs in %.1fs\n", len(d.uploads), time.Since(t).Seconds())
	}
	rec := &record{Provenance: provenance{
		Workload: w.name, Seed: cfg.seed, Seconds: cfg.seconds, Traced: cfg.trace,
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		CPU: cpuModel(), Commit: commit(cfg.root), SourceDigest: sourceDigest(cfg.root),
		Clients: w.clients, PollMs: float64(pollInterval) / float64(time.Millisecond),
		Started: time.Now().UTC().Format(time.RFC3339),
	}}
	if cfg.trace {
		err = runTraced(ctx, cfg, d, rec, n)
	} else {
		err = runUntraced(ctx, cfg, d, rec, n)
	}
	if err != nil {
		return nil, err
	}
	if err := writeRecord(cfg, rec); err != nil {
		return nil, err
	}
	return &rec.Result, nil
}

// setUp launches the workload's daemons and sends the warm-up pass,
// returning the fleet and the time from launch to ready.
func setUp(ctx context.Context, cfg config, d *loadGen, traced bool) (*fleet, float64, error) {
	t := time.Now()
	f, err := launch(ctx, cfg.websliced, cfg.work, d.w, traced)
	if err != nil {
		return nil, 0, err
	}
	if err := d.warmup(ctx, f.entry.base, warmupJobs(d.w, d.seed, d.pairs)); err != nil {
		f.stop()
		return nil, 0, err
	}
	return f, time.Since(t).Seconds(), nil
}

// runUntraced measures the end-to-end metrics: set up the workload's
// number of setups, then drive the last setup's daemons for one window of
// n jobs.
func runUntraced(ctx context.Context, cfg config, d *loadGen, rec *record, n int) error {
	var f *fleet
	defer func() { f.stop() }()
	for i := 0; i < d.w.setups; i++ {
		f.stop()
		var s float64
		var err error
		if f, s, err = setUp(ctx, cfg, d, false); err != nil {
			return err
		}
		rec.Setups = append(rec.Setups, s)
	}
	var ticks0, host0, steal0 int64
	var tickErr, hostErr error
	win := d.drive(ctx, f.entry.base, n, func() {
		ticks0, tickErr = f.cpuTicks()
		host0, steal0, hostErr = hostCPU()
	})
	if err := errors.Join(tickErr, hostErr, ctx.Err(), f.alive()); err != nil {
		return err
	}
	ticks1, err := f.cpuTicks()
	if err != nil {
		return err
	}
	host1, steal1, err := hostCPU()
	if err != nil {
		return err
	}
	stealPct := 100 * float64(steal1-steal0) / float64(max(host1-host0, 1))
	fmt.Fprintf(os.Stderr, "e2ebench: the hypervisor took %.1f%% of this machine's CPU time during the window\n", stealPct)
	rssKiB, err := f.peakRSSKiB()
	if err != nil {
		return err
	}
	rec.Provenance.DaemonFlags = f.flags()

	lat, done := latencies(win)
	p90v, err := p90(lat)
	if err != nil {
		return fmt.Errorf("job_p90_ms: %w", err)
	}
	m := map[string]metric{
		"jobs_per_s":            {float64(done) / win.seconds(), "jobs/s"},
		"job_p50_ms":            {median(lat), "ms"},
		"job_p90_ms":            {p90v, "ms"},
		"server_cpu_ms_per_job": {float64(ticks1-ticks0) * 1000 / clockTicks / float64(max(done, 1)), "ms"},
		"server_peak_rss_mb":    {float64(rssKiB) / 1024, "MiB"},
		"setup_s":               {median(rec.Setups), "s"},
	}
	rec.Result = tally(rec, m, win)
	rec.Extra = map[string]metric{
		"failed_frac":    {float64(rec.Result.Failed) / float64(rec.Result.Attempted), "ratio"},
		"window_s":       {win.seconds(), "s"},
		"completed_jobs": {float64(done), "count"},
		"host_steal_pct": {stealPct, "%"},
	}
	return nil
}

// latencies returns the client-observed latency of every job sent, a job
// that did not finish counting as the job timeout, and how many finished.
func latencies(win *window) ([]float64, int) {
	lat := make([]float64, 0, len(win.outcomes))
	done := 0
	for _, o := range win.outcomes {
		if o.Done {
			done++
			lat = append(lat, o.LatencyMs)
		} else {
			lat = append(lat, float64(jobTimeout/time.Millisecond))
		}
	}
	return lat, done
}

// tally fills the result's counts from the windows and names every failed
// job in the record.
func tally(rec *record, m map[string]metric, wins ...*window) result {
	r := result{Metrics: m}
	for _, win := range wins {
		for _, o := range win.outcomes {
			r.Attempted++
			if o.Failure != "" {
				r.Failed++
				rec.Failures = append(rec.Failures, fmt.Sprintf("%s job %s (%s, input %d, %s): %s",
					o.Kind, o.ID, o.Criteria, o.Input, o.Site, o.Failure))
			}
		}
	}
	r.Correct = r.Failed == 0 && r.Attempted > 0
	rec.Provenance.TimedJobs = r.Attempted
	for _, f := range rec.Failures {
		fmt.Fprintln(os.Stderr, "e2ebench: failed:", f)
	}
	return r
}

func writeRecord(cfg config, rec *record) error {
	dir := filepath.Join(cfg.work, "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d-trace%d.json", cfg.workload.name, cfg.seed, btoi(cfg.trace)))
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		return err
	}
	p := rec.Provenance
	fmt.Fprintf(os.Stderr, "e2ebench: %s seed=%d nproc=%d gomaxprocs=%d %s commit=%s timed_jobs=%d poll=%gms record=%s\n",
		p.Workload, p.Seed, p.NProc, p.GOMAXPROCS, p.GoVersion, p.Commit, p.TimedJobs, p.PollMs, path)
	return nil
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

// commit is the checkout's git commit, or "unknown" outside a git
// repository; sourceDigest identifies the sources either way.
func commit(root string) string {
	out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// sourceDigest is a SHA-256 over go.mod and every Go file of the program
// (cmd/ and internal/), in path order.
func sourceDigest(root string) string {
	var paths []string
	for _, dir := range []string{"cmd", "internal"} {
		filepath.WalkDir(filepath.Join(root, dir), func(p string, e fs.DirEntry, err error) error {
			if err == nil && !e.IsDir() && strings.HasSuffix(p, ".go") {
				paths = append(paths, p)
			}
			return nil
		})
	}
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range append([]string{filepath.Join(root, "go.mod")}, paths...) {
		b, err := os.ReadFile(p)
		if err != nil {
			return "unknown"
		}
		rel, _ := filepath.Rel(root, p)
		fmt.Fprintf(h, "%s %d\n", rel, len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// hostCPU reads the machine's total and steal time from /proc/stat.
func hostCPU() (total, steal int64, err error) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, err
	}
	return parseHostCPU(string(b))
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
