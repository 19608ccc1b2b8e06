// Command websliced serves the slicing profiler over HTTP: clients submit
// a named benchmark site or a binary trace, a bounded queue feeds a pool
// of parallel workers, and a content-addressed artifact store makes a
// repeat job (same JobKey: the same upload bytes, or the same site and
// scale or seed under the same browser.RenderVersion; same criteria; same
// core.AnalysisVersion) a result hit that skips the
// render, decode and both passes. A job over a known trace with the other
// criteria loads the forward pass from the store and runs only the
// backward pass. Verified jobs (-verify, or a spec's "verify") never use
// the result cache, so the invariant oracles always check a freshly
// computed slice. With -journal,
// every acknowledged submission is written to a write-ahead log before the
// ID is returned, so a crash (or a drain that runs out of time) loses no
// accepted work — the next boot replays and finishes it.
//
// With -coordinator -peers=..., the daemon fronts a cluster instead of
// (only) slicing itself: a consistent-hash ring over the peers assigns
// every job an owner keyed by its upload's digest or its rendering
// identity, submissions are routed to the owner, and status/result polls
// are proxied transparently. There is one HTTP API: a coordinator serves
// the workers' handler (service.NewHandler) plus GET /cluster, and calls
// the workers with service.Client, the client the webslice CLI uses. Dead
// workers are probed out of the ring and their pending jobs re-routed;
// the coordinator's own manager executes whatever the ring cannot place. See README "Cluster mode" and `webslice
// submit|status|result|scatter` for the client side.
//
// With -trace-spans N, every job records a causally-linked span tree —
// routing, queue wait, attempts, store lookups, render, slice phases —
// in a bounded in-memory ring, served raw at GET /debug/spans (JSONL)
// and per job at GET /jobs/{id}/trace; `webslice spans <job>` renders
// the tree. Tracing is off by default and costs nothing when off.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"webslice/internal/cluster"
	"webslice/internal/obs"
	"webslice/internal/service"
	"webslice/internal/store"
)

func main() {
	addr := flag.String("addr", "localhost:8077", "listen address")
	dir := flag.String("store", ".websliced-store", "artifact store directory (empty = in-memory only)")
	memMB := flag.Int64("mem", 256, "artifact store in-memory LRU budget in MiB")
	workers := flag.Int("workers", 4, "parallel slicing workers")
	queue := flag.Int("queue", 64, "bounded job-queue depth (full queue returns 429)")
	verify := flag.Bool("verify", false, "run the structural slice oracles on every job's result")
	journal := flag.String("journal", "", "write-ahead job journal path (empty = no crash durability)")
	jobTimeout := flag.Duration("job-timeout", 0, "per-job wall-clock deadline (0 = none)")
	maxTraceMB := flag.Int64("max-trace-mb", 0, "reject submitted traces larger than this many MiB (0 = none)")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "graceful-shutdown budget; unfinished jobs stay in the journal")
	node := flag.String("node", "", "this node's advertised base URL in a cluster (default http://<addr>)")
	coordinator := flag.Bool("coordinator", false, "serve the cluster coordinator API, routing jobs across -peers")
	peers := flag.String("peers", "", "comma-separated worker base URLs forming the ring (coordinator mode); include this node's -node URL to give the coordinator a ring share")
	probeInterval := flag.Duration("probe-interval", cluster.DefaultProbeInterval, "peer health-probe period (coordinator mode)")
	probeFails := flag.Int("probe-fails", cluster.DefaultFailThreshold, "consecutive probe failures that evict a peer (coordinator mode)")
	traceSpans := flag.Int("trace-spans", 0, "span ring capacity for request tracing (0 = tracing off; try 4096); spans at GET /debug/spans and /jobs/{id}/trace")
	logLevel := flag.String("log-level", "info", "structured log level: debug|info|warn|error")
	flag.Parse()

	self := *node
	if self == "" {
		self = "http://" + *addr
	}
	cfg := service.Config{
		Workers:       *workers,
		QueueDepth:    *queue,
		Verify:        *verify,
		JobTimeout:    *jobTimeout,
		MaxTraceBytes: *maxTraceMB << 20,
		Node:          self,
		Logger:        newLogger(*logLevel),
	}
	if *traceSpans > 0 {
		cfg.Tracer = obs.New(*traceSpans, nil)
	}
	cl := clusterConfig{
		coordinator:   *coordinator,
		self:          self,
		peers:         splitPeers(*peers),
		probeInterval: *probeInterval,
		probeFails:    *probeFails,
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, *addr, *dir, *memMB<<20, *journal, *drainTimeout, cfg, cl); err != nil {
		fmt.Fprintln(os.Stderr, "websliced:", err)
		os.Exit(1)
	}
}

type clusterConfig struct {
	coordinator   bool
	self          string
	peers         []string
	probeInterval time.Duration
	probeFails    int
}

// newLogger builds the daemon's structured logger: text key=value pairs
// on stderr, filtered at the -log-level threshold. Job-scoped records
// carry trace and job IDs so a log line can be joined against its span
// tree (`webslice spans <job>`).
func newLogger(level string) *slog.Logger {
	var lvl slog.Level
	if err := lvl.UnmarshalText([]byte(level)); err != nil {
		fmt.Fprintf(os.Stderr, "websliced: invalid -log-level %q, using info\n", level)
		lvl = slog.LevelInfo
	}
	return slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: lvl}))
}

func splitPeers(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, strings.TrimRight(p, "/"))
		}
	}
	return out
}

// run serves until ctx is done, then shuts down gracefully (see below).
func run(ctx context.Context, addr, dir string, memBytes int64, journalPath string, drainTimeout time.Duration, cfg service.Config, cl clusterConfig) error {
	if len(cl.peers) > 0 && !cl.coordinator {
		return errors.New("-peers requires -coordinator")
	}
	logger := cfg.Logger
	if logger == nil {
		logger = obs.NopLogger()
	}
	st, err := store.Open(dir, memBytes)
	if err != nil {
		return err
	}
	cfg.Store = st
	if journalPath != "" {
		j, pending, err := service.OpenJournal(journalPath)
		if err != nil {
			return err
		}
		if n := j.Salvaged(); n > 0 {
			logger.Warn("journal had a corrupt/torn tail", "salvaged_bytes", n, "path", journalPath)
		}
		if len(pending) > 0 {
			logger.Info("replaying unfinished jobs from journal", "count", len(pending), "path", journalPath)
		}
		cfg.Journal, cfg.Resume = j, pending
	}
	mgr := service.New(cfg)
	cfg.Resume = nil // queued; the log closure below keeps cfg alive

	// The service API at /, plus net/http/pprof under /debug/pprof/ so a
	// live daemon can be profiled (CPU, heap, goroutines) without a restart.
	mux := http.NewServeMux()
	var co *cluster.Coordinator
	if cl.coordinator {
		co = cluster.New(cluster.Config{
			Self:          cl.self,
			Local:         mgr,
			Peers:         cl.peers,
			ProbeInterval: cl.probeInterval,
			FailThreshold: cl.probeFails,
			Logger:        cfg.Logger, // tracer is inherited from the local manager
		})
		co.Start()
		mux.Handle("/", cluster.NewHandler(co))
	} else {
		mux.Handle("/", service.NewHandler(mgr))
	}
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)

	srv := &http.Server{Addr: addr, Handler: mux}
	errc := make(chan error, 1)
	go func() {
		if cl.coordinator {
			logger.Info("coordinator listening", "self", cl.self, "addr", addr, "peers", cl.peers,
				"workers", cfg.Workers, "queue", cfg.QueueDepth, "store", dir, "journal", journalPath,
				"tracing", cfg.Tracer != nil)
		} else {
			logger.Info("listening", "addr", addr, "workers", cfg.Workers, "queue", cfg.QueueDepth,
				"store", dir, "journal", journalPath, "tracing", cfg.Tracer != nil)
		}
		errc <- srv.ListenAndServe()
	}()

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}

	// Graceful shutdown: drain accepted jobs within the budget while the
	// server still answers, so /healthz reports 503 and clients can poll
	// the jobs that are finishing; then close the server. Jobs the drain
	// cannot finish in time are not abandoned — they stay pending in the
	// journal and the next boot re-runs them (without a journal they are
	// lost).
	logger.Info("shutting down, draining jobs", "budget", drainTimeout)
	shutCtx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	if co != nil {
		co.Stop()
	}
	if mgr.Drain(drainTimeout) {
		logger.Info("drained, bye")
	} else {
		logger.Warn("drain budget expired; unfinished jobs remain in the journal")
	}
	if err := srv.Shutdown(shutCtx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		logger.Error("http shutdown", "error", err)
	}
	return nil
}
