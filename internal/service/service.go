// Package service turns the one-shot profiler into a slicing service: a
// bounded job queue feeds a pool of workers that render (or decode)
// traces, slice them through the content-addressed artifact store, and
// publish per-job status. Backpressure is explicit — a full queue rejects
// with ErrQueueFull instead of blocking the caller — and shutdown drains
// every accepted job before Close returns.
//
// # Failure model
//
// With a Journal attached, every submission is made durable before it is
// acknowledged and every terminal state is made durable before a client
// can observe it, so a crash (kill -9, power loss) loses no acknowledged
// job and never re-executes a job a client saw finish. Workers isolate
// job failures: a panicking runner is converted to ErrJobPanicked instead
// of taking the process down. An error fails its job on the first attempt:
// the pipeline is a pure function of the job's trace, so a second attempt
// could only repeat it (or spend its deadline again). A panic is a bug,
// not an input the pipeline refuses, so it gets one more attempt, at once,
// and a job that panics twice is quarantined on a poisoned-job list rather
// than crash-looping. Per-job wall-clock deadlines and a trace-size
// admission limit bound resource use; the artifact store degrades to
// compute-without-cache behind a circuit breaker when its disk misbehaves
// (see internal/store).
package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"math/rand/v2"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"webslice/internal/analysis"
	"webslice/internal/browser"
	"webslice/internal/core"
	"webslice/internal/metrics"
	"webslice/internal/obs"
	"webslice/internal/sites"
	"webslice/internal/slicer"
	"webslice/internal/store"
	"webslice/internal/trace"
)

// Spec describes one slicing job: either a named benchmark site to render
// or an already-encoded trace.
type Spec struct {
	// Site is a benchmark name (sites.ByName). Ignored when Trace is set.
	Site string `json:"site,omitempty"`
	// Seed, when non-zero and Site is empty, renders the property-generated
	// mini-site sites.Random(Seed) instead of a named benchmark.
	Seed uint64 `json:"seed,omitempty"`
	// Scale is the workload scale for rendered sites; 0 means 1.0.
	Scale float64 `json:"scale,omitempty"`
	// Criteria selects the slicing criterion: "pixels" (default) or
	// "syscalls".
	Criteria string `json:"criteria,omitempty"`
	// Verify runs the structural slice oracles (replay.CheckInvariants) on
	// this job's result, failing the job on a violation. A verified job
	// neither reads nor writes the result cache, so the oracles always check
	// a freshly computed slice: it renders or opens its trace and runs the
	// backward pass every time (the forward pass may still come from the
	// store).
	Verify bool `json:"verify,omitempty"`
	// Trace is a binary WSLT trace to slice instead of rendering a site.
	Trace []byte `json:"-"`
	// Origin is forwarded-job provenance: the advertised URL of the
	// cluster coordinator that routed this job here (empty for jobs
	// submitted directly to this node). Informational only.
	Origin string `json:"origin,omitempty"`
	// TraceCtx is the propagated parent span of a forwarded submission.
	// It is never part of the JSON wire format: HTTP handlers fill it from
	// the W3C traceparent request header, so the job's spans join the
	// coordinator's trace instead of starting a new one.
	TraceCtx obs.SpanContext `json:"-"`
}

// Status is a job's lifecycle state.
type Status string

const (
	StatusQueued      Status = "queued"
	StatusRunning     Status = "running"
	StatusDone        Status = "done"
	StatusFailed      Status = "failed"
	StatusCanceled    Status = "canceled"
	StatusQuarantined Status = "quarantined"
)

// Terminal reports whether the status is final.
func (s Status) Terminal() bool {
	return s == StatusDone || s == StatusFailed || s == StatusCanceled || s == StatusQuarantined
}

// ThreadStat is the per-thread slice breakdown of a finished job.
type ThreadStat struct {
	ID     uint8  `json:"id"`
	Name   string `json:"name"`
	Total  int    `json:"total"`
	Sliced int    `json:"sliced"`
}

// Result is what a finished job reports.
type Result struct {
	// TraceKey is the job's JobKey, the content address of the trace it
	// sliced: an upload's SHA-256, or a site or seed job's identity address.
	TraceKey string `json:"trace_key,omitempty"`
	// SliceDigest is store.SliceDigest of the slice: the hex SHA-256 of its
	// canonical encoding, equal to the digests `webslice verify -exp
	// golden` pins in examples/golden/corpus.json. The cluster harness uses
	// it to prove single-node and multi-node runs produce byte-identical
	// slices.
	SliceDigest string  `json:"slice_digest,omitempty"`
	Criteria    string  `json:"criteria"`
	Total       int     `json:"total_instructions"`
	SliceCount  int     `json:"slice_instructions"`
	SlicePct    float64 `json:"slice_pct"`
	// CacheHit reports that the result cache served this job whole: a
	// repeat of an earlier unverified job with the same JobKey and criteria,
	// with no render, trace decode or slicing. A result held in the result
	// cache reads false; the hit that returns it reads true.
	CacheHit   bool               `json:"cache_hit"`
	Verified   bool               `json:"verified,omitempty"`
	Threads    []ThreadStat       `json:"threads,omitempty"`
	Categories map[string]float64 `json:"categories,omitempty"`
}

// Info is a point-in-time snapshot of a job.
type Info struct {
	ID       string `json:"id"`
	Status   Status `json:"status"`
	Site     string `json:"site,omitempty"`
	Seed     uint64 `json:"seed,omitempty"`
	Criteria string `json:"criteria"`
	Error    string `json:"error,omitempty"`
	CacheHit bool   `json:"cache_hit"`
	Attempts int    `json:"attempts,omitempty"`
	// Node is the owner hint: the advertised URL of the node executing
	// (or that executed) this job. Set from Config.Node; a cluster
	// coordinator fills it in when proxying a worker that did not
	// advertise one.
	Node string `json:"node,omitempty"`
	// Origin is the coordinator that forwarded this job here, if any.
	Origin string `json:"origin,omitempty"`
	// Reroutes counts how many times a cluster coordinator moved this job
	// to a new owner after a worker death (always 0 on a single node).
	Reroutes int     `json:"reroutes,omitempty"`
	QueueMs  float64 `json:"queue_ms"`
	RunMs    float64 `json:"run_ms"`
}

// Typed submission/lifecycle errors.
var (
	// ErrQueueFull is the backpressure signal: the bounded queue is at
	// capacity and the caller should retry later (HTTP maps it to 429).
	ErrQueueFull = errors.New("service: queue full")
	// ErrClosed rejects submissions after shutdown began.
	ErrClosed = errors.New("service: shutting down")
	// ErrCanceled is the terminal error of a canceled job.
	ErrCanceled = errors.New("service: job canceled")
	// ErrJobPanicked is the terminal error of a job whose runner panicked;
	// the panic is confined to the job instead of crashing the daemon.
	ErrJobPanicked = errors.New("service: job panicked")
	// ErrJobTimeout is the terminal error of a job that exceeded the
	// per-job wall-clock deadline (Config.JobTimeout).
	ErrJobTimeout = errors.New("service: job deadline exceeded")
	// ErrTraceTooLarge rejects a submitted trace over the admission limit
	// (Config.MaxTraceBytes), or one whose index declares more than
	// maxUploadRecs records, before it consumes a queue slot (HTTP 413).
	ErrTraceTooLarge = errors.New("service: trace exceeds admission limit")
)

// Jobs is the job API that every role answers alike: a worker's *Manager,
// a cluster's *cluster.Coordinator, and a *Client of either over HTTP.
// WriteError answers each of its errors with one code.
type Jobs interface {
	Submit(Spec) (string, error)
	Info(id string) (Info, error)
	Result(id string) (*Result, error)
	Cancel(id string) error
	JobTrace(id string) ([]obs.SpanData, error)
}

// The refusals of the job API's calls.
var (
	// ErrUnknownJob: no job has the id (HTTP 404). JobTrace answers it
	// with tracing off too (ErrTracingOff).
	ErrUnknownJob = errors.New("no job")
	// ErrJobState: the job's state does not allow the call (HTTP 409): its
	// result is asked for before it is done, or it is canceled after it
	// finished.
	ErrJobState = errors.New("wrong job state")
	// ErrUnreachable: a Client got no readable answer from its server (HTTP 502).
	ErrUnreachable = errors.New("no answer")
	// ErrTracingOff is JobTrace's answer with tracing off: no job has a
	// trace.
	ErrTracingOff = fmt.Errorf("%w trace: tracing disabled", ErrUnknownJob)
)

// unknownJob is the refusal of a call on id, which no job has.
func unknownJob(id string) error { return fmt.Errorf("%w %q", ErrUnknownJob, id) }

// quarantineAfter is how many panics quarantine a job; each panic before
// that gets another attempt.
const quarantineAfter = 2

// Runner executes one job. The context carries the per-job deadline and is
// canceled on job cancellation and manager shutdown; runners should poll
// ctx.Err() between phases. The default runner renders/decodes and slices;
// tests substitute their own.
type Runner func(ctx context.Context, spec Spec) (*Result, error)

// Config sizes the manager.
type Config struct {
	// Workers is the parallel worker count (default 4).
	Workers int
	// QueueDepth bounds the number of queued-but-not-running jobs
	// (default 64). A full queue rejects with ErrQueueFull.
	QueueDepth int
	// Store, when set, caches the finished Result of every unverified job
	// under its JobKey, criteria and core.AnalysisVersion, so a repeat job
	// is one lookup: no render, decode or slicing. It also caches each
	// trace's forward pass under its JobKey and core.AnalysisVersion, so a
	// job over a known trace with other criteria (or verified) loads the
	// forward pass instead of computing it. Such a job still renders or
	// decodes its trace unless a job of its JobKey is in flight, whose trace
	// it then shares.
	Store *store.Store
	// Verify applies Spec.Verify to every job regardless of what the
	// submission asked for (websliced -verify).
	Verify bool
	// Runner replaces the job execution pipeline; tests set it.
	Runner Runner
	// Node is this node's advertised URL in a cluster (websliced -node);
	// it is surfaced as the owner hint in every job Info. Empty for a
	// standalone daemon.
	Node string

	// Journal, when set, is the write-ahead log making submissions durable.
	// Pass the entries OpenJournal replayed via Resume to re-enqueue the
	// previous process's unfinished work.
	Journal *Journal
	// Resume is the journal's replayed still-pending work, re-enqueued
	// ahead of new submissions.
	Resume []JournalEntry
	// JobTimeout is the per-job wall-clock deadline; 0 disables it.
	JobTimeout time.Duration
	// MaxTraceBytes rejects submitted traces larger than this with
	// ErrTraceTooLarge; 0 disables the admission limit.
	MaxTraceBytes int64
	// Tracer, when set, records a hierarchical span tree per job (queue
	// wait, attempts, render, store lookups, forward and backward pass — see
	// internal/obs). Nil disables tracing; every span call site is
	// nil-safe, so the disabled path costs one pointer test per phase.
	Tracer *obs.Tracer
	// Logger receives structured lifecycle logs (submitted, started,
	// retried after a panic, quarantined, finished) carrying job and trace
	// IDs. Nil discards them.
	Logger *slog.Logger
}

type job struct {
	id   string
	spec Spec

	mu       sync.Mutex
	status   Status
	err      string
	result   *Result
	enqueued time.Time // once journaled, just before the queue send
	started  time.Time
	finished time.Time

	cancel  bool
	stopRun context.CancelFunc // cancels the in-flight attempt's context

	// attempts is guarded by mu (Info reads it).
	attempts int

	// span is the job's root trace span (nil with tracing off). Written
	// once before the job escapes Submit/resume, ended in finish/drop;
	// obs.Span methods are internally synchronized and nil-safe.
	span *obs.Span
}

func (j *job) canceled() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.cancel
}

// Manager owns the queue, the worker pool, and the job table.
type Manager struct {
	cfg    Config
	reg    *metrics.Registry
	tracer *obs.Tracer
	log    *slog.Logger
	queue  chan *job
	wg     sync.WaitGroup

	// baseCtx parents every job context; baseCancel fires on Kill and on a
	// drain timeout so in-flight runners stop at their next poll.
	baseCtx    context.Context
	baseCancel context.CancelFunc
	// killed means shutdown is abandoning work: workers drop jobs without
	// journaling terminals, so the journal keeps them pending for the next
	// boot (simulated crash, or drain deadline expiry).
	killed atomic.Bool
	ids    *IDs

	mu         sync.Mutex
	jobs       map[string]*job
	closed     bool
	quarantine []string // ids of quarantined jobs, oldest first

	// shares holds the traces of the jobs in flight, one per JobKey.
	shares *traceShares

	mSubmitted, mDone, mFailed, mRejected, mCanceled *metrics.Counter
	mRetried, mPanicked, mQuarantined                *metrics.Counter
	gRunning, gPeak, gQueueDepth                     *metrics.Gauge
	hQueueWait, hRun                                 *metrics.Histogram
}

// New starts a manager and its workers. Journal entries passed via
// cfg.Resume are re-enqueued (ahead of new submissions) without being
// re-journaled — they are already durable.
func New(cfg Config) *Manager {
	if cfg.Workers <= 0 {
		cfg.Workers = 4
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 64
	}
	reg := metrics.NewRegistry()
	logger := cfg.Logger
	if logger == nil {
		logger = obs.NopLogger()
	}
	ctx, cancel := context.WithCancel(context.Background())
	m := &Manager{
		cfg:    cfg,
		reg:    reg,
		tracer: cfg.Tracer,
		log:    logger,
		// The queue must absorb every resumed job on top of QueueDepth so
		// a journal fuller than the configured depth still replays.
		queue:        make(chan *job, cfg.QueueDepth+len(cfg.Resume)),
		baseCtx:      ctx,
		baseCancel:   cancel,
		ids:          NewIDs('j'),
		jobs:         make(map[string]*job),
		mSubmitted:   reg.Counter("jobs_submitted"),
		mDone:        reg.Counter("jobs_done"),
		mFailed:      reg.Counter("jobs_failed"),
		mRejected:    reg.Counter("jobs_rejected"),
		mCanceled:    reg.Counter("jobs_canceled"),
		mRetried:     reg.Counter("jobs_retried"),
		mPanicked:    reg.Counter("jobs_panicked"),
		mQuarantined: reg.Counter("jobs_quarantined"),
		gRunning:     reg.Gauge("jobs_running"),
		gPeak:        reg.Gauge("jobs_running_peak"),
		gQueueDepth:  reg.Gauge("queue_depth"),
		hQueueWait:   reg.Histogram("queue_wait_ms", metrics.LatencyBuckets),
		hRun:         reg.Histogram("slice_ms", metrics.LatencyBuckets),
	}
	m.shares = newTraceShares(obtainTrace)
	if cfg.Runner == nil {
		m.cfg.Runner = m.run
	}
	if cfg.Store != nil {
		reg.Func("store_hits", func() int64 { return cfg.Store.Stats().Hits })
		reg.Func("store_misses", func() int64 { return cfg.Store.Stats().Misses })
		reg.Func("store_mem_hits", func() int64 { return cfg.Store.Stats().MemHits })
		reg.Func("store_disk_hits", func() int64 { return cfg.Store.Stats().DiskHits })
		reg.Func("store_puts", func() int64 { return cfg.Store.Stats().Puts })
		reg.Func("store_evicted", func() int64 { return cfg.Store.Stats().Evicted })
		reg.Func("store_corrupt", func() int64 { return cfg.Store.Stats().Corrupt })
		reg.Func("store_mem_bytes", cfg.Store.MemBytes)
		reg.Func("store_disk_errors", func() int64 { return cfg.Store.Stats().DiskErrors })
		reg.Func("store_breaker_state", func() int64 { return cfg.Store.Stats().BreakerState })
		reg.Func("store_breaker_trips", func() int64 { return cfg.Store.Stats().BreakerTrips })
		reg.Func("store_breaker_shed", func() int64 { return cfg.Store.Stats().BreakerShed })
	}
	m.resume(cfg.Resume)
	m.cfg.Resume = nil // queued; keeping them would keep their uploads alive
	for i := 0; i < cfg.Workers; i++ {
		m.wg.Add(1)
		go m.worker()
	}
	return m
}

// IDs issues the job ids of one boot of a node: a role letter, 16 hex
// digits drawn at random when the node boots, a dash and a counter, as in
// j5c1e0f3a9b2d4c67-000001. A Manager's ids begin with j, a coordinator's
// with c. Two boots draw the same tag with odds of 2^-64, and a job keeps
// its id across a journal replay, so an id names one job: a node that no
// longer knows a job answers its id with a 404, never with another job.
type IDs struct {
	boot string
	n    atomic.Int64
}

// NewIDs draws the boot tag of a node whose ids begin with role.
func NewIDs(role byte) *IDs { return &IDs{boot: fmt.Sprintf("%c%016x-", role, rand.Uint64())} }

// Next returns a new id.
func (ids *IDs) Next() string { return fmt.Sprintf("%s%06d", ids.boot, ids.n.Add(1)) }

// resume re-enqueues replayed journal entries. Entries that no longer
// validate (a site removed, say) are journaled terminal instead of
// poisoning the queue forever.
func (m *Manager) resume(entries []JournalEntry) {
	for _, e := range entries {
		spec := e.Spec
		j := &job{id: e.ID, spec: spec, enqueued: time.Now()}
		m.startJobSpan(j)
		j.span.Set("resumed", "true")
		if err := m.Validate(&j.spec); err != nil {
			j.status = StatusFailed
			j.err = err.Error()
			j.finished = j.enqueued
			if m.cfg.Journal != nil {
				m.cfg.Journal.LogTerminal(j.id, StatusFailed)
			}
			j.span.Set("status", string(StatusFailed))
			j.span.EndErr(err)
			m.jobs[j.id] = j
			m.mFailed.Inc()
			m.log.Warn("resumed job invalid", "job", j.id, "trace", j.span.TraceID(), "error", err)
			continue
		}
		j.status = StatusQueued
		m.jobs[j.id] = j
		m.queue <- j
		m.log.Info("job resumed", "job", j.id, "trace", j.span.TraceID())
	}
	m.gQueueDepth.Set(int64(len(m.queue)))
}

// Metrics returns the registry the manager publishes into.
func (m *Manager) Metrics() *metrics.Registry { return m.reg }

// Workers returns the worker-pool size.
func (m *Manager) Workers() int { return m.cfg.Workers }

// Submit validates, journals, and enqueues a job, returning its ID. The
// journal append (with fsync) happens before the ID is returned: an
// acknowledged submission survives any crash. A full queue fails fast
// with ErrQueueFull; after Close it fails with ErrClosed.
func (m *Manager) Submit(spec Spec) (string, error) {
	if err := m.Validate(&spec); err != nil {
		return "", err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return "", ErrClosed
	}
	// Submit is the only sender once workers are running and it holds
	// m.mu, so checking capacity up front (before paying for the journal
	// fsync) is race-free and the send below can never block.
	if len(m.queue) == cap(m.queue) {
		m.mRejected.Inc()
		return "", ErrQueueFull
	}
	j := &job{
		id:     m.ids.Next(),
		spec:   spec,
		status: StatusQueued,
	}
	m.startJobSpan(j)
	if m.cfg.Journal != nil {
		js := j.span.Child("journal.submit")
		err := m.cfg.Journal.LogSubmit(j.id, spec)
		js.EndErr(err)
		if err != nil {
			// Not acknowledged, not enqueued. The ID stays burned: a torn
			// frame may still replay, so reusing it could collide.
			j.span.EndErr(err)
			return "", err
		}
	}
	// Queue wait starts here, not before the journal's fsync, which the
	// journal.submit span already reports.
	j.enqueued = time.Now()
	m.queue <- j
	m.jobs[j.id] = j
	m.mSubmitted.Inc()
	m.gQueueDepth.Set(int64(len(m.queue)))
	m.log.Info("job submitted", "job", j.id, "trace", j.span.TraceID(),
		"site", spec.Site, "criteria", spec.Criteria)
	return j.id, nil
}

// maxScale is the largest site scale a job may ask for. Every caller in
// the repository uses at most 1. Measured on a 2-core Intel Xeon with
// go1.24.0: one `webslice slice -site bing -scale 2` (render plus both
// passes) peaked at 539–542 MiB of RSS over 3 runs. websliced on the
// default 4 workers, given the four named sites at the cap with both
// criteria each (8 jobs, so two distinct traces in flight at a time),
// peaked at 1,177–1,356 MiB of VmHWM over 3 runs. Rendering one trace per
// job, so with four traces in flight, the same 8 jobs peaked at
// 2,387–2,589 MiB; four distinct sites in flight at once still hold four.
// At scale 64 a single render was OOM-killed at 7.9 GB.
const maxScale = 2

// maxUploadRecs is the most records an upload may declare. A decoded
// upload holds 28 bytes a record while it is sliced, and nothing else
// bounds what a hostile upload makes a worker hold. It is the power of two
// above the largest render the service admits: Bing at maxScale is
// 7,782,104 records.
const maxUploadRecs = 1 << 23

// Validate is the admission check of both roles: Submit runs it, and a
// coordinator runs its own manager's before it routes a job, so that what
// no worker would admit is refused at the edge with the worker's answer. It
// refuses an upload over Config.MaxTraceBytes or declaring more than
// maxUploadRecs records (ErrTraceTooLarge), an upload that is not a v3
// trace whose index and footer parse, unknown criteria or site, and a scale
// outside (0, maxScale]. It fills in the defaults: pixels criteria and, for
// a site, scale 1. Nothing is rendered or decoded.
func (m *Manager) Validate(spec *Spec) error {
	if m.cfg.MaxTraceBytes > 0 && int64(len(spec.Trace)) > m.cfg.MaxTraceBytes {
		return fmt.Errorf("%w: %d bytes (limit %d)", ErrTraceTooLarge, len(spec.Trace), m.cfg.MaxTraceBytes)
	}
	switch spec.Criteria {
	case "":
		spec.Criteria = "pixels"
	case "pixels", "syscalls":
	default:
		return fmt.Errorf("service: unknown criteria %q (want pixels or syscalls)", spec.Criteria)
	}
	if len(spec.Trace) > 0 {
		// Reject what no worker could decode at submission time: bytes that
		// are not a trace, a trace in a format other than v3, or a v3 index
		// or footer that does not parse would only fail later inside a
		// worker, burning a queue slot and reporting the error
		// asynchronously. Opening decodes no block, so the record count
		// the index declares is checked before any memory is spent on it.
		switch v := trace.FormatVersion(spec.Trace); v {
		case 3:
		case 0:
			return fmt.Errorf("service: submitted body is not a WSLT trace")
		default:
			return fmt.Errorf("service: submitted trace is format version %d; only version 3 is accepted", v)
		}
		br, err := trace.OpenV3(spec.Trace)
		if err != nil {
			return fmt.Errorf("service: submitted trace: %w", err)
		}
		if n := br.NumRecs(); n > maxUploadRecs {
			return fmt.Errorf("%w: %d records (limit %d)", ErrTraceTooLarge, n, maxUploadRecs)
		}
		return nil
	}
	if spec.Site == "" && spec.Seed != 0 {
		// Property-generated mini-site: fixed-size, so Scale is ignored.
		return nil
	}
	switch {
	case spec.Scale == 0:
		spec.Scale = 1.0
	case !(spec.Scale > 0) || spec.Scale > maxScale:
		// Catches negatives, NaN (fails every comparison), +Inf, and
		// renders too large to admit.
		return fmt.Errorf("service: invalid scale %v (must be a number > 0 and at most %v)", spec.Scale, maxScale)
	}
	return sites.CheckName(spec.Site)
}

// lookup finds a job.
func (m *Manager) lookup(id string) (*job, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if j, ok := m.jobs[id]; ok {
		return j, nil
	}
	return nil, unknownJob(id)
}

// Info returns a snapshot of the job.
func (m *Manager) Info(id string) (Info, error) {
	j, err := m.lookup(id)
	if err != nil {
		return Info{}, err
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	info := Info{
		ID:       j.id,
		Status:   j.status,
		Site:     j.spec.Site,
		Seed:     j.spec.Seed,
		Criteria: j.spec.Criteria,
		Error:    j.err,
		Attempts: j.attempts,
		Node:     m.cfg.Node,
		Origin:   j.spec.Origin,
	}
	if j.result != nil {
		info.CacheHit = j.result.CacheHit
	}
	if !j.started.IsZero() {
		info.QueueMs = float64(j.started.Sub(j.enqueued)) / float64(time.Millisecond)
		end := j.finished
		if end.IsZero() {
			end = time.Now()
		}
		info.RunMs = float64(end.Sub(j.started)) / float64(time.Millisecond)
	}
	return info, nil
}

// Result returns a finished job's result.
func (m *Manager) Result(id string) (*Result, error) {
	j, err := m.lookup(id)
	if err != nil {
		return nil, err
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.status != StatusDone {
		return nil, fmt.Errorf("%w: job %s is %s, not done", ErrJobState, id, j.status)
	}
	return j.result, nil
}

// Cancel marks a job canceled. A queued job never runs; a running job's
// context is canceled so it stops at its next poll.
func (m *Manager) Cancel(id string) error {
	j, err := m.lookup(id)
	if err != nil {
		return err
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.status.Terminal() {
		return fmt.Errorf("%w: job %s is %s, already finished", ErrJobState, id, j.status)
	}
	j.cancel = true
	if j.stopRun != nil {
		j.stopRun()
	}
	return nil
}

// Quarantined lists the poisoned jobs — those that panicked
// quarantineAfter times and were pulled from rotation — oldest first.
func (m *Manager) Quarantined() []Info {
	m.mu.Lock()
	ids := append([]string(nil), m.quarantine...)
	m.mu.Unlock()
	out := make([]Info, 0, len(ids))
	for _, id := range ids {
		if info, err := m.Info(id); err == nil {
			out = append(out, info)
		}
	}
	return out
}

// Draining reports whether shutdown has begun: submissions are rejected but
// accepted jobs may still be running. Health endpoints use this to flip a
// load balancer away from the instance before the drain completes.
func (m *Manager) Draining() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.closed
}

// Close stops accepting jobs, drains everything already accepted (queued
// jobs run to completion), and returns once every worker has exited. The
// journal, if any, is compacted and closed.
func (m *Manager) Close() {
	m.beginShutdown()
	m.wg.Wait()
	if m.cfg.Journal != nil {
		m.cfg.Journal.Close()
	}
}

// Drain is Close with a deadline: it stops accepting jobs and waits up to
// timeout for accepted work to finish. On expiry the remaining jobs are
// abandoned *into the journal* — workers stop without journaling
// terminals, so the unfinished jobs stay pending and the next boot
// re-runs them — and Drain returns false.
func (m *Manager) Drain(timeout time.Duration) bool {
	m.beginShutdown()
	done := make(chan struct{})
	go func() {
		m.wg.Wait()
		close(done)
	}()
	t := time.NewTimer(timeout)
	defer t.Stop()
	select {
	case <-done:
		if m.cfg.Journal != nil {
			m.cfg.Journal.Close()
		}
		return true
	case <-t.C:
		m.killed.Store(true)
		m.baseCancel()
		m.wg.Wait()
		if m.cfg.Journal != nil {
			m.cfg.Journal.Close()
		}
		return false
	}
}

// Kill is the chaos harness's simulated crash: the journal stops writing
// (as a dead process would), in-flight work is canceled, and nothing is
// drained gracefully. The manager is unusable afterward.
func (m *Manager) Kill() {
	if m.cfg.Journal != nil {
		m.cfg.Journal.disable()
	}
	m.killed.Store(true)
	m.beginShutdown()
	m.baseCancel()
	m.wg.Wait()
}

func (m *Manager) beginShutdown() {
	m.mu.Lock()
	if !m.closed {
		m.closed = true
		close(m.queue)
	}
	m.mu.Unlock()
}

func (m *Manager) worker() {
	defer m.wg.Done()
	for j := range m.queue {
		m.gQueueDepth.Set(int64(len(m.queue)))
		if m.killed.Load() {
			m.drop(j)
			continue
		}
		now := time.Now()
		j.mu.Lock()
		if j.cancel {
			j.mu.Unlock()
			m.finish(j, StatusCanceled, nil, ErrCanceled)
			continue
		}
		j.status = StatusRunning
		j.started = now
		j.mu.Unlock()
		wait := float64(now.Sub(j.enqueued)) / float64(time.Millisecond)
		m.hQueueWait.ObserveExemplar(wait, j.span.TraceID())
		j.span.ChildAt("queue.wait", j.enqueued, now)
		m.log.Debug("job started", "job", j.id, "trace", j.span.TraceID(), "queue_ms", wait)
		m.gPeak.SetMax(m.gRunning.Add(1))
		m.execute(j)
		m.gRunning.Add(-1)
	}
}

// execute runs a job to a terminal state. An error is final: the job's
// trace and its criteria determine what run returns, so another attempt
// could only repeat the error. Only a panic gets another attempt, at once,
// and the quarantineAfter-th panic quarantines the job. A job that shutdown
// abandons gets no terminal at all (the journal then re-runs it next boot).
func (m *Manager) execute(j *job) {
	for {
		j.mu.Lock()
		j.attempts++
		attempts := j.attempts
		j.mu.Unlock()
		res, err := m.attempt(j, attempts)
		switch {
		case m.killed.Load():
			m.drop(j)
			return
		case err == nil:
			m.finish(j, StatusDone, res, nil)
			return
		case j.canceled():
			m.finish(j, StatusCanceled, nil, ErrCanceled)
			return
		case !errors.Is(err, ErrJobPanicked):
			m.finish(j, StatusFailed, nil, err)
			return
		case attempts >= quarantineAfter:
			// Every attempt so far panicked, so attempts counts the panics.
			m.finish(j, StatusQuarantined, nil, err)
			return
		}
		j.span.Event("retry",
			obs.Attr{K: "attempt", V: strconv.Itoa(attempts)},
			obs.Attr{K: "error", V: err.Error()})
		m.mRetried.Inc()
		m.log.Warn("job retrying", "job", j.id, "trace", j.span.TraceID(),
			"attempt", attempts, "error", err)
	}
}

// attempt runs the runner once with a per-job context and converts panics
// into ErrJobPanicked so one poisoned job cannot take the daemon down. The
// attempt's span rides the context (obs.FromContext) so the runner's
// phases parent under it.
func (m *Manager) attempt(j *job, n int) (res *Result, err error) {
	ctx := m.baseCtx
	var cancel context.CancelFunc
	if m.cfg.JobTimeout > 0 {
		ctx, cancel = context.WithTimeout(ctx, m.cfg.JobTimeout)
	} else {
		ctx, cancel = context.WithCancel(ctx)
	}
	defer cancel()
	j.mu.Lock()
	j.stopRun = cancel
	if j.cancel {
		cancel() // Cancel won the race with attempt setup
	}
	j.mu.Unlock()
	as := j.span.Child("attempt").Set("n", strconv.Itoa(n))
	ctx = obs.ContextWith(ctx, as)
	defer func() {
		j.mu.Lock()
		j.stopRun = nil
		j.mu.Unlock()
		if r := recover(); r != nil {
			m.mPanicked.Inc()
			res, err = nil, fmt.Errorf("%w: %v", ErrJobPanicked, r)
		}
		as.EndErr(err)
	}()
	res, err = m.cfg.Runner(ctx, j.spec)
	if err != nil && errors.Is(ctx.Err(), context.DeadlineExceeded) {
		err = fmt.Errorf("%w after %v", ErrJobTimeout, m.cfg.JobTimeout)
	}
	return res, err
}

// finish journals the terminal state, then publishes it. The ordering is
// the no-duplicates contract: a client can only observe a terminal status
// that is already durable, so replay never re-runs such a job.
func (m *Manager) finish(j *job, st Status, res *Result, err error) {
	if m.cfg.Journal != nil {
		ts := j.span.Child("journal.terminal").Set("terminal", string(st))
		m.cfg.Journal.LogTerminal(j.id, st)
		ts.End()
	}
	// Count the job, and list it if quarantined, before publishing its
	// status: an observer that sees the terminal status must also find the
	// job in Quarantined() and in the counters.
	switch st {
	case StatusDone:
		m.mDone.Inc()
	case StatusFailed:
		m.mFailed.Inc()
	case StatusCanceled:
		m.mCanceled.Inc()
	case StatusQuarantined:
		m.mQuarantined.Inc()
		m.mu.Lock()
		m.quarantine = append(m.quarantine, j.id)
		m.mu.Unlock()
	}
	end := time.Now()
	j.mu.Lock()
	j.finished = end
	j.status = st
	j.result = res
	if err != nil {
		j.err = err.Error()
	}
	// No attempt can run again, and the journal dropped its record above:
	// free the upload now rather than with the job table.
	j.spec.Trace = nil
	started := j.started
	j.mu.Unlock()
	var runMs float64
	if !started.IsZero() {
		runMs = float64(end.Sub(started)) / float64(time.Millisecond)
		m.hRun.ObserveExemplar(runMs, j.span.TraceID())
	}
	if st == StatusQuarantined {
		j.span.Event("quarantine")
	}
	j.span.Set("status", string(st))
	j.span.EndErr(err)
	m.log.Info("job finished", "job", j.id, "trace", j.span.TraceID(),
		"status", string(st), "run_ms", runMs, "error", err)
}

// drop abandons a job during a killed shutdown: the in-memory table shows
// it canceled for any late observer, but no terminal is journaled — the
// job is still pending on disk and the next boot re-runs it.
func (m *Manager) drop(j *job) {
	j.mu.Lock()
	abandoned := !j.status.Terminal()
	if abandoned {
		j.status = StatusCanceled
		j.err = "abandoned by shutdown (still pending in journal)"
		j.finished = time.Now()
	}
	j.mu.Unlock()
	if abandoned {
		j.span.Set("status", string(StatusCanceled)).Set("abandoned", "true")
		j.span.End()
	}
}

// run is the default pipeline: obtain the trace (decode or render), find its
// forward pass, slice, and package the statistics. An unverified job first
// looks its whole result up by JobKey, and a hit skips all of that. The jobs
// of one JobKey in flight together share one trace and one forward pass
// (traceShares). The context's deadline/cancellation is polled at phase
// boundaries and, through slicer.Options.Canceled, inside the backward walk
// itself.
func (m *Manager) run(ctx context.Context, spec Spec) (*Result, error) {
	s := obs.FromContext(ctx) // the attempt's span; nil (inert) with tracing off
	var crit slicer.Criteria = slicer.PixelCriteria{}
	if spec.Criteria == "syscalls" {
		crit = slicer.SyscallCriteria{}
	}
	verify := spec.Verify || m.cfg.Verify
	jk := JobKey(spec)
	// rkey is the job's result-cache key, "" when there is no lookup.
	// Verified jobs bypass the result cache, so the invariant oracles always
	// check a freshly computed slice.
	depsKey, rkey := "", ""
	if m.cfg.Store != nil {
		depsKey, rkey = storeKeys(jk, crit, core.AnalysisVersion)
		if verify {
			rkey = ""
		} else if res, ok := m.cachedResult(s, rkey); ok {
			return res, nil
		}
	}
	obtainName := "render"
	if len(spec.Trace) > 0 {
		obtainName = "trace.open"
	}
	sh, err := m.shares.acquire(ctx, s, obtainName, jk, spec)
	if err != nil {
		return nil, err
	}
	// Nothing reads the trace once run returns: the Result holds none of it.
	defer m.shares.release(jk, sh)
	if ctx.Err() != nil {
		return nil, ErrCanceled
	}
	t := sh.t
	p := core.NewProfiler(t)
	p.Opts.Canceled = func() bool { return ctx.Err() != nil }
	p.VerifyInvariants = verify
	ss := s.Child("slice").Set("criteria", spec.Criteria)
	p.Obs = ss // forward-pass store operations, both passes, and verification parent here
	err = m.forward(sh, p, depsKey)
	var res *slicer.Result
	if err == nil {
		res, err = p.Slice(crit)
	}
	ss.EndErr(err)
	if err != nil {
		if errors.Is(err, slicer.ErrCanceled) {
			return nil, ErrCanceled
		}
		return nil, err
	}
	if ctx.Err() != nil {
		return nil, ErrCanceled
	}
	out := &Result{
		TraceKey:    jk,
		SliceDigest: store.SliceDigest(res),
		Criteria:    res.Criteria,
		Total:       res.Total,
		SliceCount:  res.SliceCount,
		SlicePct:    res.Percent(),
		Verified:    verify,
		Categories:  make(map[string]float64, len(analysis.Categories)),
	}
	for _, th := range t.Threads {
		out.Threads = append(out.Threads, ThreadStat{
			ID:     th.ID,
			Name:   th.Name,
			Total:  res.ByThread[th.ID],
			Sliced: res.SliceByThread[th.ID],
		})
	}
	dist := analysis.Categorize(t, res)
	for _, c := range analysis.Categories {
		out.Categories[c] = dist.Share[c]
	}
	if rkey != "" {
		if err := m.putResult(s, rkey, out); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// JobKey is the one content address of the trace a job slices, independent
// of its criteria: a hex SHA-256. An upload's is store.KeyBytes of its
// bytes, what sha256sum prints for the file. A site or seed job's is the
// SHA-256 of its rendering identity and browser.RenderVersion, where the
// identity is "site\x00<name>\x00<scale>", with scale 0 read as 1, or
// "seed\x00<N>". Rendering is deterministic, so under one RenderVersion an
// identity denotes one trace on every node, and no render is hashed. The
// cluster routes every job by its JobKey, so both criteria of one trace
// share an owner and its forward pass; both store keys of a job derive
// from it (storeKeys); and it is the job's Result.TraceKey.
func JobKey(spec Spec) string {
	if len(spec.Trace) > 0 {
		return store.KeyBytes(spec.Trace)
	}
	var id string
	if spec.Site == "" && spec.Seed != 0 {
		id = "seed\x00" + strconv.FormatUint(spec.Seed, 10)
	} else {
		scale := spec.Scale
		if scale == 0 {
			scale = 1.0
		}
		id = "site\x00" + spec.Site + "\x00" + strconv.FormatFloat(scale, 'g', -1, 64)
	}
	return store.KeyBytes([]byte(id + "\x00" + strconv.Itoa(browser.RenderVersion)))
}

// storeKeys derives a job's two store keys from its JobKey: the forward
// pass of its trace, which both criteria share, and its finished result
// under crit. Each is the hex SHA-256 of the JobKey, the artifact and
// analysis, the version of the code that computed it; run passes
// core.AnalysisVersion. A job slices with no options, so the result's
// artifact names only its criterion. A bump of either version moves every
// key once, so older blobs are orphaned, never misread, and the store's LRU
// evicts them.
func storeKeys(jobKey string, crit slicer.Criteria, analysis int) (deps, result string) {
	key := func(artifact string) string {
		return store.KeyBytes([]byte(jobKey + "\x00" + artifact + "\x00" + strconv.Itoa(analysis)))
	}
	return key(store.KindDeps), key("slice-" + crit.Name())
}

// depsSpanKind is the kind attribute of a forward pass's store spans. It is
// not the store's kind string, store.KindDeps: span readers (e2ebench's
// store rows among them) select these spans by "deps".
const depsSpanKind = "deps"

// forward hands p the forward pass of the trace in sh: the pass a holder
// of sh loaded or computed before, else the store's under key, else one p
// computes. It holds sh.fwd until the pass is in sh, and stores a pass it
// computed only after releasing it, so a twin takes the pass without
// waiting for the put. A holder that takes it from sh records its wait as
// a forward span with shared=true, as a waiting holder's obtain span is. A
// failed or canceled pass leaves sh without one.
func (m *Manager) forward(sh *traceShare, p *core.Profiler, key string) error {
	computed, err := m.forwardLocked(sh, p, key)
	if err == nil && computed && m.cfg.Store != nil {
		ps := m.storeSpan(p.Obs, "store.put", depsSpanKind)
		m.cfg.Store.PutDeps(key, p.Deps)
		ps.End()
	}
	return err
}

// forwardLocked is forward's part under sh.fwd. It reports whether p
// computed the pass.
func (m *Manager) forwardLocked(sh *traceShare, p *core.Profiler, key string) (computed bool, err error) {
	waitStart := time.Now()
	sh.fwd.Lock()
	defer sh.fwd.Unlock()
	if sh.deps != nil {
		p.Obs.ChildAt("forward", waitStart, time.Now(), obs.Attr{K: "shared", V: "true"})
		p.Deps = sh.deps
		return false, nil
	}
	if m.cfg.Store != nil {
		// A decode or corruption error is a miss, not a failure.
		gs := m.storeSpan(p.Obs, "store.get", depsSpanKind)
		d, ok, _ := m.cfg.Store.GetDeps(key)
		gs.Set("hit", strconv.FormatBool(ok))
		gs.End()
		p.Deps = d
	}
	if p.Deps == nil {
		if err := p.Forward(); err != nil {
			return false, err
		}
		computed = true
	}
	sh.deps = p.Deps
	return computed, nil
}

// cachedResult looks a finished result up in the store and marks it a
// cache hit. A failed Get (a corrupt blob, which the store evicts, or a
// failing disk) and a blob that does not decode are misses, not job
// failures; the recomputed result then overwrites the entry.
func (m *Manager) cachedResult(s *obs.Span, key string) (*Result, bool) {
	gs := m.storeSpan(s, "store.get", store.KindResult)
	b, ok, _ := m.cfg.Store.Get(store.KindResult, key)
	var res Result
	ok = ok && json.Unmarshal(b, &res) == nil
	gs.Set("hit", strconv.FormatBool(ok))
	gs.End()
	if !ok {
		return nil, false
	}
	res.CacheHit = true
	return &res, true
}

// putResult stores a finished result for later repeats of its job.
func (m *Manager) putResult(s *obs.Span, key string, res *Result) error {
	ps := m.storeSpan(s, "store.put", store.KindResult)
	b, err := json.Marshal(res)
	if err == nil {
		m.cfg.Store.Put(store.KindResult, key, b)
	}
	ps.EndErr(err)
	if err != nil {
		return fmt.Errorf("service: encoding result: %w", err)
	}
	return nil
}

// storeSpan starts a child span for one store operation on either artifact,
// annotated with its kind and the disk breaker's state (closed, half-open or
// open), so degraded-store jobs are visible in traces. Nil-safe: with
// tracing off it returns nil and reads no breaker state.
func (m *Manager) storeSpan(parent *obs.Span, op, kind string) *obs.Span {
	if parent == nil {
		return nil
	}
	return parent.Child(op).
		Set("kind", kind).
		Set("breaker", m.cfg.Store.BreakerState().String())
}

// recArrays recycles the record arrays that upload decodes fill, so a
// daemon slicing upload after upload does not allocate, zero and collect a
// new array of 28 bytes a record for every job.
var recArrays sync.Pool // of *[]trace.Rec

// maxPooledRecs is the largest array recArrays keeps (28 MiB): a bigger
// one, from a rare huge upload, is left to the collector instead of staying
// pinned in the pool.
const maxPooledRecs = 1 << 20

func getRecs() []trace.Rec {
	if p, ok := recArrays.Get().(*[]trace.Rec); ok {
		return *p
	}
	return nil
}

func putRecs(recs []trace.Rec) {
	if cap(recs) > 0 && cap(recs) <= maxPooledRecs {
		recArrays.Put(&recs)
	}
}

// obtainTrace decodes an upload or renders a site: the obtain step of the
// trace shared by the jobs of one JobKey. For an upload, free hands the
// record array back to recArrays: the pooled one the decode filled, or the
// new one it had to allocate.
func obtainTrace(spec Spec) (*trace.Trace, func(), error) {
	if len(spec.Trace) > 0 {
		// A submission is decoded once, here; both passes walk the records.
		br, err := trace.OpenV3(spec.Trace)
		if err != nil {
			return nil, nil, fmt.Errorf("service: decoding submitted trace: %w", err)
		}
		recs := getRecs()
		t, err := br.ReadAllInto(recs)
		if err != nil {
			return nil, nil, fmt.Errorf("service: decoding submitted trace: %w", err)
		}
		if cap(t.Recs) > cap(recs) {
			recs = t.Recs
		}
		return t, func() { putRecs(recs) }, nil
	}
	var b sites.Benchmark
	if spec.Site == "" && spec.Seed != 0 {
		b = sites.Random(spec.Seed)
	} else {
		var err error
		b, err = sites.ByName(spec.Site, sites.Options{Scale: spec.Scale})
		if err != nil {
			return nil, nil, err
		}
	}
	br := browser.New(b.Site, b.Profile)
	br.RunSession()
	if len(br.Errors) > 0 {
		return nil, nil, fmt.Errorf("service: rendering %s: %w", b.Name, br.Errors[0])
	}
	return br.M.Tr, nil, nil
}
