package cluster

import (
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"strconv"
	"sync"
	"time"

	"webslice/internal/metrics"
	"webslice/internal/obs"
	"webslice/internal/service"
)

// JobKey is service.JobKey, the distribution identity the ring hashes to
// pick an owner. It remains here for e2ebench's layer timer.
//
// Deprecated: call service.JobKey.
func JobKey(spec service.Spec) string { return service.JobKey(spec) }

// forwardTimeout bounds each request to a worker; trace uploads can be
// large.
const forwardTimeout = 60 * time.Second

// Config wires a Coordinator.
type Config struct {
	// Self is this node's advertised base URL. A peer equal to Self is
	// the local manager, called in process instead of over HTTP.
	Self string
	// Local is the coordinator's own manager: the executor for jobs the
	// ring assigns to Self, and the fallback when every remote candidate
	// is unreachable.
	Local *service.Manager
	// Peers are the ring members' base URLs. Self may be included (the
	// coordinator then takes its fair share of the key space); if absent,
	// the coordinator only executes fallback work.
	Peers []string
	// ProbeInterval / FailThreshold configure health checking (see
	// MembershipConfig).
	ProbeInterval time.Duration
	FailThreshold int
	// Logger receives structured routing logs (routed, rerouted,
	// backpressure, evictions) carrying job and trace IDs. Nil discards.
	Logger *slog.Logger
}

// routedJob is the coordinator's record of one admitted job.
type routedJob struct {
	id string
	// spec is what route submits. Its Trace is set to nil, under mu, once
	// the job is no longer reroutable, so a finished upload is freed.
	spec service.Spec
	key  string
	// traceCtx is the root "route" span's identity — the trace every later
	// span of this job (worker-side included, via the traceparent header)
	// belongs to. Written once in Submit, before the job is visible.
	traceCtx obs.SpanContext

	// move lets one re-route of the job run at a time (see reroute).
	move sync.Mutex

	mu sync.Mutex
	// peer is the URL of the node that owns the job, cfg.Self for the
	// local manager, and peerID the job's id there.
	peer, peerID string
	reroutes     int
	// lastInfo is the freshest snapshot: the owner's last answer, or the
	// coordinator's own (setInfoLocked) after a route, a failed re-route
	// or a cancel of a lost job. It is served while the owner is
	// unreachable or has lost the job.
	lastInfo service.Info
	// result caches the fetched result so a worker dying after the fetch
	// costs nothing. Info fetches it as soon as the owner reports done, so
	// a job published done always has one. A result, or a terminal
	// lastInfo, settles the job: it never runs again.
	result *service.Result
}

// reroutableLocked reports whether the job would have to run again if its
// owner lost it: it has no result and no terminal status. Only such a job
// still needs its upload. j.mu must be held.
func (j *routedJob) reroutableLocked() bool {
	return j.result == nil && !j.lastInfo.Status.Terminal()
}

// releaseLocked frees the job's upload once no re-route can need it.
// j.mu must be held.
func (j *routedJob) releaseLocked() {
	if !j.reroutableLocked() {
		j.spec.Trace = nil
	}
}

// setInfoLocked records the coordinator's own snapshot of j: status st on
// its owner, with msg as its error. j.mu must be held.
func (j *routedJob) setInfoLocked(st service.Status, msg string) {
	j.lastInfo = service.Info{ID: j.id, Status: st, Site: j.spec.Site, Seed: j.spec.Seed,
		Criteria: j.spec.Criteria, Error: msg, Node: j.peer, Reroutes: j.reroutes}
	j.releaseLocked()
}

// Coordinator admits jobs, routes each to its ring owner, and proxies
// status/result polls under its own job ids. Every owner, the local
// manager included, answers the same service.Jobs calls. A worker evicted
// from the ring has its pending jobs re-routed to the keys' new owners —
// safe because slicing is deterministic and idempotent (a re-run of the
// same trace is at worst a cache miss). It is the service.Backend that the
// coordinator's handler serves.
type Coordinator struct {
	cfg     Config
	ring    *Ring
	members *Membership
	// owners answers the job calls of every node a job can run on, by URL:
	// the local manager under cfg.Self, a client of each peer. Written
	// once in New.
	owners map[string]service.Jobs
	// reg and tracer are the local manager's: the routing counters and
	// spans land beside its own, so a locally executed job's route and
	// worker spans share one ring. tracer is nil with tracing off.
	reg    *metrics.Registry
	tracer *obs.Tracer
	log    *slog.Logger
	ids    *service.IDs

	mu   sync.Mutex
	jobs map[string]*routedJob

	cRouted, cLocal, cForwardFailed  *metrics.Counter
	cRerouted, cAffinity, cFallbacks *metrics.Counter
}

// New builds a coordinator and its membership. Call Start to begin health
// probing and Stop on shutdown.
func New(cfg Config) *Coordinator {
	if cfg.Local == nil {
		panic("cluster: Config.Local is required")
	}
	reg := cfg.Local.Metrics()
	logger := cfg.Logger
	if logger == nil {
		logger = obs.NopLogger()
	}
	ring := NewRing()
	hc := &http.Client{Timeout: forwardTimeout}
	owners := map[string]service.Jobs{cfg.Self: cfg.Local}
	var remote []string
	for _, p := range cfg.Peers {
		if p == cfg.Self {
			ring.Add(p) // self is always alive; never probed or evicted
			continue
		}
		remote = append(remote, p)
		owners[p] = service.NewClient(p, hc)
	}
	c := &Coordinator{
		cfg:            cfg,
		ring:           ring,
		owners:         owners,
		reg:            reg,
		tracer:         cfg.Local.Tracer(),
		log:            logger,
		ids:            service.NewIDs('c'),
		jobs:           make(map[string]*routedJob),
		cRouted:        reg.Counter("cluster_jobs_routed"),
		cLocal:         reg.Counter("cluster_jobs_local"),
		cForwardFailed: reg.Counter("cluster_forward_failed"),
		cRerouted:      reg.Counter("cluster_jobs_rerouted"),
		cAffinity:      reg.Counter("cluster_affinity_hits"),
		cFallbacks:     reg.Counter("cluster_local_fallbacks"),
	}
	c.members = NewMembership(ring, MembershipConfig{
		Peers:         remote,
		ProbeInterval: cfg.ProbeInterval,
		FailThreshold: cfg.FailThreshold,
		Metrics:       reg,
		OnEvict:       c.handleEvict,
	})
	return c
}

// Start begins periodic health probing.
func (c *Coordinator) Start() { c.members.Start() }

// Stop ends health probing. The local manager is not closed — the caller
// owns its lifecycle.
func (c *Coordinator) Stop() { c.members.Stop() }

// Ring returns the routing ring (all currently-live members, self
// included when configured as a peer).
func (c *Coordinator) Ring() *Ring { return c.ring }

// Members snapshots the probed peers' health states.
func (c *Coordinator) Members() []MemberState { return c.members.Members() }

// Metrics returns the registry the coordinator publishes into.
func (c *Coordinator) Metrics() *metrics.Registry { return c.reg }

// Tracer returns the tracer of the routing spans (nil with tracing off).
func (c *Coordinator) Tracer() *obs.Tracer { return c.tracer }

// Quarantined lists the local manager's poisoned jobs. Quarantine is
// node-local state: each worker serves its own list.
func (c *Coordinator) Quarantined() []service.Info { return c.cfg.Local.Quarantined() }

// Draining reports whether the local manager's shutdown has begun.
func (c *Coordinator) Draining() bool { return c.cfg.Local.Draining() }

// Health returns the coordinator's /healthz fields: its role and ring
// size.
func (c *Coordinator) Health() map[string]any {
	return map[string]any{"role": "coordinator", "ring_size": c.ring.Len()}
}

// peerCounter names a per-peer counter, e.g.
// cluster_routed_peer_http_127_0_0_1_8078.
func (c *Coordinator) peerCounter(kind, peer string) *metrics.Counter {
	return c.reg.Counter("cluster_" + kind + "_peer_" + metrics.SanitizeName(peer))
}

// Submit admits a job: the ring picks the owner for the job's key, the
// spec is submitted there (to the local manager when the owner is Self),
// and a coordinator-scoped id is returned, from service.IDs, which no
// other boot of a coordinator issues. Unreachable candidates
// are skipped — their failures feed the membership's eviction counter —
// and when no ring member accepts the job it falls back to local
// execution, so a lone coordinator still makes progress. A 429 from the
// owner is backpressure, not failure: it propagates to the caller rather
// than stampeding a colder node. The local manager's admission check
// (service.Manager.Validate) runs first, so a spec or upload that no worker
// would admit is refused here, with the answer a worker gives, and reaches
// no worker. Once the local manager drains, Submit refuses with
// service.ErrClosed, as a draining worker does: the job ids it would hand
// out end with the coordinator.
func (c *Coordinator) Submit(spec service.Spec) (string, error) {
	if err := c.cfg.Local.Validate(&spec); err != nil {
		return "", err
	}
	if c.cfg.Local.Draining() {
		return "", service.ErrClosed
	}
	key := service.JobKey(spec)
	id := c.ids.Next()
	// The "route" span roots the job's trace (or joins the submitter's, if
	// the request carried a traceparent header); the owner's "job" span
	// parents under it via the forwarded header, so one trace spans the
	// coordinator and the worker. A JobKey is 64 hex chars, of which the
	// first 12 identify the job as well as a git short hash does.
	rs := c.tracer.Remote(spec.TraceCtx, "route").Set("job", id).Set("key", key[:12])
	j := &routedJob{id: id, spec: spec, key: key, traceCtx: rs.Context()}
	err := c.route(j, rs)
	rs.EndErr(err)
	if err != nil {
		return "", err
	}
	c.log.Info("job routed", "job", id, "trace", rs.TraceID(), "peer", j.peer) // j is not visible yet
	c.mu.Lock()
	c.jobs[id] = j
	c.mu.Unlock()
	return id, nil
}

// route assigns j to the best live candidate and submits it there. Called
// for initial submission and again (with j.reroutes incremented) when an
// owner loses it. The candidates are the ring's owners of j's key in
// order, then the local manager as the fallback. s is the span the routing
// decision is recorded under (the root "route" span, or a "reroute" span
// after a loss): each skipped or refusing candidate becomes an event on
// it, so the trace shows *why* the job landed where it did.
func (c *Coordinator) route(j *routedJob, s *obs.Span) error {
	j.mu.Lock()
	fwd, reroutable := j.spec, j.reroutableLocked()
	j.mu.Unlock()
	if !reroutable {
		// The result, or a failure, arrived while an eviction was setting
		// up this re-route, and the upload may be freed already.
		s.Event("route.settled")
		return nil
	}
	fwd.Origin = c.cfg.Self
	fwd.TraceCtx = s.Context()
	ring := c.ring.Owners(j.key, c.ring.Len())
	var err error
	for i, peer := range append(ring, c.cfg.Self) {
		if i == len(ring) {
			// No ring member took it: run it here.
			c.cFallbacks.Inc()
			s.Event("local.fallback")
		} else if peer != c.cfg.Self && !c.members.Alive(peer) {
			s.Event("peer.dead", obs.Attr{K: "peer", V: peer})
			continue
		}
		// "peer.submit", not "forward": the profiler's forward *pass* span
		// already owns that name, and the two meet in one merged trace.
		fs := s.Child("peer.submit").Set("peer", peer)
		var peerID string
		peerID, err = c.owners[peer].Submit(fwd)
		fs.EndErr(err)
		if errors.Is(err, service.ErrUnreachable) {
			s.Event("peer.unreachable",
				obs.Attr{K: "peer", V: peer},
				obs.Attr{K: "error", V: err.Error()})
			c.cForwardFailed.Inc()
			c.peerCounter("forward_failed", peer).Inc()
			c.members.ReportFailure(peer)
			continue
		}
		if err != nil {
			// The owner answered: this is an application error
			// (backpressure, invalid spec, oversized trace), not a dead
			// node. Propagate it, code and Retry-After included. A 429
			// gets its own event carrying the peer's Retry-After and the
			// owner hint, so backpressure is visible in the trace, not
			// just in the client's response.
			var refused *service.APIError
			if errors.As(err, &refused) && refused.Code == http.StatusTooManyRequests {
				s.Event("peer.backpressure",
					obs.Attr{K: "peer", V: peer},
					obs.Attr{K: "retry_after", V: refused.RetryAfter})
				c.log.Warn("peer backpressure", "job", j.id, "trace", s.TraceID(),
					"peer", peer, "retry_after", refused.RetryAfter)
			}
			return err
		}
		if peer == c.cfg.Self {
			c.cLocal.Inc()
		} else {
			c.cRouted.Inc()
			c.peerCounter("routed", peer).Inc()
		}
		j.mu.Lock()
		placed := j.reroutableLocked()
		if placed {
			j.peer, j.peerID = peer, peerID
			j.setInfoLocked(service.StatusQueued, "")
		}
		j.mu.Unlock()
		if !placed {
			// Settled while it moved, by a cancel of the lost job: the
			// new owner's copy is not wanted. A copy this cancel misses
			// runs once, and nothing reads its result.
			s.Event("route.settled")
			c.owners[peer].Cancel(peerID)
		}
		return nil
	}
	return err // not reached: the local manager, the last candidate, always answers
}

// handleEvict re-routes every non-terminal job owned by the evicted peer.
// Acked jobs survive a worker death the same way they survive a worker
// panic: by being run again somewhere else.
func (c *Coordinator) handleEvict(peer string) {
	type lost struct {
		j      *routedJob
		peerID string
	}
	c.mu.Lock()
	var pending []lost
	for _, j := range c.jobs {
		j.mu.Lock()
		// A job is lost with its worker unless its result already reached
		// the coordinator. Jobs that terminally failed/canceled keep that
		// outcome — re-running them would not change it.
		if j.peer == peer && j.reroutableLocked() {
			pending = append(pending, lost{j, j.peerID})
		}
		j.mu.Unlock()
	}
	c.mu.Unlock()
	for _, l := range pending {
		c.reroute(l.j, peer, l.peerID)
	}
}

// reroute moves j, lost by peer, where it ran as peerID, to the best live
// candidate: peer was evicted, or answered that it no longer knows the
// job. Each loss moves the job once: the move runs only while the job is
// still reroutable and still on peer under peerID. One move of a job runs
// at a time, and a second returns at once, leaving the job to the first.
// The first may be this goroutine's own: route can evict a peer it fails
// to reach, and handleEvict then calls back here.
func (c *Coordinator) reroute(j *routedJob, peer, peerID string) {
	if !j.move.TryLock() {
		return
	}
	defer j.move.Unlock()
	j.mu.Lock()
	if !j.reroutableLocked() || j.peer != peer || j.peerID != peerID {
		j.mu.Unlock() // its result arrived, or it moved, since the loss
		return
	}
	j.reroutes++
	reroutes := j.reroutes
	j.mu.Unlock()
	c.cRerouted.Inc()
	c.peerCounter("rerouted_from", peer).Inc()
	// The reroute span joins the job's existing trace (parented on the
	// original route span), so a job that survives a worker death shows
	// the whole odyssey in one tree.
	rs := c.tracer.Remote(j.traceCtx, "reroute").
		Set("job", j.id).Set("from", peer).Set("n", strconv.Itoa(reroutes))
	c.log.Warn("job rerouted", "job", j.id, "trace", rs.TraceID(), "from", peer, "reroutes", reroutes)
	err := c.route(j, rs)
	rs.EndErr(err)
	if err != nil {
		// Every candidate (including local) refused — typically local
		// backpressure. Surface it as a failed job rather than losing it
		// silently.
		j.mu.Lock()
		if j.reroutableLocked() {
			j.setInfoLocked(service.StatusFailed, fmt.Sprintf("re-route after %s lost the job: %v", peer, err))
		}
		j.mu.Unlock()
	}
}

// peerError sorts an error from peer about j's job there, peerID. Only a
// failure to get an answer counts against the peer's health; an answer
// that the peer does not know the job means it lost the job, as a
// restarted worker without a journal has, and the job moves on.
func (c *Coordinator) peerError(j *routedJob, peer, peerID string, err error) {
	switch {
	case errors.Is(err, service.ErrUnreachable):
		c.members.ReportFailure(peer)
	case errors.Is(err, service.ErrUnknownJob):
		c.reroute(j, peer, peerID)
	}
}

// lookup finds a routed job.
func (c *Coordinator) lookup(id string) (*routedJob, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if j, ok := c.jobs[id]; ok {
		return j, nil
	}
	return nil, fmt.Errorf("%w %q", service.ErrUnknownJob, id)
}

// Info returns a job snapshot under the coordinator's id, with the
// executing node as the owner hint. While the owner is unreachable the
// last observed snapshot is served; the job itself is re-routed when the
// membership evicts the owner, or at once when the owner answers that it
// does not know the job. The coordinator says done only when it holds the
// result: when the owner reports done, Info fetches the result in the
// same call, and reports the job running if that fetch fails.
func (c *Coordinator) Info(id string) (service.Info, error) {
	j, err := c.lookup(id)
	if err != nil {
		return service.Info{}, err
	}
	j.mu.Lock()
	peer, peerID, held := j.peer, j.peerID, j.result != nil
	j.mu.Unlock()
	info, err := c.owners[peer].Info(peerID)
	if err != nil {
		c.peerError(j, peer, peerID, err)
		j.mu.Lock()
		defer j.mu.Unlock()
		return j.lastInfo, nil // stale, or queued on the job's new owner
	}
	if info.Status == service.StatusDone && !held {
		if _, err := c.fetchResult(j, peer, peerID); err != nil {
			info.Status = service.StatusRunning
		}
	}
	return c.publishInfo(j, info, peer), nil
}

// publishInfo rewrites a snapshot from j's owner, peer, into the
// coordinator's namespace and records it as the job's freshest view. A
// settled job's terminal snapshot stays: no later answer unsettles it.
func (c *Coordinator) publishInfo(j *routedJob, info service.Info, peer string) service.Info {
	info.ID = j.id
	if info.Node == "" {
		info.Node = peer
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	info.Reroutes = j.reroutes
	if j.reroutableLocked() || info.Status.Terminal() {
		j.lastInfo = info
		j.releaseLocked()
	}
	return j.lastInfo
}

// Result returns a finished job's result. The first successful fetch, by
// Info or here, is cached on the coordinator, so the result survives the
// worker dying afterwards; a worker dying *before* the fetch re-routes the
// job and the result is recomputed (deterministically, usually as a store
// hit).
func (c *Coordinator) Result(id string) (*service.Result, error) {
	j, err := c.lookup(id)
	if err != nil {
		return nil, err
	}
	j.mu.Lock()
	res, peer, peerID := j.result, j.peer, j.peerID
	j.mu.Unlock()
	if res != nil {
		return res, nil
	}
	return c.fetchResult(j, peer, peerID)
}

// fetchResult asks j's owner, peer, for the result of its job peerID and
// caches it on j. Without it, the job is not done as far as the
// coordinator knows, whatever the owner answered.
func (c *Coordinator) fetchResult(j *routedJob, peer, peerID string) (*service.Result, error) {
	res, err := c.owners[peer].Result(peerID)
	if err != nil {
		c.peerError(j, peer, peerID, err)
		j.mu.Lock()
		defer j.mu.Unlock()
		return nil, fmt.Errorf("%w: job %s is %s, not done", service.ErrJobState, j.id, j.lastInfo.Status)
	}
	j.mu.Lock()
	first := j.result == nil
	if first {
		j.result = res
		j.releaseLocked()
	}
	res = j.result
	j.mu.Unlock()
	if first && res.CacheHit {
		// The ring sent this key to a node that already held its
		// artifacts: the affinity scheduler did its job.
		c.cAffinity.Inc()
	}
	return res, nil
}

// Cancel cancels a job wherever it runs. An owner that no longer knows the
// job, as a worker restarted without a journal, has nothing to stop: the
// coordinator cancels the job itself, so no later poll re-routes it. If a
// poll moved the job meanwhile, the cancel goes to its new owner.
func (c *Coordinator) Cancel(id string) error {
	j, err := c.lookup(id)
	if err != nil {
		return err
	}
	for {
		j.mu.Lock()
		peer, peerID, settled := j.peer, j.peerID, !j.reroutableLocked()
		j.mu.Unlock()
		if !settled {
			err = c.owners[peer].Cancel(peerID)
		}
		switch {
		case settled || errors.Is(err, service.ErrJobState):
			return fmt.Errorf("%w: job %s already finished", service.ErrJobState, id)
		case errors.Is(err, service.ErrUnreachable):
			c.members.ReportFailure(peer)
			return err
		case !errors.Is(err, service.ErrUnknownJob):
			return err
		}
		j.mu.Lock()
		lost := j.peer == peer && j.peerID == peerID && j.reroutableLocked()
		if lost {
			j.setInfoLocked(service.StatusCanceled, service.ErrCanceled.Error())
		}
		j.mu.Unlock()
		if lost {
			return nil
		}
	}
}
