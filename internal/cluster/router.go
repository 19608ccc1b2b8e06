package cluster

import (
	"errors"
	"fmt"
	"log/slog"
	"math/rand/v2"
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
	// served by the local manager instead of being forwarded over HTTP.
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

	mu       sync.Mutex
	peer     string // "" = local manager
	remoteID string
	reroutes int
	// lastInfo is the freshest observed snapshot, served while the owner
	// is unreachable and a re-route is pending.
	lastInfo service.Info
	// result caches the fetched result so a worker dying after the fetch
	// costs nothing; affinity counts once per job. Info fetches it as soon
	// as the owner reports done, so a job published done always has one.
	result          *service.Result
	terminal        bool
	affinityCounted bool
}

// reroutableLocked reports whether the job would have to run again if its
// owner died: it has no result and no terminal status. Only such a job
// still needs its upload. j.mu must be held.
func (j *routedJob) reroutableLocked() bool {
	return j.result == nil && !j.terminal
}

// releaseLocked frees the job's upload once no re-route can need it.
// j.mu must be held.
func (j *routedJob) releaseLocked() {
	if !j.reroutableLocked() {
		j.spec.Trace = nil
	}
}

// Coordinator admits jobs, routes each to its ring owner over the
// websliced HTTP API, and proxies status/result polls under its own job
// ids. A worker evicted from the ring has its pending jobs re-routed to
// the keys' new owners — safe because slicing is deterministic and
// idempotent (a re-run of the same trace is at worst a cache miss). It is
// the service.Backend that the coordinator's handler serves.
type Coordinator struct {
	cfg     Config
	ring    *Ring
	members *Membership
	peers   map[string]*service.Client // by URL; written once in New
	// reg and tracer are the local manager's: the routing counters and
	// spans land beside its own, so a locally executed job's route and
	// worker spans share one ring. tracer is nil with tracing off.
	reg    *metrics.Registry
	tracer *obs.Tracer
	log    *slog.Logger

	mu   sync.Mutex
	jobs map[string]*routedJob
	// boot, 8 random hex digits, tags every id this coordinator issues.
	// nextID counts from 0 on every boot, and the coordinator keeps its
	// jobs only in memory, so without the tag a restarted coordinator would
	// issue its predecessor's ids again, and a client polling one would
	// read another job.
	boot   string
	nextID int

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
	peers := make(map[string]*service.Client)
	var remote []string
	for _, p := range cfg.Peers {
		if p == cfg.Self {
			ring.Add(p) // self is always alive; never probed or evicted
			continue
		}
		remote = append(remote, p)
		peers[p] = service.NewClient(p, hc)
	}
	c := &Coordinator{
		cfg:            cfg,
		ring:           ring,
		peers:          peers,
		reg:            reg,
		tracer:         cfg.Local.Tracer(),
		log:            logger,
		jobs:           make(map[string]*routedJob),
		boot:           fmt.Sprintf("%08x", rand.Uint32()),
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
// spec is forwarded to it (or run on the local manager when the owner is
// Self), and a coordinator-scoped id is returned, "c<boot>-<n>", which no
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
	c.mu.Lock()
	c.nextID++
	id := fmt.Sprintf("c%s-%06d", c.boot, c.nextID)
	c.mu.Unlock()
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
	c.mu.Lock()
	c.jobs[id] = j
	c.mu.Unlock()
	j.mu.Lock()
	peer := j.peer
	j.mu.Unlock()
	c.log.Info("job routed", "job", id, "trace", rs.TraceID(), "peer", peer)
	return id, nil
}

// route assigns j to the best live candidate and submits it there. Called
// for initial submission and again (with j.reroutes incremented) when an
// owner dies. s is the span the routing decision is recorded under (the
// root "route" span, or a "reroute" span after an eviction): each skipped
// or refusing candidate becomes an event on it, so the trace shows *why*
// the job landed where it did.
func (c *Coordinator) route(j *routedJob, s *obs.Span) error {
	j.mu.Lock()
	spec, reroutable := j.spec, j.reroutableLocked()
	j.mu.Unlock()
	if !reroutable {
		// The result, or a failure, arrived while an eviction was setting
		// up this re-route, and the upload may be freed already.
		s.Event("route.settled")
		return nil
	}
	fwd := spec
	fwd.Origin = c.cfg.Self
	fwd.TraceCtx = s.Context()
	for _, peer := range c.ring.Owners(j.key, c.ring.Len()) {
		if peer == c.cfg.Self {
			return c.routeLocal(j, spec, s)
		}
		if !c.members.Alive(peer) {
			s.Event("peer.dead", obs.Attr{K: "peer", V: peer})
			continue
		}
		// "peer.submit", not "forward": the profiler's forward *pass* span
		// already owns that name, and the two meet in one merged trace.
		fs := s.Child("peer.submit").Set("peer", peer)
		remoteID, err := c.peers[peer].Submit(fwd)
		fs.EndErr(err)
		if err != nil {
			var refused *service.APIError
			if errors.As(err, &refused) {
				// The peer answered: this is an application error
				// (backpressure, invalid spec, oversized trace), not a dead
				// node. Propagate it, code and Retry-After included. A 429
				// gets its own event carrying the peer's Retry-After and the
				// owner hint, so backpressure is visible in the trace, not
				// just in the client's response.
				if refused.Code == http.StatusTooManyRequests {
					s.Event("peer.backpressure",
						obs.Attr{K: "peer", V: peer},
						obs.Attr{K: "retry_after", V: refused.RetryAfter})
					c.log.Warn("peer backpressure", "job", j.id, "trace", s.TraceID(),
						"peer", peer, "retry_after", refused.RetryAfter)
				}
				return err
			}
			s.Event("peer.unreachable",
				obs.Attr{K: "peer", V: peer},
				obs.Attr{K: "error", V: err.Error()})
			c.cForwardFailed.Inc()
			c.peerCounter("forward_failed", peer).Inc()
			c.members.ReportFailure(peer)
			continue
		}
		j.mu.Lock()
		j.peer, j.remoteID = peer, remoteID
		j.lastInfo = service.Info{ID: j.id, Status: service.StatusQueued, Site: spec.Site, Criteria: spec.Criteria, Node: peer}
		j.mu.Unlock()
		c.cRouted.Inc()
		c.peerCounter("routed", peer).Inc()
		return nil
	}
	// No remote candidate took it: run it here.
	c.cFallbacks.Inc()
	s.Event("local.fallback")
	return c.routeLocal(j, spec, s)
}

// routeLocal submits spec, j's spec as route read it, to the local manager.
func (c *Coordinator) routeLocal(j *routedJob, spec service.Spec, s *obs.Span) error {
	spec.TraceCtx = s.Context()
	localID, err := c.cfg.Local.Submit(spec)
	if err != nil {
		return err
	}
	j.mu.Lock()
	j.peer, j.remoteID = "", localID
	j.lastInfo = service.Info{ID: j.id, Status: service.StatusQueued, Site: spec.Site, Criteria: spec.Criteria, Node: c.cfg.Self}
	j.mu.Unlock()
	c.cLocal.Inc()
	return nil
}

// handleEvict re-routes every non-terminal job owned by the evicted peer.
// Acked jobs survive a worker death the same way they survive a worker
// panic: by being run again somewhere else.
func (c *Coordinator) handleEvict(peer string) {
	c.mu.Lock()
	var pending []*routedJob
	for _, j := range c.jobs {
		j.mu.Lock()
		// A job is lost with its worker unless its result already reached
		// the coordinator. Jobs that terminally failed/canceled keep that
		// outcome — re-running them would not change it.
		if j.peer == peer && j.reroutableLocked() {
			pending = append(pending, j)
		}
		j.mu.Unlock()
	}
	c.mu.Unlock()
	for _, j := range pending {
		j.mu.Lock()
		if !j.reroutableLocked() {
			j.mu.Unlock() // its result arrived after the scan above
			continue
		}
		j.reroutes++
		reroutes := j.reroutes
		j.terminal = false
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
			j.lastInfo = service.Info{ID: j.id, Status: service.StatusFailed, Site: j.spec.Site,
				Criteria: j.spec.Criteria, Error: fmt.Sprintf("re-route after %s died: %v", peer, err)}
			j.terminal = true
			j.releaseLocked()
			j.mu.Unlock()
		}
	}
}

// lookup finds a routed job.
func (c *Coordinator) lookup(id string) (*routedJob, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	j, ok := c.jobs[id]
	return j, ok
}

// Info returns a job snapshot under the coordinator's id, with the
// executing node as the owner hint. While the owner is unreachable the
// last observed snapshot is served; the job itself is re-routed when the
// membership evicts the owner. The coordinator says done only when it
// holds the result: when the owner reports done, Info fetches the result
// in the same call, and reports the job running if that fetch fails.
func (c *Coordinator) Info(id string) (service.Info, bool) {
	j, ok := c.lookup(id)
	if !ok {
		return service.Info{}, false
	}
	j.mu.Lock()
	peer, remoteID := j.peer, j.remoteID
	last, held := j.lastInfo, j.result != nil
	j.mu.Unlock()
	node := peer
	var info service.Info
	if peer == "" {
		node = c.cfg.Self
		if info, ok = c.cfg.Local.Info(remoteID); !ok {
			return service.Info{}, false
		}
	} else {
		var err error
		if info, err = c.peers[peer].Info(remoteID); err != nil {
			c.members.ReportFailure(peer)
			return last, true // stale-but-available; eviction will re-route
		}
	}
	if info.Status == service.StatusDone && !held {
		if _, ok := c.fetchResult(j, peer, remoteID); !ok {
			info.Status = service.StatusRunning
		}
	}
	return c.publishInfo(j, info, node), true
}

// publishInfo rewrites a node-local snapshot into the coordinator's
// namespace and records it as the job's freshest view.
func (c *Coordinator) publishInfo(j *routedJob, info service.Info, node string) service.Info {
	info.ID = j.id
	if info.Node == "" {
		info.Node = node
	}
	j.mu.Lock()
	info.Reroutes = j.reroutes
	j.lastInfo = info
	if info.Status.Terminal() {
		j.terminal = true
		j.releaseLocked()
	}
	j.mu.Unlock()
	return info
}

// Result returns a finished job's result. The first successful fetch, by
// Info or here, is cached on the coordinator, so the result survives the
// worker dying afterwards; a worker dying *before* the fetch re-routes the
// job and the result is recomputed (deterministically, usually as a store
// hit). ok is false while the job is unknown or not done.
func (c *Coordinator) Result(id string) (*service.Result, bool) {
	j, ok := c.lookup(id)
	if !ok {
		return nil, false
	}
	j.mu.Lock()
	res, peer, remoteID := j.result, j.peer, j.remoteID
	j.mu.Unlock()
	if res != nil {
		return res, true
	}
	return c.fetchResult(j, peer, remoteID)
}

// fetchResult asks j's owner, peer ("" for the local manager), for the
// result of its job remoteID and caches it on j.
func (c *Coordinator) fetchResult(j *routedJob, peer, remoteID string) (*service.Result, bool) {
	var res *service.Result
	var ok bool
	if peer == "" {
		res, ok = c.cfg.Local.Result(remoteID)
	} else {
		var err error
		res, ok, err = c.peers[peer].Result(remoteID)
		if err != nil {
			c.members.ReportFailure(peer)
		}
	}
	if !ok {
		return nil, false
	}
	j.mu.Lock()
	j.result = res
	j.terminal = true
	j.releaseLocked()
	count := res.CacheHit && !j.affinityCounted
	j.affinityCounted = true
	j.mu.Unlock()
	if count {
		// The ring sent this key to a node that already held its
		// artifacts: the affinity scheduler did its job.
		c.cAffinity.Inc()
	}
	return res, true
}

// Cancel cancels a job wherever it runs.
func (c *Coordinator) Cancel(id string) bool {
	j, ok := c.lookup(id)
	if !ok {
		return false
	}
	j.mu.Lock()
	peer, remoteID := j.peer, j.remoteID
	j.mu.Unlock()
	if peer == "" {
		return c.cfg.Local.Cancel(remoteID)
	}
	err := c.peers[peer].Cancel(remoteID)
	var refused *service.APIError
	if err != nil && !errors.As(err, &refused) {
		c.members.ReportFailure(peer)
	}
	return err == nil
}
