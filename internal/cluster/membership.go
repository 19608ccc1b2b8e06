package cluster

import (
	"net/http"
	"sort"
	"sync"
	"time"

	"webslice/internal/metrics"
	"webslice/internal/service"
)

// Membership defaults.
const (
	// DefaultProbeInterval is how often every peer's /healthz is probed.
	DefaultProbeInterval = 2 * time.Second
	// DefaultFailThreshold is how many consecutive failed probes (or
	// router-reported forward failures) evict a peer from the ring.
	DefaultFailThreshold = 3
	// defaultProbeTimeout bounds one HTTP health probe.
	defaultProbeTimeout = 2 * time.Second
)

// MemberState is a point-in-time snapshot of one peer.
type MemberState struct {
	URL   string `json:"url"`
	Alive bool   `json:"alive"`
	Fails int    `json:"fails,omitempty"` // consecutive failures so far
}

// MembershipConfig wires a Membership.
type MembershipConfig struct {
	// Peers are the probed members' base URLs (e.g. http://127.0.0.1:8078).
	Peers []string
	// ProbeInterval is the health-check period (default 2s).
	ProbeInterval time.Duration
	// FailThreshold evicts a peer after this many consecutive failures
	// (default 3).
	FailThreshold int
	// Probe checks one peer; nil uses service.Client.Health, a GET of
	// url+/healthz that fails on any non-200 (a draining worker answers
	// 503 on purpose, so drain reads as "stop routing here").
	Probe func(url string) error
	// Clock abstracts time so eviction/re-add schedules are testable
	// without real sleeps (the same seam the webslice client's poll loop
	// uses).
	Clock service.Clock
	// OnEvict fires (from the probe goroutine) when a peer crosses the
	// failure threshold and leaves the ring — the router re-routes the
	// peer's pending jobs here.
	OnEvict func(url string)
	// Metrics receives ring-size/alive gauges and eviction counters; nil
	// creates a private registry.
	Metrics *metrics.Registry
}

// Membership owns the ring's live view: every configured peer starts as a
// member, consecutive probe failures evict it, and a later successful
// probe re-admits it. Peers never leave the probe set — eviction is a
// routing decision, not forgetting the node.
type Membership struct {
	cfg  MembershipConfig
	ring *Ring
	stop chan struct{}
	done chan struct{}

	mu      sync.Mutex
	started bool
	fails   map[string]int
	alive   map[string]bool

	gRing, gAlive         *metrics.Gauge
	cEvicted, cRejoined   *metrics.Counter
	cProbes, cProbeFailed *metrics.Counter
}

// NewMembership builds a membership over ring. Every peer is admitted
// optimistically — routing is deterministic from boot, and a peer that is
// actually down is evicted within FailThreshold probe rounds.
func NewMembership(ring *Ring, cfg MembershipConfig) *Membership {
	if cfg.ProbeInterval <= 0 {
		cfg.ProbeInterval = DefaultProbeInterval
	}
	if cfg.FailThreshold <= 0 {
		cfg.FailThreshold = DefaultFailThreshold
	}
	if cfg.Probe == nil {
		hc := &http.Client{Timeout: defaultProbeTimeout}
		cfg.Probe = func(url string) error { return service.NewClient(url, hc).Health() }
	}
	if cfg.Clock == nil {
		cfg.Clock = service.SystemClock
	}
	reg := cfg.Metrics
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	m := &Membership{
		cfg:          cfg,
		ring:         ring,
		stop:         make(chan struct{}),
		done:         make(chan struct{}),
		fails:        make(map[string]int),
		alive:        make(map[string]bool),
		gRing:        reg.Gauge("cluster_ring_size"),
		gAlive:       reg.Gauge("cluster_peers_alive"),
		cEvicted:     reg.Counter("cluster_peers_evicted"),
		cRejoined:    reg.Counter("cluster_peers_rejoined"),
		cProbes:      reg.Counter("cluster_probes"),
		cProbeFailed: reg.Counter("cluster_probes_failed"),
	}
	for _, p := range cfg.Peers {
		m.alive[p] = true
		ring.Add(p)
	}
	m.publish()
	return m
}

// Start launches the periodic probe loop; Stop ends it. Starting twice is
// a no-op.
func (m *Membership) Start() {
	m.mu.Lock()
	if m.started {
		m.mu.Unlock()
		return
	}
	m.started = true
	m.mu.Unlock()
	go func() {
		defer close(m.done)
		for {
			m.cfg.Clock.Sleep(m.cfg.ProbeInterval, m.stop)
			select {
			case <-m.stop:
				return
			default:
			}
			m.ProbeAll()
		}
	}()
}

// Stop terminates the probe loop and waits for it to exit. Safe to call
// whether or not Start ever ran.
func (m *Membership) Stop() {
	select {
	case <-m.stop:
	default:
		close(m.stop)
	}
	m.mu.Lock()
	started := m.started
	m.mu.Unlock()
	if started {
		<-m.done
	}
}

// ProbeAll health-checks every peer once, concurrently, applying the
// eviction/re-add rules. Exported so tests (and a boot sequence that wants
// an immediate view) can drive rounds without waiting out the interval.
func (m *Membership) ProbeAll() {
	var wg sync.WaitGroup
	for _, p := range m.cfg.Peers {
		wg.Add(1)
		go func(peer string) {
			defer wg.Done()
			m.cProbes.Inc()
			if err := m.cfg.Probe(peer); err != nil {
				m.cProbeFailed.Inc()
				m.ReportFailure(peer)
			} else {
				m.reportSuccess(peer)
			}
		}(p)
	}
	wg.Wait()
}

// ReportFailure counts one failed interaction with a peer — a failed
// health probe, or a router-side forward/poll error — and evicts the peer
// from the ring once the consecutive-failure threshold is crossed. The
// router feeding its failures in here means a dead worker stops receiving
// jobs after FailThreshold failed forwards, not only after the next probe
// round.
func (m *Membership) ReportFailure(peer string) {
	m.mu.Lock()
	if !m.known(peer) {
		m.mu.Unlock()
		return
	}
	m.fails[peer]++
	evict := m.alive[peer] && m.fails[peer] >= m.cfg.FailThreshold
	if evict {
		m.alive[peer] = false
	}
	m.mu.Unlock()
	if !evict {
		return
	}
	m.ring.Remove(peer)
	m.cEvicted.Inc()
	m.publish()
	if m.cfg.OnEvict != nil {
		m.cfg.OnEvict(peer)
	}
}

// reportSuccess clears the failure streak and re-admits an evicted peer.
func (m *Membership) reportSuccess(peer string) {
	m.mu.Lock()
	if !m.known(peer) {
		m.mu.Unlock()
		return
	}
	m.fails[peer] = 0
	rejoin := !m.alive[peer]
	if rejoin {
		m.alive[peer] = true
	}
	m.mu.Unlock()
	if !rejoin {
		return
	}
	m.ring.Add(peer)
	m.cRejoined.Inc()
	m.publish()
}

// known reports whether peer is in the configured probe set (mu held).
func (m *Membership) known(peer string) bool {
	for _, p := range m.cfg.Peers {
		if p == peer {
			return true
		}
	}
	return false
}

// Alive reports whether peer is currently a ring member.
func (m *Membership) Alive(peer string) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.alive[peer]
}

// Members snapshots every configured peer's state, sorted by URL.
func (m *Membership) Members() []MemberState {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]MemberState, 0, len(m.cfg.Peers))
	for _, p := range m.cfg.Peers {
		out = append(out, MemberState{URL: p, Alive: m.alive[p], Fails: m.fails[p]})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].URL < out[j].URL })
	return out
}

func (m *Membership) publish() {
	m.gRing.Set(int64(m.ring.Len()))
	m.mu.Lock()
	alive := 0
	for _, ok := range m.alive {
		if ok {
			alive++
		}
	}
	m.mu.Unlock()
	m.gAlive.Set(int64(alive))
}
