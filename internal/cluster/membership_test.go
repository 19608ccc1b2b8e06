package cluster

import (
	"errors"
	"slices"
	"sync"
	"testing"
	"time"
)

// fakeClock is a manually advanced service.Clock: Sleep blocks on a waiter
// that Advance releases, so probe schedules run without real time passing.
type fakeClock struct {
	mu      sync.Mutex
	now     time.Time
	sleeps  []time.Duration
	waiters []fakeWaiter
}

type fakeWaiter struct {
	deadline time.Time
	ch       chan struct{}
}

func newFakeClock() *fakeClock { return &fakeClock{now: time.Unix(1700000000, 0)} }

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) Sleep(d time.Duration, stop <-chan struct{}) {
	c.mu.Lock()
	c.sleeps = append(c.sleeps, d)
	if d <= 0 {
		c.mu.Unlock()
		return
	}
	w := fakeWaiter{deadline: c.now.Add(d), ch: make(chan struct{})}
	c.waiters = append(c.waiters, w)
	c.mu.Unlock()
	select {
	case <-w.ch:
	case <-stop:
	}
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now = c.now.Add(d)
	keep := c.waiters[:0]
	for _, w := range c.waiters {
		if w.deadline.After(c.now) {
			keep = append(keep, w)
		} else {
			close(w.ch)
		}
	}
	c.waiters = keep
}

// flakyProbe simulates per-peer health that tests flip at will.
type flakyProbe struct {
	mu   sync.Mutex
	down map[string]bool
}

func (f *flakyProbe) set(peer string, isDown bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.down == nil {
		f.down = make(map[string]bool)
	}
	f.down[peer] = isDown
}

func (f *flakyProbe) probe(url string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.down[url] {
		return errors.New("probe: connection refused")
	}
	return nil
}

func TestMembershipEvictionAndRejoin(t *testing.T) {
	ring := NewRing()
	probes := &flakyProbe{}
	var mu sync.Mutex
	var evicted []string
	m := NewMembership(ring, MembershipConfig{
		Peers:         []string{"http://w1", "http://w2"},
		FailThreshold: 3,
		Probe:         probes.probe,
		Clock:         newFakeClock(),
		OnEvict:       func(u string) { mu.Lock(); evicted = append(evicted, u); mu.Unlock() },
	})

	// Optimistic admission: both peers are ring members before any probe.
	if ring.Len() != 2 || !m.Alive("http://w1") || !m.Alive("http://w2") {
		t.Fatalf("peers not admitted optimistically: ring=%v", ring.Nodes())
	}

	probes.set("http://w2", true)
	m.ProbeAll()
	m.ProbeAll()
	if !m.Alive("http://w2") {
		t.Fatal("peer evicted before the failure threshold")
	}
	m.ProbeAll() // third consecutive failure crosses the threshold
	if m.Alive("http://w2") || slices.Contains(ring.Nodes(), "http://w2") {
		t.Fatal("peer not evicted at the failure threshold")
	}
	mu.Lock()
	if len(evicted) != 1 || evicted[0] != "http://w2" {
		t.Fatalf("OnEvict calls = %v, want [http://w2]", evicted)
	}
	mu.Unlock()
	if ring.Len() != 1 {
		t.Fatalf("ring size after eviction = %d, want 1", ring.Len())
	}

	// An eviction is a routing decision, not amnesia: one good probe
	// re-admits the peer.
	probes.set("http://w2", false)
	m.ProbeAll()
	if !m.Alive("http://w2") || !slices.Contains(ring.Nodes(), "http://w2") {
		t.Fatal("recovered peer not re-admitted")
	}
	if got := m.cRejoined.Value(); got != 1 {
		t.Fatalf("cluster_peers_rejoined = %d, want 1", got)
	}
}

// Router-reported forward failures count toward the same threshold as
// probes: a dead worker stops receiving jobs after FailThreshold failed
// forwards, without waiting for the next probe round.
func TestMembershipReportFailureEvicts(t *testing.T) {
	ring := NewRing()
	m := NewMembership(ring, MembershipConfig{
		Peers:         []string{"http://w1"},
		FailThreshold: 2,
		Probe:         func(string) error { return nil },
		Clock:         newFakeClock(),
	})
	m.ReportFailure("http://w1")
	if !m.Alive("http://w1") {
		t.Fatal("evicted below threshold")
	}
	m.ReportFailure("http://w1")
	if m.Alive("http://w1") || slices.Contains(ring.Nodes(), "http://w1") {
		t.Fatal("not evicted at threshold")
	}
	// Unknown peers are ignored rather than tracked.
	m.ReportFailure("http://stranger")

	// A success resets the streak: two below-threshold failures with a
	// success between them never evict.
	m.reportSuccess("http://w1")
	if !m.Alive("http://w1") {
		t.Fatal("success did not re-admit")
	}
	m.ReportFailure("http://w1")
	m.reportSuccess("http://w1")
	m.ReportFailure("http://w1")
	if !m.Alive("http://w1") {
		t.Fatal("interleaved success did not reset the failure streak")
	}
}

// The probe loop runs on the injectable clock: advancing it by the probe
// interval triggers a round; Stop halts the loop.
func TestMembershipProbeLoopOnClock(t *testing.T) {
	ring := NewRing()
	clock := newFakeClock()
	var mu sync.Mutex
	probed := 0
	m := NewMembership(ring, MembershipConfig{
		Peers:         []string{"http://w1"},
		ProbeInterval: time.Second,
		Probe:         func(string) error { mu.Lock(); probed++; mu.Unlock(); return nil },
		Clock:         clock,
	})
	m.Start()
	defer m.Stop()
	waitSleepers(t, clock, 1)
	clock.Advance(time.Second)
	waitProbes(t, &mu, &probed, 1)
	waitSleepers(t, clock, 1)
	clock.Advance(time.Second)
	waitProbes(t, &mu, &probed, 2)
}

func waitSleepers(t *testing.T, c *fakeClock, n int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		c.mu.Lock()
		got := len(c.waiters)
		c.mu.Unlock()
		if got >= n {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timeout waiting for %d clock sleeper(s)", n)
}

func waitProbes(t *testing.T, mu *sync.Mutex, probed *int, n int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		mu.Lock()
		got := *probed
		mu.Unlock()
		if got >= n {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timeout waiting for %d probe round(s)", n)
}
