package chaostest

import (
	"context"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"webslice/internal/service"
	"webslice/internal/store"
)

// The chaos schedule: nTags jobs are submitted across chaosIncarnations
// killed daemons, then a final clean incarnation drains everything.
// poisonTag always panics — it must end quarantined, never done.
const (
	nTags             = 30
	tagsPerIncarn     = 6
	chaosIncarnations = 5
	poisonTag         = 4
)

// harness is the state that survives "process" deaths: execution counts,
// which jobs were acknowledged, and what a client observed when.
type harness struct {
	t           *testing.T
	journalPath string
	storeDir    string

	execs [nTags + 2]atomic.Int64 // per-tag runner executions, all incarnations

	mu        sync.Mutex
	st        *store.Store   // current incarnation's (faulty) store
	idTag     map[string]int // acked job id -> tag
	doneExecs map[int]int64  // tag -> exec count when a client first saw done
}

// tagSpec encodes a tag into a Spec the service validates happily: the tag
// rides in Scale (scale only has to lie in (0, 2]).
func tagSpec(tag int) service.Spec {
	return service.Spec{Site: "maps", Scale: float64(tag+1) / 1000}
}

func tagOf(spec service.Spec) int {
	return int(math.Round(spec.Scale*1000)) - 1
}

// runner is the chaos workload: the poison tag always panics, and
// everything touches the fault-injected artifact store.
func (h *harness) runner(ctx context.Context, spec service.Spec) (*service.Result, error) {
	tag := tagOf(spec)
	n := h.execs[tag].Add(1)
	if tag == poisonTag || tag == nTags+1 {
		panic(fmt.Sprintf("poison tag %d (execution %d)", tag, n))
	}
	h.mu.Lock()
	st := h.st
	h.mu.Unlock()
	// Drive the store's disk path and circuit breaker under injected
	// faults; Put degrades to memory-only, Get errors are cache misses.
	key := fmt.Sprintf("chaos-%d", tag)
	st.Put("slice", key, []byte(spec.Site))
	st.Get("slice", key)
	select {
	case <-ctx.Done():
		return nil, ctx.Err()
	case <-time.After(time.Duration(tag%3) * time.Millisecond):
	}
	return &service.Result{Criteria: spec.Criteria, Total: tag + 1, SliceCount: 1}, nil
}

// boot opens the journal and a (possibly faulty) store and starts a
// manager, exactly as a fresh websliced process would.
func (h *harness) boot(seed uint64, permille, workers int) (*service.Manager, []string) {
	h.t.Helper()
	j, pending, err := service.OpenJournal(h.journalPath)
	if err != nil {
		h.t.Fatalf("journal corrupted across crash: %v", err)
	}
	fsys := NewFaultFS(seed, permille)
	st, err := store.OpenFS(h.storeDir, 1<<20, fsys)
	if err != nil {
		h.t.Fatalf("store did not survive crash: %v", err)
	}
	st.ConfigureBreaker(3, 50*time.Millisecond)
	h.mu.Lock()
	h.st = st
	h.mu.Unlock()
	resumed := make([]string, 0, len(pending))
	for _, e := range pending {
		resumed = append(resumed, e.ID)
	}
	m := service.New(service.Config{
		Workers: workers,
		Journal: j,
		Resume:  pending,
		Store:   st,
		Runner:  h.runner,
	})
	return m, resumed
}

// observe polls job statuses like a client would, recording the execution
// count at the moment done is first observed — re-execution after that
// point is the duplicate-result bug the journal ordering prevents.
func (h *harness) observe(m *service.Manager, dur time.Duration) {
	deadline := time.Now().Add(dur)
	for time.Now().Before(deadline) {
		h.mu.Lock()
		for id, tag := range h.idTag {
			if _, seen := h.doneExecs[tag]; seen {
				continue
			}
			if info, ok := m.Info(id); ok && info.Status == service.StatusDone {
				h.doneExecs[tag] = h.execs[tag].Load()
			}
		}
		h.mu.Unlock()
		time.Sleep(time.Millisecond)
	}
}

// TestChaosKillRestartLosesNothing is the acceptance scenario: five
// incarnations submit jobs and die (kill -9 style) under injected store
// faults; a final clean incarnation must finish every acknowledged job,
// quarantine the panicker, report healthy, and leave an empty journal.
func TestChaosKillRestartLosesNothing(t *testing.T) {
	dir := t.TempDir()
	h := &harness{
		t:           t,
		journalPath: filepath.Join(dir, "jobs.wal"),
		storeDir:    filepath.Join(dir, "store"),
		idTag:       make(map[string]int),
		doneExecs:   make(map[int]int64),
	}

	const seed = 0xC0FFEE
	for inc := 0; inc < chaosIncarnations; inc++ {
		m, _ := h.boot(seed+uint64(inc), 200, 3)
		for i := 0; i < tagsPerIncarn; i++ {
			tag := inc*tagsPerIncarn + i
			id, err := m.Submit(tagSpec(tag))
			if err != nil {
				t.Fatalf("incarnation %d: submit tag %d: %v", inc, tag, err)
			}
			h.mu.Lock()
			h.idTag[id] = tag
			h.mu.Unlock()
		}
		// Let a varying slice of work happen, then pull the plug.
		h.observe(m, time.Duration(5+inc*7)*time.Millisecond)
		m.Kill()
	}

	// Final incarnation: healthy disk, no kill. Everything acknowledged
	// must reach a terminal state.
	m, resumed := h.boot(seed+99, 0, 3)
	waitAllTerminal := func(ids []string) {
		t.Helper()
		deadline := time.Now().Add(60 * time.Second)
		for _, id := range ids {
			for {
				info, ok := m.Info(id)
				if !ok {
					t.Fatalf("job %s vanished in final incarnation", id)
				}
				if info.Status.Terminal() {
					break
				}
				if time.Now().After(deadline) {
					t.Fatalf("job %s stuck in %s", id, info.Status)
				}
				time.Sleep(time.Millisecond)
			}
		}
	}
	waitAllTerminal(resumed)
	h.observe(m, 5*time.Millisecond)

	// Resumed non-poison jobs all end done; the poison job is quarantined,
	// not done, not crash-looping.
	for _, id := range resumed {
		info, _ := m.Info(id)
		h.mu.Lock()
		tag := h.idTag[id]
		h.mu.Unlock()
		switch {
		case tag == poisonTag:
			if info.Status != service.StatusQuarantined {
				t.Fatalf("poison job %s = %s, want quarantined", id, info.Status)
			}
		case info.Status != service.StatusDone:
			t.Fatalf("resumed job %s (tag %d) = %s (%q), want done", id, tag, info.Status, info.Error)
		}
	}

	// The pool survived every panic: fresh work still completes, and a
	// freshly submitted panicker is observably quarantined.
	extra, err := m.Submit(tagSpec(nTags)) // healthy tag
	if err != nil {
		t.Fatal(err)
	}
	poison2, err := m.Submit(tagSpec(nTags + 1)) // always panics
	if err != nil {
		t.Fatal(err)
	}
	waitAllTerminal([]string{extra, poison2})
	if info, _ := m.Info(extra); info.Status != service.StatusDone {
		t.Fatalf("post-chaos job = %s, want done", info.Status)
	}
	if info, _ := m.Info(poison2); info.Status != service.StatusQuarantined {
		t.Fatalf("fresh panicker = %s, want quarantined", info.Status)
	}
	found := false
	for _, q := range m.Quarantined() {
		if q.ID == poison2 {
			found = true
		}
	}
	if !found {
		t.Fatalf("quarantine list %v does not include %s", m.Quarantined(), poison2)
	}

	// The daemon reports healthy over HTTP after all that.
	srv := httptest.NewServer(service.NewHandler(m))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/healthz = %d after chaos, want 200", resp.StatusCode)
	}

	m.Close()

	// Durability ledger: no acknowledged job is lost (every one reached a
	// durable terminal state — the journal is empty), and no job a client
	// observed done was ever re-executed afterwards.
	j, pending, err := service.OpenJournal(h.journalPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(pending) != 0 {
		t.Fatalf("journal still holds %d acknowledged-but-unfinished jobs: %v", len(pending), pending)
	}
	j.Close()
	h.mu.Lock()
	defer h.mu.Unlock()
	if len(h.idTag) != nTags {
		t.Fatalf("harness acked %d jobs, want %d", len(h.idTag), nTags)
	}
	for tag, snap := range h.doneExecs {
		if got := h.execs[tag].Load(); got != snap {
			t.Fatalf("tag %d re-executed after a client observed done: %d executions at observation, %d now", tag, snap, got)
		}
	}
	if _, ok := h.doneExecs[poisonTag]; ok {
		t.Fatal("poison job was observed done")
	}
	if n := h.execs[poisonTag].Load(); n < 2 {
		t.Fatalf("poison job executed %d times, want >= 2 (panic retry then quarantine)", n)
	}
	for tag := 0; tag < nTags; tag++ {
		if tag == poisonTag {
			continue
		}
		if h.execs[tag].Load() == 0 {
			t.Fatalf("acknowledged tag %d never executed (lost work)", tag)
		}
	}
}

// TestChaosBreakerDegradesNotFails: with a pathologically faulty store
// disk, jobs still complete — the breaker sheds to compute-without-cache
// instead of failing work.
func TestChaosBreakerDegradesNotFails(t *testing.T) {
	dir := t.TempDir()
	h := &harness{
		t:           t,
		journalPath: filepath.Join(dir, "jobs.wal"),
		storeDir:    filepath.Join(dir, "store"),
		idTag:       make(map[string]int),
		doneExecs:   make(map[int]int64),
	}
	m, _ := h.boot(0xDEAD, 900, 2) // 90% of store I/O fails
	ids := make([]string, 0, 8)
	for i := 0; i < 8; i++ {
		tag := i
		if tag == poisonTag {
			tag = nTags // skip the panicker; this test is about the store
		}
		id, err := m.Submit(tagSpec(tag))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
		h.mu.Lock()
		h.idTag[id] = tag
		h.mu.Unlock()
	}
	deadline := time.Now().Add(60 * time.Second)
	for _, id := range ids {
		for {
			info, _ := m.Info(id)
			if info.Status == service.StatusDone {
				break
			}
			if info.Status.Terminal() {
				t.Fatalf("job %s = %s (%q) under store faults, want done", id, info.Status, info.Error)
			}
			if time.Now().After(deadline) {
				t.Fatalf("job %s stuck in %s", id, info.Status)
			}
			time.Sleep(time.Millisecond)
		}
	}
	h.mu.Lock()
	st := h.st.Stats()
	h.mu.Unlock()
	if st.DiskErrors == 0 {
		t.Fatal("fault injection never fired; test proves nothing")
	}
	m.Close()
}
