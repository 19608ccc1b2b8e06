package cluster

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"
	"time"

	"webslice/internal/browser"
	"webslice/internal/experiments"
	"webslice/internal/obs"
	"webslice/internal/service"
	"webslice/internal/sites"
	"webslice/internal/store"
)

// node is one in-process websliced worker: a manager with its own
// content-addressed store behind the real single-node HTTP handler.
type node struct {
	mgr *service.Manager
	srv *httptest.Server
}

func startNode(t testing.TB) *node {
	t.Helper()
	st, err := store.Open("", 64<<20) // in-memory artifact store
	if err != nil {
		t.Fatal(err)
	}
	// Every in-process node carries a tracer, so the whole cluster suite
	// doubles as race coverage for span recording across goroutines.
	mgr := service.New(service.Config{Workers: 2, QueueDepth: 32, Store: st, Tracer: obs.New(1024, nil)})
	srv := httptest.NewServer(service.NewHandler(mgr))
	n := &node{mgr: mgr, srv: srv}
	t.Cleanup(func() { n.close() })
	return n
}

func (n *node) close() {
	n.srv.Close()
	n.mgr.Kill()
}

// testCluster is a coordinator over k in-process workers. The coordinator
// keeps its own local manager for fallback but is not a ring member, so
// every routed job lands on a worker.
type testCluster struct {
	co      *Coordinator
	local   *service.Manager
	workers []*node
}

func startCluster(t testing.TB, k int, cfg Config) *testCluster {
	t.Helper()
	tc := &testCluster{}
	peers := make([]string, k)
	for i := 0; i < k; i++ {
		n := startNode(t)
		tc.workers = append(tc.workers, n)
		peers[i] = n.srv.URL
	}
	st, err := store.Open("", 64<<20)
	if err != nil {
		t.Fatal(err)
	}
	tc.local = service.New(service.Config{Workers: 2, QueueDepth: 32, Store: st, Node: "http://coordinator.test", Tracer: obs.New(1024, nil)})
	t.Cleanup(func() { tc.local.Kill() })
	cfg.Self = "http://coordinator.test"
	cfg.Local = tc.local
	cfg.Peers = peers
	tc.co = New(cfg)
	t.Cleanup(func() { tc.co.Stop() })
	return tc
}

// await polls a job on real time until it is terminal.
func await(t testing.TB, jobs service.Jobs, id string) service.Info {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		info, err := jobs.Info(id)
		if err != nil {
			t.Fatalf("Info(%s): %v", id, err)
		}
		if info.Status.Terminal() {
			return info
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timeout waiting for job %s", id)
	return service.Info{}
}

func mustResult(t testing.TB, c *Coordinator, id string) *service.Result {
	t.Helper()
	res, err := c.Result(id)
	if err != nil || res == nil {
		t.Fatalf("Result(%s) = %v, %v", id, res, err)
	}
	return res
}

// submitAll submits every spec to c in order and returns their ids.
func submitAll(t testing.TB, c *Coordinator, specs []service.Spec) []string {
	t.Helper()
	ids := make([]string, len(specs))
	for i, spec := range specs {
		id, err := c.Submit(spec)
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		ids[i] = id
	}
	return ids
}

// awaitResults waits for each job in ids to finish done and returns their
// results in the same order.
func awaitResults(t testing.TB, c *Coordinator, ids []string) []*service.Result {
	t.Helper()
	out := make([]*service.Result, len(ids))
	for i, id := range ids {
		if info := await(t, c, id); info.Status != service.StatusDone {
			t.Fatalf("job %s (index %d): %s (%s)", id, i, info.Status, info.Error)
		}
		out[i] = mustResult(t, c, id)
	}
	return out
}

// The acceptance test for cache-affinity scheduling: submitting the same
// workload twice routes both jobs to the same owner, and the second run is
// an artifact-store hit there (forward pass skipped), counted by the
// cluster_affinity_hits metric.
func TestClusterCacheAffinity(t *testing.T) {
	tc := startCluster(t, 3, Config{FailThreshold: 2})
	spec := service.Spec{Seed: 42, Criteria: "pixels"}

	id1, err := tc.co.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	info1 := await(t, tc.co, id1)
	if info1.Status != service.StatusDone {
		t.Fatalf("job 1: %s (%s)", info1.Status, info1.Error)
	}
	res1 := mustResult(t, tc.co, id1)

	id2, err := tc.co.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	info2 := await(t, tc.co, id2)
	res2 := mustResult(t, tc.co, id2)

	if info1.Node == "" || info1.Node != info2.Node {
		t.Fatalf("identical workloads routed to different owners: %q vs %q", info1.Node, info2.Node)
	}
	if res1.CacheHit {
		t.Fatal("first run of a fresh workload claims a cache hit")
	}
	if !res2.CacheHit {
		t.Fatal("repeat run on the owner was not an artifact-store hit")
	}
	if res1.SliceDigest == "" || res1.SliceDigest != res2.SliceDigest {
		t.Fatalf("digest mismatch across runs: %q vs %q", res1.SliceDigest, res2.SliceDigest)
	}
	if got := tc.co.Metrics().Counter("cluster_affinity_hits").Value(); got < 1 {
		t.Fatalf("cluster_affinity_hits = %d, want >= 1", got)
	}
	if got := tc.co.Metrics().Counter("cluster_jobs_routed").Value(); got != 2 {
		t.Fatalf("cluster_jobs_routed = %d, want 2", got)
	}
}

// The determinism acceptance test: the golden corpus run on one node and
// on a 3-node cluster produces byte-identical slice digests, all matching
// the corpus's pinned values.
func TestClusterSingleVsMultiNodeDigests(t *testing.T) {
	corpus, err := experiments.LoadGolden("../../examples/golden/corpus.json")
	if err != nil {
		t.Fatal(err)
	}
	specs := make([]service.Spec, len(corpus.Sites))
	for i, e := range corpus.Sites {
		specs[i] = service.Spec{Site: e.Name, Scale: e.Scale, Seed: e.Seed, Criteria: "pixels"}
	}

	// Single node: the coordinator's own manager, no peers.
	single := startCluster(t, 0, Config{})
	singleRes := awaitResults(t, single.co, submitAll(t, single.co, specs))

	multi := startCluster(t, 3, Config{})
	ids := submitAll(t, multi.co, specs)
	multiRes := awaitResults(t, multi.co, ids)

	for i, e := range corpus.Sites {
		if singleRes[i].SliceDigest != multiRes[i].SliceDigest {
			t.Errorf("%s: single-node digest %s != 3-node digest %s",
				e.Label(), singleRes[i].SliceDigest, multiRes[i].SliceDigest)
		}
		if singleRes[i].SliceDigest != e.Pixels {
			t.Errorf("%s: digest %s does not match pinned golden %s",
				e.Label(), singleRes[i].SliceDigest, e.Pixels)
		}
	}
	// 3 workers, 8 golden workloads: the ring must have spread them.
	nodes := map[string]bool{}
	for _, id := range ids {
		info, err := multi.co.Info(id)
		if err != nil {
			t.Fatalf("Info(%s): %v", id, err)
		}
		nodes[info.Node] = true
	}
	if len(nodes) < 2 {
		t.Fatalf("all %d golden jobs landed on one node: %v", len(ids), nodes)
	}
}

// The failure acceptance test: killing a worker mid-batch loses no acked
// job — the membership evicts it and its jobs re-route to live owners,
// all finishing with correct results.
func TestClusterWorkerDeathReroutes(t *testing.T) {
	tc := startCluster(t, 3, Config{ProbeInterval: 20 * time.Millisecond, FailThreshold: 2})
	tc.co.Start()

	// Enough seed workloads that every worker owns at least one with
	// overwhelming probability; verified below before the kill.
	specs := make([]service.Spec, 12)
	for i := range specs {
		specs[i] = service.Spec{Seed: uint64(9000 + i), Criteria: "pixels"}
	}
	ids := submitAll(t, tc.co, specs)

	// Count the victim's jobs from the routing records, and kill it before
	// anything asks after them: none is seen done, so every one it owns
	// must re-route.
	victim := tc.workers[0]
	owned := 0
	for _, id := range ids {
		j, _ := tc.co.lookup(id)
		j.mu.Lock()
		if j.peer == victim.srv.URL {
			owned++
		}
		j.mu.Unlock()
	}
	if owned == 0 {
		t.Fatalf("victim %s owns no jobs; seeds need respreading", victim.srv.URL)
	}
	victim.close()

	results := awaitResults(t, tc.co, ids)
	for i, res := range results {
		if res.SliceDigest == "" {
			t.Fatalf("job %s finished without a digest", ids[i])
		}
	}
	if slices.Contains(tc.co.Ring().Nodes(), victim.srv.URL) {
		t.Fatal("dead worker still in the ring after every job finished")
	}
	if got := tc.co.Metrics().Counter("cluster_jobs_rerouted").Value(); got < 1 {
		t.Fatalf("cluster_jobs_rerouted = %d, want >= 1 (victim owned %d)", got, owned)
	}
	// Recomputed results must agree with an undisturbed run.
	check := startCluster(t, 0, Config{})
	for i, spec := range specs {
		id, err := check.co.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		await(t, check.co, id)
		ref := mustResult(t, check.co, id)
		if ref.SliceDigest != results[i].SliceDigest {
			t.Fatalf("seed %d: rerouted digest %s != reference %s", spec.Seed, results[i].SliceDigest, ref.SliceDigest)
		}
	}
}

// TestCoordinatorDoneMeansResultHeld: a coordinator reports a job done only
// once it holds the result, so a job that Info saw done is served by Result
// after its owner is gone, before the membership has evicted the owner.
func TestCoordinatorDoneMeansResultHeld(t *testing.T) {
	tc := startCluster(t, 2, Config{})
	id, err := tc.co.Submit(service.Spec{Seed: 77})
	if err != nil {
		t.Fatal(err)
	}
	info := await(t, tc.co, id)
	if info.Status != service.StatusDone {
		t.Fatalf("job is %s (%s), want done", info.Status, info.Error)
	}
	for _, w := range tc.workers {
		if w.srv.URL == info.Node {
			w.close()
		}
	}
	if !slices.Contains(tc.co.Ring().Nodes(), info.Node) {
		t.Fatalf("owner %s was evicted before the result was asked for", info.Node)
	}
	if res, err := tc.co.Result(id); err != nil || res.SliceDigest == "" {
		t.Fatalf("a job reported done has no result once its owner is gone: %+v, %v", res, err)
	}
}

// A 429 from a job's owner is backpressure, not node death: it propagates
// to the coordinator's client with the peer's Retry-After, instead of
// stampeding a colder node.
func TestClusterBackpressurePropagates(t *testing.T) {
	busy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost {
			w.Header().Set("Retry-After", "7")
			w.WriteHeader(http.StatusTooManyRequests)
			json.NewEncoder(w).Encode(map[string]string{"error": "queue full"})
			return
		}
		w.WriteHeader(http.StatusOK)
	}))
	defer busy.Close()

	st, _ := store.Open("", 1<<20)
	local := service.New(service.Config{Workers: 1, Store: st})
	defer local.Kill()
	co := New(Config{Self: "http://coordinator.test", Local: local, Peers: []string{busy.URL}})
	defer co.Stop()

	h := NewHandler(co)
	body := strings.NewReader(`{"seed": 5, "criteria": "pixels"}`)
	req := httptest.NewRequest(http.MethodPost, "/jobs", body)
	rw := httptest.NewRecorder()
	h.ServeHTTP(rw, req)
	if rw.Code != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429 (body %s)", rw.Code, rw.Body.String())
	}
	if got := rw.Header().Get("Retry-After"); got != "7" {
		t.Fatalf("Retry-After = %q, want the peer's own hint \"7\"", got)
	}
	if co.Metrics().Counter("cluster_jobs_local").Value() != 0 {
		t.Fatal("backpressured job fell back to local execution")
	}
}

// uploadBytes renders property site seed and returns its v3 encoding, as a
// client would upload it.
func uploadBytes(t *testing.T, seed uint64) []byte {
	t.Helper()
	b := sites.Random(seed)
	br := browser.New(b.Site, b.Profile)
	if b.Faults != nil {
		br.Loader.SetFaults(b.Faults)
	}
	br.RunSession()
	if len(br.Errors) > 0 {
		t.Fatal(br.Errors[0])
	}
	var buf bytes.Buffer
	if err := br.M.Tr.WriteV3(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// The same upload submitted through two coordinators over the same workers
// lands on the same owner, and the second submission is an artifact-store
// hit there: the ring key and the worker's store key are one byte hash.
func TestUploadSameOwnerAcrossCoordinators(t *testing.T) {
	a := startCluster(t, 2, Config{FailThreshold: 2})
	st, err := store.Open("", 64<<20)
	if err != nil {
		t.Fatal(err)
	}
	local := service.New(service.Config{Workers: 1, QueueDepth: 8, Store: st, Node: "http://coordinator-b.test"})
	t.Cleanup(func() { local.Kill() })
	b := New(Config{
		Self:          "http://coordinator-b.test",
		Local:         local,
		Peers:         []string{a.workers[0].srv.URL, a.workers[1].srv.URL},
		FailThreshold: 2,
	})
	t.Cleanup(func() { b.Stop() })

	spec := service.Spec{Trace: uploadBytes(t, 5), Criteria: "pixels"}
	var infos [2]service.Info
	var results [2]*service.Result
	for i, co := range []*Coordinator{a.co, b} {
		id, err := co.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		if infos[i] = await(t, co, id); infos[i].Status != service.StatusDone {
			t.Fatalf("submission %d: %s (%s)", i, infos[i].Status, infos[i].Error)
		}
		results[i] = mustResult(t, co, id)
	}
	if infos[0].Node == "" || infos[0].Node != infos[1].Node {
		t.Fatalf("the same upload routed to different owners: %q vs %q", infos[0].Node, infos[1].Node)
	}
	if results[0].CacheHit || !results[1].CacheHit {
		t.Fatalf("cache hits = %v, %v; want a miss, then a hit", results[0].CacheHit, results[1].CacheHit)
	}
	if key := JobKey(spec); results[1].TraceKey != key {
		t.Fatalf("worker store key %s, ring key %s", results[1].TraceKey, key)
	}
}

// JobKey is the distribution identity: traces key by content digest,
// criteria are excluded (both criteria share forward-pass artifacts), and
// site/seed/scale each produce distinct keys.
func TestJobKey(t *testing.T) {
	trace := []byte("fake trace bytes")
	k1 := JobKey(service.Spec{Trace: trace, Criteria: "pixels"})
	k2 := JobKey(service.Spec{Trace: trace, Criteria: "syscalls"})
	if k1 != k2 {
		t.Fatal("criteria changed a trace job's key")
	}
	if k1 != store.KeyBytes(trace) {
		t.Fatalf("trace key %q is not the store's hash of the bytes", k1)
	}
	keys := map[string]string{
		"site-default-scale": JobKey(service.Spec{Site: "maps"}),
		"site-scale-1":       JobKey(service.Spec{Site: "maps", Scale: 1.0}),
		"site-scale-half":    JobKey(service.Spec{Site: "maps", Scale: 0.5}),
		"other-site":         JobKey(service.Spec{Site: "bing"}),
		"seed":               JobKey(service.Spec{Seed: 7}),
		"other-seed":         JobKey(service.Spec{Seed: 8}),
	}
	if keys["site-default-scale"] != keys["site-scale-1"] {
		t.Fatal("scale 0 and scale 1.0 keyed differently")
	}
	// The ring hashes these exact addresses, and every store key of an
	// owner derives from them: a change here moves every site and seed job
	// to a new, cold owner. Each is the SHA-256 of the rendering identity
	// and browser.RenderVersion, 1.
	if keys["site-scale-half"] != store.KeyBytes([]byte("site\x00maps\x000.5\x001")) ||
		keys["seed"] != store.KeyBytes([]byte("seed\x007\x001")) {
		t.Fatalf("rendering identity addresses changed: %s, %s", keys["site-scale-half"], keys["seed"])
	}
	seen := map[string]string{}
	for name, k := range keys {
		if name == "site-scale-1" {
			continue // alias of site-default-scale by design
		}
		if prev, dup := seen[k]; dup {
			t.Fatalf("%s and %s share a key", prev, name)
		}
		seen[k] = name
	}
}

// The coordinator's handler exposes the topology and serves metrics with
// the Prometheus content type.
func TestClusterEndpoints(t *testing.T) {
	tc := startCluster(t, 2, Config{})
	h := NewHandler(tc.co)

	rw := httptest.NewRecorder()
	h.ServeHTTP(rw, httptest.NewRequest(http.MethodGet, "/cluster", nil))
	if rw.Code != http.StatusOK {
		t.Fatalf("/cluster: %d", rw.Code)
	}
	var topo struct {
		Self     string        `json:"self"`
		RingSize int           `json:"ring_size"`
		Ring     []string      `json:"ring"`
		Members  []MemberState `json:"members"`
	}
	if err := json.Unmarshal(rw.Body.Bytes(), &topo); err != nil {
		t.Fatal(err)
	}
	if topo.Self != "http://coordinator.test" || topo.RingSize != 2 || len(topo.Members) != 2 {
		t.Fatalf("topology = %+v", topo)
	}

	rw = httptest.NewRecorder()
	h.ServeHTTP(rw, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if ct := rw.Header().Get("Content-Type"); ct != "text/plain; version=0.0.4" {
		t.Fatalf("/metrics Content-Type = %q", ct)
	}
	if !strings.Contains(rw.Body.String(), "# TYPE cluster_ring_size gauge") {
		t.Fatalf("/metrics missing ring-size gauge:\n%s", rw.Body.String())
	}

	rw = httptest.NewRecorder()
	h.ServeHTTP(rw, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if rw.Code != http.StatusOK || !strings.Contains(rw.Body.String(), "coordinator") {
		t.Fatalf("/healthz = %d %s", rw.Code, rw.Body.String())
	}
}

// benchGolden measures golden-corpus batch throughput through a
// coordinator with k workers (k == 0 runs everything on the local
// manager). The first iteration is the cold render+slice cost; later
// iterations measure the cache-affinity path, where every job is a store
// hit on its owner.
func benchGolden(b *testing.B, k int) {
	corpus, err := experiments.LoadGolden("../../examples/golden/corpus.json")
	if err != nil {
		b.Fatal(err)
	}
	specs := make([]service.Spec, len(corpus.Sites))
	for i, e := range corpus.Sites {
		specs[i] = service.Spec{Site: e.Name, Scale: e.Scale, Seed: e.Seed, Criteria: "pixels"}
	}
	tc := startCluster(b, k, Config{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		awaitResults(b, tc.co, submitAll(b, tc.co, specs))
	}
}

func BenchmarkGoldenBatchSingleNode(b *testing.B) { benchGolden(b, 0) }
func BenchmarkGoldenBatch3Node(b *testing.B)      { benchGolden(b, 3) }
