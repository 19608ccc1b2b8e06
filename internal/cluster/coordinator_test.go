package cluster

import (
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"webslice/internal/service"
)

// holdingManager runs every job until its context ends, and panics on a
// job of seed 13.
func holdingManager(t *testing.T, node string) *service.Manager {
	t.Helper()
	m := service.New(service.Config{
		Workers:    1,
		QueueDepth: 8,
		Node:       node,
		Runner: func(ctx context.Context, spec service.Spec) (*service.Result, error) {
			if spec.Seed == 13 {
				panic("poisoned job")
			}
			<-ctx.Done()
			return nil, ctx.Err()
		},
	})
	t.Cleanup(m.Kill)
	return m
}

// serveCoordinator serves a coordinator's handler over HTTP and returns a
// client of it.
func serveCoordinator(t *testing.T, co *Coordinator) *service.Client {
	t.Helper()
	srv := httptest.NewServer(NewHandler(co))
	t.Cleanup(srv.Close)
	return service.NewClient(srv.URL, srv.Client())
}

// errOf is the error of a call's two results.
func errOf[T any](_ T, err error) error { return err }

// wantAPIError fails unless err is an API answer with code whose message
// names has.
func wantAPIError(t *testing.T, what string, err error, code int, has string) {
	t.Helper()
	var e *service.APIError
	if !errors.As(err, &e) || e.Code != code || !strings.Contains(e.Message, has) {
		t.Fatalf("%s: %v, want HTTP %d naming %q", what, err, code, has)
	}
}

// TestCoordinatorCancel drives DELETE /jobs/{id} of a coordinator over
// one worker: a cancel reaches the worker that runs the job, is refused
// with a 409 for a finished job and a 404 for an unknown one, and answers
// a 502 for a job whose worker is unreachable, counted as one failure.
func TestCoordinatorCancel(t *testing.T) {
	w := holdingManager(t, "")
	wsrv := httptest.NewServer(service.NewHandler(w))
	t.Cleanup(wsrv.Close)
	local := service.New(service.Config{Workers: 1, Node: "http://coordinator.test"})
	t.Cleanup(local.Kill)
	co := New(Config{Self: "http://coordinator.test", Local: local, Peers: []string{wsrv.URL}})
	t.Cleanup(co.Stop)
	c := serveCoordinator(t, co)

	var ids []string
	for _, spec := range []service.Spec{{Site: "maps"}, {Site: "maps", Criteria: "syscalls"}} {
		id, err := c.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		if info, err := c.Info(id); err != nil || info.Node != wsrv.URL {
			t.Fatalf("job %s = %+v, %v; want it on the worker", id, info, err)
		}
		ids = append(ids, id)
	}

	if err := c.Cancel(ids[0]); err != nil {
		t.Fatalf("cancel a job on the worker: %v", err)
	}
	if info := await(t, co, ids[0]); info.Status != service.StatusCanceled {
		t.Fatalf("canceled job is %s", info.Status)
	}
	wantAPIError(t, "cancel a canceled job", c.Cancel(ids[0]), http.StatusConflict, "already finished")
	wantAPIError(t, "cancel an unknown job", c.Cancel("c999999"), http.StatusNotFound, `no job "c999999"`)
	if got := co.Members()[0].Fails; got != 0 {
		t.Fatalf("a refused cancel counted %d failures against the worker", got)
	}

	wsrv.Close()
	wantAPIError(t, "cancel on a dead worker", c.Cancel(ids[1]), http.StatusBadGateway, "no answer")
	if got := co.Members()[0].Fails; got != 1 {
		t.Fatalf("unreachable worker has %d failures, want 1", got)
	}
}

// TestCoordinatorGarbledSubmitAnswer: a worker that accepts a submit with
// a body that is not JSON has given no answer the coordinator can use. The
// coordinator counts it against the worker and runs the job on its own
// manager, rather than answering its client with a 400.
func TestCoordinatorGarbledSubmitAnswer(t *testing.T) {
	wsrv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusAccepted)
		io.WriteString(w, "<html>accepted</html>")
	}))
	t.Cleanup(wsrv.Close)
	co := New(Config{Self: "http://coordinator.test", Local: holdingManager(t, "http://coordinator.test"), Peers: []string{wsrv.URL}})
	t.Cleanup(co.Stop)
	c := serveCoordinator(t, co)

	id, err := c.Submit(service.Spec{Site: "maps"})
	if err != nil {
		t.Fatalf("submit past a garbled 202: %v, want it placed", err)
	}
	if info, err := c.Info(id); err != nil || info.Node != "http://coordinator.test" {
		t.Fatalf("job %s = %+v, %v; want it on the coordinator's own manager", id, info, err)
	}
	reg := co.Metrics()
	for name, want := range map[string]int64{
		"cluster_forward_failed":  1,
		"cluster_local_fallbacks": 1,
		"cluster_jobs_local":      1,
	} {
		if got := reg.Counter(name).Value(); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
	if got := co.Members()[0].Fails; got != 1 {
		t.Errorf("the garbling worker has %d failures, want 1", got)
	}
}

// TestCoordinatorIDsUniqueAcrossBoots: a coordinator counts its ids from 1
// on every boot and keeps its jobs only in memory. Two coordinators route
// jobs to one worker in turn, the first stopped before the second starts,
// as across a restart. The second issues none of the first's ids, and it
// answers a poll of each with a 404, never with another job.
func TestCoordinatorIDsUniqueAcrossBoots(t *testing.T) {
	w := holdingManager(t, "")
	wsrv := httptest.NewServer(service.NewHandler(w))
	t.Cleanup(wsrv.Close)
	boot := func() *Coordinator {
		local := service.New(service.Config{Workers: 1, Node: "http://coordinator.test"})
		t.Cleanup(local.Kill)
		co := New(Config{Self: "http://coordinator.test", Local: local, Peers: []string{wsrv.URL}})
		t.Cleanup(co.Stop)
		return co
	}
	co := boot()
	first := serveCoordinator(t, co)
	issued := make(map[string]bool)
	for _, spec := range []service.Spec{{Site: "amazon-mobile"}, {Site: "maps"}} {
		id, err := first.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		issued[id] = true
	}
	co.Stop()
	second := serveCoordinator(t, boot())
	for _, spec := range []service.Spec{{Site: "maps", Criteria: "syscalls"}, {Site: "bing"}} {
		id, err := second.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		if issued[id] {
			t.Fatalf("the second coordinator issued %s again, to %s %s", id, spec.Site, spec.Criteria)
		}
	}
	for id := range issued {
		_, err := second.Info(id)
		wantAPIError(t, "poll of "+id+" after the restart", err, http.StatusNotFound, "no job")
	}
}

// swapHandler serves the worker it holds, so a test can restart the worker
// behind one URL.
type swapHandler struct {
	h atomic.Pointer[service.Handler]
}

func (s *swapHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.h.Load().ServeHTTP(w, r) }

func (s *swapHandler) serve(m *service.Manager) { s.h.Store(service.NewHandler(m)) }

// swappedWorker starts a coordinator whose one worker, behind a handler
// the test swaps to restart it, holds every job until it is canceled.
func swappedWorker(t *testing.T) (*Coordinator, *swapHandler, string) {
	t.Helper()
	sw := new(swapHandler)
	sw.serve(holdingManager(t, ""))
	wsrv := httptest.NewServer(sw)
	t.Cleanup(wsrv.Close)
	local := service.New(service.Config{Workers: 1, Node: "http://coordinator.test"})
	t.Cleanup(local.Kill)
	co := New(Config{Self: "http://coordinator.test", Local: local, Peers: []string{wsrv.URL}})
	t.Cleanup(co.Stop)
	return co, sw, wsrv.URL
}

// TestCoordinatorReroutesLostJobOnce: a worker restarted without a journal
// has lost the job the coordinator routed to it, and serves another
// client's job. Eight concurrent polls of the routed job each answer for
// that job and no other. They re-route it once, to the restarted worker,
// whose health is never in doubt: it answered every poll. The job then
// finishes there with its own result.
func TestCoordinatorReroutesLostJobOnce(t *testing.T) {
	co, sw, url := swappedWorker(t)
	id, err := co.Submit(service.Spec{Site: "maps"})
	if err != nil {
		t.Fatal(err)
	}

	restarted := service.New(service.Config{Workers: 1, Runner: func(ctx context.Context, spec service.Spec) (*service.Result, error) {
		return &service.Result{Criteria: spec.Criteria, SliceDigest: spec.Site}, nil
	}})
	t.Cleanup(restarted.Kill)
	sw.serve(restarted)
	if _, err := restarted.Submit(service.Spec{Site: "bing", Criteria: "syscalls"}); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	infos := make([]service.Info, 8)
	for i := range infos {
		wg.Add(1)
		go func() {
			defer wg.Done()
			infos[i], _ = co.Info(id)
		}()
	}
	wg.Wait()
	for _, info := range infos {
		if info.Site != "maps" || info.Criteria != "pixels" {
			t.Fatalf("a poll of the maps pixels job answered %+v", info)
		}
	}
	reg := co.Metrics()
	if n := reg.Counter("cluster_jobs_rerouted").Value(); n != 1 {
		t.Errorf("cluster_jobs_rerouted = %d, want 1", n)
	}
	if n := restarted.Metrics().Counter("jobs_submitted").Value(); n != 2 {
		t.Errorf("the restarted worker admitted %d jobs, want the other client's and the re-routed one", n)
	}
	if n := reg.Counter("cluster_peers_evicted").Value(); n != 0 || !co.Members()[0].Alive {
		t.Errorf("%d evictions, members %+v; want the restarted worker alive", n, co.Members())
	}
	info := await(t, co, id)
	if res := mustResult(t, co, id); info.Status != service.StatusDone || info.Node != url ||
		info.Site != "maps" || res.SliceDigest != "maps" || res.Criteria != "pixels" {
		t.Fatalf("the re-routed job finished as %+v with %+v, want maps pixels done on %s", info, res, url)
	}
}

// TestCoordinatorMovingPollCountsReroute: the poll that re-routes a lost
// job answers with the move counted, as the polls after it do.
func TestCoordinatorMovingPollCountsReroute(t *testing.T) {
	co, sw, url := swappedWorker(t)
	id, err := co.Submit(service.Spec{Site: "maps"})
	if err != nil {
		t.Fatal(err)
	}
	sw.serve(holdingManager(t, ""))
	for _, poll := range []string{"the poll that moved the job", "the next poll"} {
		info, err := co.Info(id)
		if err != nil || info.Reroutes != 1 || info.Node != url || info.Site != "maps" {
			t.Fatalf("%s = %+v, %v; want maps on %s with reroutes 1", poll, info, err, url)
		}
	}
	if n := co.Metrics().Counter("cluster_jobs_rerouted").Value(); n != 1 {
		t.Errorf("cluster_jobs_rerouted = %d, want 1", n)
	}
}

// TestCoordinatorCancelsLostJob: a worker restarted without a journal has
// lost two jobs the coordinator routed to it. A cancel of the first finds
// nothing to stop there, so the coordinator cancels the job itself: the
// cancel answers 200, every later poll reads canceled, no poll re-routes
// the job, and the restarted worker admits nothing. A cancel of the second
// races a poll that may move the job first: either way the cancel answers
// 200, the job ends canceled, and so does every copy of it that the
// restarted worker admitted.
func TestCoordinatorCancelsLostJob(t *testing.T) {
	co, sw, _ := swappedWorker(t)
	c := serveCoordinator(t, co)
	var ids []string
	for _, crit := range []string{"pixels", "syscalls"} {
		id, err := c.Submit(service.Spec{Site: "maps", Criteria: crit})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	restarted := holdingManager(t, "")
	sw.serve(restarted)

	if err := c.Cancel(ids[0]); err != nil {
		t.Fatalf("cancel of a lost job: %v", err)
	}
	for range 3 {
		if info, err := c.Info(ids[0]); err != nil || info.Status != service.StatusCanceled {
			t.Fatalf("a poll after the cancel = %+v, %v; want canceled", info, err)
		}
	}
	wantAPIError(t, "result of the canceled job", errOf(c.Result(ids[0])), http.StatusConflict, "canceled, not done")
	if n := restarted.Metrics().Counter("jobs_submitted").Value(); n != 0 {
		t.Errorf("the restarted worker admitted %d jobs, want none", n)
	}
	if n := co.Metrics().Counter("cluster_jobs_rerouted").Value(); n != 0 {
		t.Errorf("cluster_jobs_rerouted = %d, want 0", n)
	}

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		co.Info(ids[1])
	}()
	err := c.Cancel(ids[1])
	wg.Wait()
	if err != nil {
		t.Fatalf("cancel of a lost job raced by a poll: %v", err)
	}
	if info := await(t, co, ids[1]); info.Status != service.StatusCanceled {
		t.Fatalf("the job is %s, want canceled", info.Status)
	}
	reg := restarted.Metrics()
	deadline := time.Now().Add(30 * time.Second)
	for reg.Counter("jobs_canceled").Value() != reg.Counter("jobs_submitted").Value() {
		if time.Now().After(deadline) {
			t.Fatalf("the restarted worker admitted %d copies and canceled %d",
				reg.Counter("jobs_submitted").Value(), reg.Counter("jobs_canceled").Value())
		}
		time.Sleep(time.Millisecond)
	}
}

// TestCoordinatorLocalJobs: with no worker in its ring the coordinator runs
// jobs on its own manager; a cancel reaches it, and GET /jobs/quarantined
// lists the manager's poisoned job under the manager's id.
func TestCoordinatorLocalJobs(t *testing.T) {
	local := holdingManager(t, "http://coordinator.test")
	co := New(Config{Self: "http://coordinator.test", Local: local})
	t.Cleanup(co.Stop)
	c := serveCoordinator(t, co)

	id, err := c.Submit(service.Spec{Site: "maps"})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Cancel(id); err != nil {
		t.Fatalf("cancel a local job: %v", err)
	}
	if info := await(t, co, id); info.Status != service.StatusCanceled || info.Node != "http://coordinator.test" {
		t.Fatalf("local job = %s on %q, want canceled on the coordinator", info.Status, info.Node)
	}

	poison, err := c.Submit(service.Spec{Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	if info := await(t, co, poison); info.Status != service.StatusQuarantined {
		t.Fatalf("poisoned job is %s, want quarantined", info.Status)
	}
	q, err := c.Quarantined()
	if err != nil {
		t.Fatal(err)
	}
	if len(q) != 1 || q[0].Seed != 13 || q[0].ID == poison {
		t.Fatalf("quarantined = %+v, want the seed-13 job under the manager's own id", q)
	}
}
