package cluster

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

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
// for a finished or unknown job, and counts an unreachable worker as a
// failure.
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
	wantAPIError(t, "cancel an unknown job", c.Cancel("c999999"), http.StatusConflict, "unknown")
	if got := co.Members()[0].Fails; got != 0 {
		t.Fatalf("a refused cancel counted %d failures against the worker", got)
	}

	wsrv.Close()
	wantAPIError(t, "cancel on a dead worker", c.Cancel(ids[1]), http.StatusConflict, "unknown or already finished")
	if got := co.Members()[0].Fails; got != 1 {
		t.Fatalf("unreachable worker has %d failures, want 1", got)
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
