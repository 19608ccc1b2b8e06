package main

import (
	"context"
	"errors"
	"net/http"
	"testing"
	"time"

	"webslice/internal/service"
)

// TestDrainKeepsServing: once shutdown begins, the daemon drains its jobs
// while it still answers, so /healthz reports 503 and the running job's
// status stays readable; the server closes only after the drain.
func TestDrainKeepsServing(t *testing.T) {
	running, release := make(chan struct{}), make(chan struct{})
	cfg := service.Config{
		Workers: 1,
		Runner: func(ctx context.Context, spec service.Spec) (*service.Result, error) {
			close(running)
			<-release
			return &service.Result{Criteria: spec.Criteria}, nil
		},
	}
	addr := freeAddrs(t, 1)[0]
	ctx, shutdown := context.WithCancel(context.Background())
	defer shutdown()
	done := make(chan error, 1)
	go func() { done <- run(ctx, addr, "", 1<<20, "", time.Minute, cfg, clusterConfig{}) }()

	c := service.NewClient("http://"+addr, &http.Client{Timeout: 10 * time.Second})
	deadline := time.Now().Add(30 * time.Second)
	for c.Health() != nil {
		if time.Now().After(deadline) {
			t.Fatal("websliced never answered /healthz")
		}
		time.Sleep(time.Millisecond)
	}
	id, err := c.Submit(service.Spec{Site: "maps", Criteria: "pixels"})
	if err != nil {
		t.Fatal(err)
	}
	<-running

	shutdown()
	for {
		err := c.Health()
		var apiErr *service.APIError
		if errors.As(err, &apiErr) && apiErr.Code == http.StatusServiceUnavailable {
			break
		}
		if err != nil {
			t.Fatalf("/healthz while draining: %v, want 503", err)
		}
		if time.Now().After(deadline) {
			t.Fatal("/healthz never reported the drain")
		}
		time.Sleep(time.Millisecond)
	}
	if info, err := c.Info(id); err != nil || info.Status != service.StatusRunning {
		t.Fatalf("status of the running job while draining = %q, %v; want running", info.Status, err)
	}

	close(release)
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("websliced did not exit after its jobs drained")
	}
	if c.Health() == nil {
		t.Fatal("websliced still answers after shutdown")
	}
}
