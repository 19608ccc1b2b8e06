package cluster

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"webslice/internal/service"
	"webslice/internal/store"
)

// heldUpload returns the upload bytes the coordinator still holds for job id.
func heldUpload(t *testing.T, c *Coordinator, id string) []byte {
	t.Helper()
	j, ok := c.lookup(id)
	if !ok {
		t.Fatalf("no job %s", id)
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.spec.Trace
}

// TestClusterReleasesSettledUploads: the coordinator frees an upload once
// no re-route can need it: when it has cached the job's result, and when
// the owner reports the job failed.
func TestClusterReleasesSettledUploads(t *testing.T) {
	tc := startCluster(t, 2, Config{})
	up := uploadBytes(t, 11)
	id, err := tc.co.Submit(service.Spec{Trace: up})
	if err != nil {
		t.Fatal(err)
	}
	if info := await(t, tc.co, id); info.Status != service.StatusDone {
		t.Fatalf("job is %s (%s), want done", info.Status, info.Error)
	}
	mustResult(t, tc.co, id)
	if n := len(heldUpload(t, tc.co, id)); n != 0 {
		t.Fatalf("a job whose result is cached still holds %d upload bytes", n)
	}

	// One flipped byte inside a block passes admission and fails the decode.
	bad := bytes.Clone(up)
	bad[len(bad)/3] ^= 0x40
	id, err = tc.co.Submit(service.Spec{Trace: bad})
	if err != nil {
		t.Fatal(err)
	}
	if info := await(t, tc.co, id); info.Status != service.StatusFailed {
		t.Fatalf("corrupt upload is %s, want failed", info.Status)
	}
	if n := len(heldUpload(t, tc.co, id)); n != 0 {
		t.Fatalf("a failed job still holds %d upload bytes", n)
	}
}

// TestClusterKeepsUnfetchedUploadForReroute: a job whose owner dies before
// reporting done must run again, so it keeps its upload, and the re-route
// carries every byte of it. The owner, the ring's only member, holds every
// job until it is gone; the re-route then falls back to the coordinator's
// own manager.
func TestClusterKeepsUnfetchedUploadForReroute(t *testing.T) {
	owner := httptest.NewServer(service.NewHandler(holdingManager(t, "")))
	defer owner.Close()
	st, err := store.Open("", 64<<20)
	if err != nil {
		t.Fatal(err)
	}
	local := service.New(service.Config{Workers: 1, QueueDepth: 8, Store: st, Node: "http://coordinator.test"})
	t.Cleanup(local.Kill)
	co := New(Config{
		Self:          "http://coordinator.test",
		Local:         local,
		Peers:         []string{owner.URL},
		ProbeInterval: 20 * time.Millisecond,
		FailThreshold: 2,
	})
	co.Start()
	t.Cleanup(co.Stop)

	up := uploadBytes(t, 12)
	id, err := co.Submit(service.Spec{Trace: up})
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for info, _ := co.Info(id); info.Status != service.StatusRunning; info, _ = co.Info(id) {
		if time.Now().After(deadline) {
			t.Fatalf("job never started on its owner: %+v", info)
		}
		time.Sleep(2 * time.Millisecond)
	}
	if !bytes.Equal(heldUpload(t, co, id), up) {
		t.Fatal("a job running on its owner dropped its upload")
	}
	owner.Close()
	info := await(t, co, id)
	if info.Status != service.StatusDone || info.Reroutes == 0 {
		t.Fatalf("job never re-ran after its owner died: %+v", info)
	}
	res := mustResult(t, co, id)
	if want := store.KeyBytes(up); res.TraceKey != want {
		t.Fatalf("the re-routed job sliced a trace keyed %s, the upload's key is %s", res.TraceKey, want)
	}
	if n := len(heldUpload(t, co, id)); n != 0 {
		t.Fatalf("after the fetch the job still holds %d upload bytes", n)
	}
}

// TestCoordinatorTraceBodyHostileAndChunked: the coordinator reads uploads
// with the single-node reader. A request that declares a 256 MiB
// Content-Length but sends 10 bytes allocates under 2 MiB and gets a 400,
// and a chunked upload, which declares no length, is routed whole.
func TestCoordinatorTraceBodyHostileAndChunked(t *testing.T) {
	tc := startCluster(t, 1, Config{})
	h := NewHandler(tc.co)
	req := httptest.NewRequest(http.MethodPost, "/jobs/trace", strings.NewReader("WSLT\x03short"))
	req.ContentLength = 256 << 20
	rw := httptest.NewRecorder()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	h.ServeHTTP(rw, req)
	runtime.ReadMemStats(&after)
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 2<<20 {
		t.Errorf("a 10-byte body declaring %d bytes allocated %d bytes", req.ContentLength, alloc)
	}
	if rw.Code != http.StatusBadRequest {
		t.Errorf("a 10-byte body declaring %d bytes got %d, want 400 (%s)", req.ContentLength, rw.Code, rw.Body)
	}

	srv := httptest.NewServer(h)
	defer srv.Close()
	up := uploadBytes(t, 13)
	// A reader of unknown length makes the client send the body chunked.
	resp, err := http.Post(srv.URL+"/jobs/trace", "application/octet-stream", io.MultiReader(bytes.NewReader(up)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out struct{ ID, Error string }
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil || resp.StatusCode != http.StatusAccepted {
		t.Fatalf("chunked upload got %d: %s %v", resp.StatusCode, out.Error, err)
	}
	await(t, tc.co, out.ID)
	if res := mustResult(t, tc.co, out.ID); res.TraceKey != store.KeyBytes(up) {
		t.Fatalf("chunked upload of %d bytes was sliced as trace %s, want %s", len(up), res.TraceKey, store.KeyBytes(up))
	}
}
