package service

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"

	"webslice/internal/core"
	"webslice/internal/isa"
	"webslice/internal/sites"
	"webslice/internal/slicer"
	"webslice/internal/store"
	"webslice/internal/trace"
	"webslice/internal/vmem"
)

// noiseUpload returns a v3 trace of n pseudo-random records. Random
// fields barely compress, so it encodes to about 16 bytes a record. It
// opens, which is all admission checks, but is not a trace to slice.
func noiseUpload(t testing.TB, n int) []byte {
	t.Helper()
	tr := trace.New()
	tr.Recs = make([]trace.Rec, n)
	x := uint32(1)
	for i := range tr.Recs {
		x = x*1664525 + 1013904223
		tr.Recs[i] = trace.Rec{PC: x, Dst: isa.Reg(x >> 9), Addr: vmem.Addr(x >> 3), Aux: x >> 7}
	}
	var buf bytes.Buffer
	if err := tr.WriteV3(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// liveHeap returns the bytes of live heap objects after a full collection.
func liveHeap() int64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// TestFinishedUploadsAreFreed: once a job finishes, neither the job table
// nor the journal keeps its upload, so the heap of a long-running daemon
// does not grow with every upload it has sliced. Twenty finished uploads of
// about 1 MB each must leave the live heap less than 5 MB larger.
func TestFinishedUploadsAreFreed(t *testing.T) {
	const jobs = 20
	up := noiseUpload(t, 65_000)
	if len(up) < 900_000 {
		t.Fatalf("upload is %d bytes, want about 1 MB", len(up))
	}
	j, _, err := OpenJournal(journalPath(t))
	if err != nil {
		t.Fatal(err)
	}
	m := New(Config{Workers: 2, QueueDepth: jobs, Journal: j,
		Runner: func(ctx context.Context, spec Spec) (*Result, error) { return &Result{}, nil }})
	defer m.Close()
	before := liveHeap()
	ids := make([]string, jobs)
	for i := range ids {
		if ids[i], err = m.Submit(Spec{Trace: bytes.Clone(up)}); err != nil {
			t.Fatal(err)
		}
	}
	for _, id := range ids {
		waitStatus(t, m, id, StatusDone)
	}
	if grew := liveHeap() - before; grew >= 5<<20 {
		t.Fatalf("%d finished uploads of %d bytes left the live heap %d bytes larger", jobs, len(up), grew)
	}
}

// TestUploadsRecycleRecordArrays: a job decodes its upload into a record
// array that an earlier job may have left behind, larger and full of that
// job's records. On one worker with no store, a large upload, a small one
// and another large one must each slice to the digest of a fresh
// in-process decode.
func TestUploadsRecycleRecordArrays(t *testing.T) {
	// Property sites vary several-fold in size; take the largest and the
	// smallest of four.
	var ups [][]byte
	for seed := uint64(1); seed <= 4; seed++ {
		ups = append(ups, encodeV3(t, sites.Random(seed)))
	}
	size := func(i int) int { return len(ups[i]) }
	lo, hi := 0, 0
	for i := range ups {
		if size(i) < size(lo) {
			lo = i
		}
		if size(i) > size(hi) {
			hi = i
		}
	}
	next := (hi + 1) % len(ups)
	if next == lo {
		next = (next + 1) % len(ups)
	}
	order := [][]byte{ups[hi], ups[lo], ups[next]}
	if len(order[1]) >= len(order[0]) {
		t.Fatalf("uploads of %d and %d bytes: want a large one, then a smaller one", len(order[0]), len(order[1]))
	}

	m := New(Config{Workers: 1})
	defer m.Close()
	for i, up := range order {
		id, err := m.Submit(Spec{Trace: up})
		if err != nil {
			t.Fatal(err)
		}
		waitStatus(t, m, id, StatusDone)
		res, _ := m.Result(id)
		if want := freshDigest(t, up); res.SliceDigest != want {
			t.Fatalf("upload %d (%d bytes): digest %s, a fresh decode gives %s", i, len(up), res.SliceDigest, want)
		}
	}
}

// freshDigest slices an upload in process, decoded into a new array.
func freshDigest(t *testing.T, up []byte) string {
	t.Helper()
	br, err := trace.OpenV3(up)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := br.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	p := core.NewProfiler(tr)
	p.Opts = jobOpts
	res, err := p.Slice(slicer.PixelCriteria{})
	if err != nil {
		t.Fatal(err)
	}
	return store.SliceDigest(res)
}

// allocBytes returns how many heap bytes f allocated.
func allocBytes(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestReadTraceBodyHostileAndChunked: a request that declares a 256 MiB
// Content-Length but sends 10 bytes must allocate under 2 MiB and get a
// 400, and a chunked upload, which declares no length, must be admitted
// whole. The coordinator's handler has the same test.
func TestReadTraceBodyHostileAndChunked(t *testing.T) {
	var (
		mu       sync.Mutex
		received []byte
	)
	m := New(Config{Workers: 1, Runner: func(ctx context.Context, spec Spec) (*Result, error) {
		mu.Lock()
		defer mu.Unlock()
		received = bytes.Clone(spec.Trace)
		return &Result{}, nil
	}})
	defer m.Close()
	h := NewHandler(m)

	req := httptest.NewRequest(http.MethodPost, "/jobs/trace", strings.NewReader("WSLT\x03short"))
	req.ContentLength = maxTraceBody
	rw := httptest.NewRecorder()
	if alloc := allocBytes(func() { h.ServeHTTP(rw, req) }); alloc >= 2<<20 {
		t.Errorf("a 10-byte body declaring %d bytes allocated %d bytes", req.ContentLength, alloc)
	}
	if rw.Code != http.StatusBadRequest {
		t.Errorf("a 10-byte body declaring %d bytes got %d, want 400 (%s)", req.ContentLength, rw.Code, rw.Body)
	}

	srv := httptest.NewServer(h)
	defer srv.Close()
	up := noiseUpload(t, 20_000)
	// A reader of unknown length makes the client send the body chunked.
	resp, err := http.Post(srv.URL+"/jobs/trace", "application/octet-stream", io.MultiReader(bytes.NewReader(up)))
	if err != nil {
		t.Fatal(err)
	}
	var out struct{ ID, Error string }
	readJSON(t, resp, &out)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("chunked upload got %d: %s", resp.StatusCode, out.Error)
	}
	waitStatus(t, m, out.ID, StatusDone)
	mu.Lock()
	defer mu.Unlock()
	if !bytes.Equal(received, up) {
		t.Fatalf("chunked upload of %d bytes arrived as %d bytes", len(up), len(received))
	}
}
