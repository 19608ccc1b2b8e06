package service_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"
	"time"

	"webslice/internal/browser"
	"webslice/internal/service"
	"webslice/internal/sites"
	"webslice/internal/store"
)

// TestUploadKeyIsByteHash: one address from ring to store. An uploaded
// trace's TraceKey is the hex SHA-256 of the uploaded bytes (what sha256sum
// prints for the file) and equals the key the cluster routes the upload
// by (service.JobKey), and a repeat of the upload is a cache hit.
func TestUploadKeyIsByteHash(t *testing.T) {
	b := sites.Random(3)
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
	sum := sha256.Sum256(buf.Bytes())
	want := hex.EncodeToString(sum[:])

	spec := service.Spec{Trace: buf.Bytes()}
	if k := service.JobKey(spec); k != want {
		t.Fatalf("JobKey = %s, sha256 of the upload = %s", k, want)
	}
	st, err := store.Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	m := service.New(service.Config{Workers: 1, Store: st})
	defer m.Close()
	for run, wantHit := range []bool{false, true} {
		id, err := m.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		deadline := time.Now().Add(30 * time.Second)
		for info, _ := m.Info(id); !info.Status.Terminal(); info, _ = m.Info(id) {
			if time.Now().After(deadline) {
				t.Fatalf("run %d: timeout waiting for job %s", run, id)
			}
			time.Sleep(2 * time.Millisecond)
		}
		res, ok := m.Result(id)
		if !ok || res == nil {
			info, _ := m.Info(id)
			t.Fatalf("run %d: job %s is %s (%s)", run, id, info.Status, info.Error)
		}
		if res.TraceKey != want {
			t.Fatalf("run %d: Result.TraceKey = %s, sha256 of the upload = %s", run, res.TraceKey, want)
		}
		if res.CacheHit != wantHit {
			t.Fatalf("run %d: CacheHit = %v, want %v", run, res.CacheHit, wantHit)
		}
	}
}
