package service

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"testing"

	"webslice/internal/cdg"
	"webslice/internal/core"
	"webslice/internal/sites"
	"webslice/internal/slicer"
	"webslice/internal/store"
)

// runDone submits spec to m, waits for it to finish done and returns its
// result.
func runDone(t *testing.T, m *Manager, spec Spec) *Result {
	t.Helper()
	id, err := m.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitStatus(t, m, id, StatusDone)
	res, ok := m.Result(id)
	if !ok {
		t.Fatalf("job %s is done without a result", id)
	}
	return res
}

// TestUploadKeyIsByteHash: one address from ring to store. An uploaded
// trace's TraceKey is the hex SHA-256 of the uploaded bytes (what sha256sum
// prints for the file) and equals the key the cluster routes the upload
// by (JobKey), and a repeat of the upload is a cache hit. Every job's
// TraceKey is its JobKey, a site's and a seed's too, with a store attached
// and without one.
func TestUploadKeyIsByteHash(t *testing.T) {
	up := encodeV3(t, sites.Random(3))
	sum := sha256.Sum256(up)
	want := hex.EncodeToString(sum[:])

	spec := Spec{Trace: up}
	if k := JobKey(spec); k != want {
		t.Fatalf("JobKey = %s, sha256 of the upload = %s", k, want)
	}
	st, err := store.Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	m := New(Config{Workers: 1, Store: st})
	defer m.Close()
	for run, wantHit := range []bool{false, true} {
		res := runDone(t, m, spec)
		if res.TraceKey != want {
			t.Fatalf("run %d: Result.TraceKey = %s, sha256 of the upload = %s", run, res.TraceKey, want)
		}
		if res.CacheHit != wantHit {
			t.Fatalf("run %d: CacheHit = %v, want %v", run, res.CacheHit, wantHit)
		}
	}

	bare := New(Config{Workers: 1})
	defer bare.Close()
	for _, spec := range []Spec{{Site: "amazon-mobile", Scale: 0.04}, {Seed: 3}, spec} {
		for _, mgr := range []*Manager{m, bare} {
			if res := runDone(t, mgr, spec); res.TraceKey != JobKey(spec) {
				t.Errorf("site %q seed %d (store %t): Result.TraceKey = %s, JobKey = %s",
					spec.Site, spec.Seed, mgr == m, res.TraceKey, JobKey(spec))
			}
		}
	}
}

// TestStoreKeysNameAnalysisVersion: both store keys of a site, a seed and
// an upload job move with the analysis version. What an older analysis
// left in the store (a stale result, an empty forward pass) is never read,
// and a store filled under core.AnalysisVersion holds nothing under the
// next version's keys.
func TestStoreKeysNameAnalysisVersion(t *testing.T) {
	st, err := store.Open("", 0)
	if err != nil {
		t.Fatal(err)
	}
	m := New(Config{Workers: 1, Store: st})
	defer m.Close()
	bare := New(Config{Workers: 1}) // no store: computes every job afresh
	defer bare.Close()
	stale, err := json.Marshal(Result{SliceDigest: "stale", Criteria: "pixels"})
	if err != nil {
		t.Fatal(err)
	}
	specs := map[string]Spec{
		"site":   {Site: "amazon-desktop", Scale: 0.04},
		"seed":   {Seed: 1001},
		"upload": {Trace: encodeV3(t, sites.Random(1003))},
	}
	for name, spec := range specs {
		jk := JobKey(spec)
		deps, res := storeKeys(jk, slicer.PixelCriteria{}, core.AnalysisVersion)
		oldDeps, oldRes := storeKeys(jk, slicer.PixelCriteria{}, core.AnalysisVersion-1)
		nextDeps, nextRes := storeKeys(jk, slicer.PixelCriteria{}, core.AnalysisVersion+1)
		if deps == oldDeps || deps == nextDeps || res == oldRes || res == nextRes {
			t.Fatalf("%s: a store key did not move with the analysis version", name)
		}
		st.Put(store.KindResult, oldRes, stale)
		st.PutDeps(oldDeps, &cdg.Deps{})

		got, ref := runDone(t, m, spec), runDone(t, bare, spec)
		if got.CacheHit || got.SliceDigest != ref.SliceDigest {
			t.Errorf("%s: cache_hit %t, slice %s; want a computed %s, not the older version's",
				name, got.CacheHit, got.SliceDigest, ref.SliceDigest)
		}
		for _, k := range []struct {
			kind, key string
			held      bool
		}{
			{store.KindDeps, deps, true}, {store.KindResult, res, true},
			{store.KindDeps, nextDeps, false}, {store.KindResult, nextRes, false},
		} {
			if _, ok, _ := st.Get(k.kind, k.key); ok != k.held {
				t.Errorf("%s: store holds %s %s: %t, want %t", name, k.kind, k.key, ok, k.held)
			}
		}
	}
}
