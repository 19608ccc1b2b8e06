package service

import (
	"bytes"
	"reflect"
	"strconv"
	"testing"

	"webslice/internal/browser"
	"webslice/internal/core"
	"webslice/internal/experiments"
	"webslice/internal/obs"
	"webslice/internal/sites"
	"webslice/internal/slicer"
	"webslice/internal/store"
)

// TestResultCache walks one store through the result cache's cases, in
// order. A repeat of an unverified job — site, seed or upload — is served
// whole from the result cache: it records no render, trace.open, slice or
// slice.scan span, one store.get kind=result hit=true under its attempt,
// and returns the first run's Result apart from CacheHit. Other criteria,
// another scale, a verified job, and a result blob that does not decode
// all compute; other criteria and a verified repeat of a known trace load
// its forward pass from the store and run only the backward pass. A
// manager restarted on the same store directory still hits. Jobs on golden
// corpus workloads return the pinned slice digests, hit or miss; every
// job's trace key is its JobKey, and an upload's is the SHA-256 of its
// bytes.
func TestResultCache(t *testing.T) {
	corpus, err := experiments.LoadGolden("../../examples/golden/corpus.json")
	if err != nil {
		t.Fatal(err)
	}
	site := Spec{Site: "amazon-desktop", Scale: 0.04}
	syscalls := Spec{Site: "amazon-desktop", Scale: 0.04, Criteria: "syscalls"}
	rescaled := Spec{Site: "amazon-desktop", Scale: 0.05}
	seed := Spec{Seed: 1001}
	seed2 := Spec{Seed: 1002}
	const uploadSeed = 1003 // a golden seed; the upload is its v3 encoding
	upload := Spec{Trace: encodeV3(t, sites.Random(uploadSeed))}
	uploadSyscalls := Spec{Trace: upload.Trace, Criteria: "syscalls"}
	steps := []struct {
		name string
		spec Spec
		hit  bool   // want Result.CacheHit: served whole by the result cache
		deps bool   // on a computed job, want the forward pass from the store
		same string // an earlier step whose Result this one repeats
		// restart reopens the store on its directory under a new manager
		// before the job; corrupt first puts undecodable bytes under the
		// job's result key.
		restart, corrupt bool
	}{
		{name: "site", spec: site},
		{name: "site repeat", spec: site, hit: true, same: "site"},
		{name: "other criteria", spec: syscalls, deps: true},
		{name: "other criteria repeat", spec: syscalls, hit: true, same: "other criteria"},
		{name: "other scale", spec: rescaled},
		{name: "other scale repeat", spec: rescaled, hit: true, same: "other scale"},
		{name: "seed", spec: seed},
		{name: "seed repeat", spec: seed, hit: true, same: "seed"},
		// A verified job bypasses the result cache: it renders and runs the
		// backward pass over the cached forward pass.
		{name: "verified repeat", spec: Spec{Site: "amazon-desktop", Scale: 0.04, Verify: true}, deps: true},
		{name: "restarted repeat", spec: site, hit: true, same: "site", restart: true},
		{name: "undecodable blob", spec: seed2, corrupt: true},
		{name: "undecodable blob repeat", spec: seed2, hit: true, same: "undecodable blob"},
		{name: "upload", spec: upload},
		{name: "upload repeat", spec: upload, hit: true, same: "upload"},
		{name: "upload other criteria", spec: uploadSyscalls, deps: true},
		{name: "upload verified repeat", spec: Spec{Trace: upload.Trace, Verify: true}, deps: true},
		{name: "upload restarted repeat", spec: upload, hit: true, same: "upload", restart: true},
	}

	dir := t.TempDir()
	var m *Manager
	var st *store.Store
	open := func() {
		var err error
		if st, err = store.Open(dir, 0); err != nil {
			t.Fatal(err)
		}
		m = New(Config{Workers: 1, Store: st, Tracer: obs.New(1024, nil)})
	}
	open()
	defer func() { m.Close() }()
	results := map[string]*Result{}
	for _, step := range steps {
		if step.restart {
			m.Close()
			open()
		}
		if step.corrupt {
			_, rkey := storeKeys(JobKey(step.spec), slicer.PixelCriteria{}, core.AnalysisVersion)
			st.Put(store.KindResult, rkey, []byte("not a result"))
		}
		id, err := m.Submit(step.spec)
		if err != nil {
			t.Fatalf("%s: %v", step.name, err)
		}
		waitStatus(t, m, id, StatusDone)
		res, _ := m.Result(id)
		results[step.name] = res
		if res.CacheHit != step.hit {
			t.Errorf("%s: cache_hit = %t, want %t", step.name, res.CacheHit, step.hit)
		}
		if res.Verified != step.spec.Verify {
			t.Errorf("%s: verified = %t, want %t", step.name, res.Verified, step.spec.Verify)
		}
		if step.same != "" {
			first, again := *results[step.same], *res
			first.CacheHit, again.CacheHit = false, false
			if !reflect.DeepEqual(first, again) {
				t.Errorf("%s: result differs from %q apart from cache_hit:\n got %+v\nwant %+v", step.name, step.same, again, first)
			}
		}
		isUpload := len(step.spec.Trace) > 0
		if res.TraceKey != JobKey(step.spec) {
			t.Errorf("%s: trace key %s, want its JobKey %s", step.name, res.TraceKey, JobKey(step.spec))
		}
		if isUpload && res.TraceKey != store.KeyBytes(step.spec.Trace) {
			t.Errorf("%s: trace key %s, want the SHA-256 of the upload", step.name, res.TraceKey)
		}
		for _, e := range corpus.Sites {
			if isUpload && e.Seed != uploadSeed ||
				!isUpload && (e.Name != step.spec.Site || e.Scale != step.spec.Scale || e.Seed != step.spec.Seed) {
				continue
			}
			want := e.Pixels
			if res.Criteria == "syscalls" {
				want = e.Syscalls
			}
			if res.SliceDigest != want {
				t.Errorf("%s: slice %s; golden %s pins %s", step.name, res.SliceDigest, e.Label(), want)
			}
		}

		spans, _ := m.JobTrace(id)
		ids := map[string]string{} // span name -> ID of the last span so named
		count := map[string]int{}
		for _, s := range spans {
			ids[s.Name] = s.ID
			count[s.Name]++
		}
		var lookups, deps []obs.SpanData
		for _, s := range spans {
			switch {
			case s.Name == "store.get" && attr(s, "kind") == store.KindResult:
				lookups = append(lookups, s)
			case s.Name == "store.get" && attr(s, "kind") == "deps":
				deps = append(deps, s)
			}
		}
		switch {
		case step.spec.Verify:
			if len(lookups) != 0 {
				t.Errorf("%s: a verified job looked up the result cache", step.name)
			}
		case len(lookups) != 1:
			t.Errorf("%s: %d store.get kind=result spans, want 1 (have %v)", step.name, len(lookups), names(spans))
		case lookups[0].Parent != ids["attempt"] || attr(lookups[0], "hit") != strconv.FormatBool(step.hit):
			t.Errorf("%s: result lookup span %+v, want hit=%t under attempt %s", step.name, lookups[0], step.hit, ids["attempt"])
		}
		if step.hit {
			for _, name := range []string{"render", "trace.open", "slice", "slice.scan"} {
				if count[name] != 0 {
					t.Errorf("%s: result-cache hit has a %s span", step.name, name)
				}
			}
			continue
		}
		obtain := "render"
		if isUpload {
			obtain = "trace.open"
		}
		if count[obtain] != 1 || count["slice.scan"] != 1 {
			t.Errorf("%s: %d %s and %d slice.scan spans, want 1 of each (have %v)",
				step.name, count[obtain], obtain, count["slice.scan"], names(spans))
		}
		if len(deps) != 1 || deps[0].Parent != ids["slice"] || attr(deps[0], "hit") != strconv.FormatBool(step.deps) {
			t.Errorf("%s: forward-pass lookups %+v, want one with hit=%t under slice %s", step.name, deps, step.deps, ids["slice"])
		}
	}
}

// encodeV3 renders a benchmark and returns its trace's v3 encoding: the
// bytes a client uploads.
func encodeV3(t *testing.T, b sites.Benchmark) []byte {
	t.Helper()
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
