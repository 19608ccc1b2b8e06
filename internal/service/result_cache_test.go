package service

import (
	"reflect"
	"strconv"
	"testing"

	"webslice/internal/experiments"
	"webslice/internal/obs"
	"webslice/internal/slicer"
	"webslice/internal/store"
)

// TestResultCache walks one store through the result cache's cases, in
// order. A repeat site or seed job is served whole from the result cache:
// it records no render span, one store.get kind=result hit=true under its
// attempt, and returns the first run's Result apart from CacheHit. Other
// criteria, another scale, a verified job, and a result blob that does not
// decode all render. A manager restarted on the same store directory still
// hits. Jobs on golden corpus sites return the pinned trace and slice
// digests, hit or miss.
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
	steps := []struct {
		name   string
		spec   Spec
		hit    bool   // want Result.CacheHit
		render bool   // want a render span
		same   string // an earlier step whose Result this one repeats
		// restart reopens the store on its directory under a new manager
		// before the job; corrupt first puts undecodable bytes under the
		// job's result key.
		restart, corrupt bool
	}{
		{name: "site", spec: site, render: true},
		{name: "site repeat", spec: site, hit: true, same: "site"},
		{name: "other criteria", spec: syscalls, render: true},
		{name: "other criteria repeat", spec: syscalls, hit: true, same: "other criteria"},
		{name: "other scale", spec: rescaled, render: true},
		{name: "other scale repeat", spec: rescaled, hit: true, same: "other scale"},
		{name: "seed", spec: seed, render: true},
		{name: "seed repeat", spec: seed, hit: true, same: "seed"},
		// A verified job renders for the oracles; its slice is a
		// slice-cache hit under the trace's key.
		{name: "verified repeat", spec: Spec{Site: "amazon-desktop", Scale: 0.04, Verify: true}, hit: true, render: true},
		{name: "restarted repeat", spec: site, hit: true, same: "site", restart: true},
		{name: "undecodable blob", spec: seed2, render: true, corrupt: true},
		{name: "undecodable blob repeat", spec: seed2, hit: true, same: "undecodable blob"},
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
			if err := st.Put(store.KindResult, resultKey(step.spec, slicer.PixelCriteria{}), []byte("not a result")); err != nil {
				t.Fatal(err)
			}
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
		for _, e := range corpus.Sites {
			if e.Name == step.spec.Site && e.Scale == step.spec.Scale && e.Seed == step.spec.Seed {
				want := e.Pixels
				if res.Criteria == "syscalls" {
					want = e.Syscalls
				}
				if res.SliceDigest != want || res.TraceKey != e.Trace {
					t.Errorf("%s: slice %s, trace key %s; golden %s pins %s, %s",
						step.name, res.SliceDigest, res.TraceKey, e.Label(), want, e.Trace)
				}
			}
		}

		spans, _ := m.JobTrace(id)
		var attemptID string
		renders := 0
		var gets []obs.SpanData
		for _, s := range spans {
			switch {
			case s.Name == "attempt":
				attemptID = s.ID
			case s.Name == "render":
				renders++
			case s.Name == "store.get" && attr(s, "kind") == store.KindResult:
				gets = append(gets, s)
			}
		}
		wantRenders := 0
		if step.render {
			wantRenders = 1
		}
		if renders != wantRenders {
			t.Errorf("%s: %d render spans, want %d (have %v)", step.name, renders, wantRenders, names(spans))
		}
		switch {
		case step.spec.Verify:
			if len(gets) != 0 {
				t.Errorf("%s: a verified job looked up the result cache", step.name)
			}
		case len(gets) != 1:
			t.Errorf("%s: %d store.get kind=result spans, want 1 (have %v)", step.name, len(gets), names(spans))
		case gets[0].Parent != attemptID || attr(gets[0], "hit") != strconv.FormatBool(!step.render):
			t.Errorf("%s: result lookup span %+v, want hit=%t under attempt %s", step.name, gets[0], !step.render, attemptID)
		}
		if !step.render {
			for _, s := range spans {
				if s.Name == "slice" || s.Name == "slice.scan" {
					t.Errorf("%s: result-cache hit has a %s span", step.name, s.Name)
				}
			}
		}
	}
}
