package core

import (
	"bytes"
	"reflect"
	"testing"

	"webslice/internal/slicer"
	"webslice/internal/store"
	"webslice/internal/trace"
)

// streamProfiler re-encodes the machine's trace as v3 and opens a
// streaming profiler over the compressed bytes.
func streamProfiler(t *testing.T, tr *trace.Trace, blockRecs int) *Profiler {
	t.Helper()
	var buf bytes.Buffer
	if err := tr.WriteV3Blocks(&buf, blockRecs); err != nil {
		t.Fatal(err)
	}
	br, err := trace.OpenV3(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	return NewProfilerStream(br)
}

// TestStreamingProfilerMatchesMaterialized: the whole profiler pipeline —
// forward pass, fused backward pass, invariant verification — must behave
// identically whether it reads a materialized trace or a v3 encoding of the
// same trace. A streaming profiler whose forward pass misses slices the
// records it decoded for that pass; one whose forward pass is a store hit
// streams its backward pass block by block. Both must match.
func TestStreamingProfilerMatchesMaterialized(t *testing.T) {
	m := demoMachine()
	want := NewProfiler(m.Tr)
	want.VerifyInvariants = true
	got := streamProfiler(t, m.Tr, 64)
	got.VerifyInvariants = true
	if got.T.Recs != nil {
		t.Fatal("streaming profiler materialized the record slice up front")
	}
	cs := []slicer.Criteria{slicer.PixelCriteria{}, slicer.SyscallCriteria{}}
	wantRes, err := want.SliceAll(cs)
	if err != nil {
		t.Fatal(err)
	}
	gotRes, err := got.SliceAll(cs)
	if err != nil {
		t.Fatal(err)
	}
	st, err := store.Open("", 0)
	if err != nil {
		t.Fatal(err)
	}
	hit := NewProfilerStream(got.br)
	hit.UseStore(st, "trace")
	if err := st.PutDeps("trace", got.Deps()); err != nil {
		t.Fatal(err)
	}
	hitRes, err := hit.SliceAll(cs)
	if err != nil {
		t.Fatal(err)
	}
	if hit.src.Materialized() != nil {
		t.Fatal("a forward-pass hit decoded the whole trace")
	}
	for k := range cs {
		if !reflect.DeepEqual(wantRes[k], gotRes[k]) {
			t.Fatalf("criterion %s: streaming result after a forward-pass miss differs from materialized", cs[k].Name())
		}
		if !reflect.DeepEqual(wantRes[k], hitRes[k]) {
			t.Fatalf("criterion %s: streaming result after a forward-pass hit differs from materialized", cs[k].Name())
		}
	}
}

// TestStreamingProfilerDecodesOnce: on a forward-pass miss the backward
// pass slices the records cfg.Build read, instead of decoding every block
// a second time. (A forward-pass hit that keeps streaming is checked in
// TestStreamingProfilerMatchesMaterialized.)
func TestStreamingProfilerDecodesOnce(t *testing.T) {
	m := demoMachine()
	st, err := store.Open("", 0)
	if err != nil {
		t.Fatal(err)
	}
	miss := streamProfiler(t, m.Tr, 64)
	miss.UseStore(st, "trace")
	if _, err := miss.Slice(slicer.PixelCriteria{}); err != nil {
		t.Fatal(err)
	}
	if miss.src.Materialized() == nil {
		t.Fatal("after a forward-pass miss the backward pass decoded every block again")
	}
}
