package core

import (
	"bytes"
	"reflect"
	"testing"

	"webslice/internal/slicer"
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
// identically whether it reads a materialized trace or streams a v3
// encoding of the same trace.
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
	wantRes, _, err := want.SliceAll(cs)
	if err != nil {
		t.Fatal(err)
	}
	gotRes, _, err := got.SliceAll(cs)
	if err != nil {
		t.Fatal(err)
	}
	for k := range cs {
		if !reflect.DeepEqual(wantRes[k], gotRes[k]) {
			t.Fatalf("criterion %s: streaming result differs from materialized", cs[k].Name())
		}
	}
}
