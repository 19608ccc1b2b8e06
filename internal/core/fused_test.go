// The fused backward pass must be invisible in the results: a
// multi-criteria walk has to produce byte-identical encoded results as
// single-criterion runs. This test pins that down on a real rendered trace.
package core_test

import (
	"bytes"
	"testing"

	"webslice/internal/core"
	"webslice/internal/slicer"
	"webslice/internal/store"
)

func TestFusedSliceBytesIdenticalToIndependentRuns(t *testing.T) {
	tr := renderAmazon(t)
	p := core.NewProfiler(tr)
	p.Opts.ProgressPoints = 160
	cs := []slicer.Criteria{slicer.PixelCriteria{}, slicer.SyscallCriteria{}}
	fused, err := p.SliceAll(cs)
	if err != nil {
		t.Fatal(err)
	}
	for k, c := range cs {
		solo, err := p.Slice(c)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(store.EncodeResult(solo), store.EncodeResult(fused[k])) {
			t.Errorf("criterion %s: fused result bytes differ from independent run", c.Name())
		}
	}
}
