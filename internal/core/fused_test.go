// The fused backward pass must be invisible in the artifacts: a
// multi-criteria walk has to produce byte-identical store content — same
// encoded results, same variant keys — as single-criterion runs. These
// tests pin that down on a real rendered trace.
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
	fused, _, err := p.SliceAll(cs)
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

func TestSliceAllFillsPerVariantKeys(t *testing.T) {
	st, err := store.Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	cs := []slicer.Criteria{slicer.PixelCriteria{}, slicer.SyscallCriteria{}}

	p1 := core.NewProfiler(renderAmazon(t))
	p1.Opts.ProgressPoints = 160
	if err := p1.UseStore(st); err != nil {
		t.Fatal(err)
	}
	r1, hits, err := p1.SliceAll(cs)
	if err != nil {
		t.Fatal(err)
	}
	for k, hit := range hits {
		if hit {
			t.Errorf("criterion %s: cache hit on an empty store", cs[k].Name())
		}
	}

	// One fused pass must have stored each criterion under its own variant
	// key: a second profiler gets every result from the store, byte-identical.
	p2 := core.NewProfiler(renderAmazon(t))
	p2.Opts.ProgressPoints = 160
	if err := p2.UseStore(st); err != nil {
		t.Fatal(err)
	}
	r2, hits2, err := p2.SliceAll(cs)
	if err != nil {
		t.Fatal(err)
	}
	for k, c := range cs {
		if !hits2[k] {
			t.Errorf("criterion %s: expected a cache hit after the fused pass", c.Name())
		}
		if !bytes.Equal(store.EncodeResult(r1[k]), store.EncodeResult(r2[k])) {
			t.Errorf("criterion %s: cached bytes differ from computed bytes", c.Name())
		}
	}
	if p2.Forest() != nil {
		t.Error("all-hit fused slice should not have rebuilt the forward pass")
	}

	// A partial hit: one criterion cached solo, the other computed fused
	// alongside it — the freshly computed one must match a from-scratch run.
	p3 := core.NewProfiler(renderAmazon(t))
	p3.Opts.ProgressPoints = 160
	if err := p3.UseStore(st); err != nil {
		t.Fatal(err)
	}
	mixed := []slicer.Criteria{slicer.PixelCriteria{}, slicer.Union{slicer.PixelCriteria{}, slicer.SyscallCriteria{}}}
	r3, hits3, err := p3.SliceAll(mixed)
	if err != nil {
		t.Fatal(err)
	}
	if !hits3[0] || hits3[1] {
		t.Errorf("mixed run: hits = %v, want [true false]", hits3)
	}
	p4 := core.NewProfiler(renderAmazon(t))
	p4.Opts.ProgressPoints = 160
	solo, err := p4.Slice(mixed[1])
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(store.EncodeResult(r3[1]), store.EncodeResult(solo)) {
		t.Error("criterion computed in a partial-hit fused pass differs from a from-scratch run")
	}
}
