// Determinism is the invariant the artifact store depends on: rendering
// the same site twice must produce byte-identical traces (so a site job's
// rendering identity can stand for its trace), and slicing must be a pure
// function of the trace. These tests pin both properties down.
package core_test

import (
	"bytes"
	"testing"

	"webslice/internal/browser"
	"webslice/internal/core"
	"webslice/internal/obs"
	"webslice/internal/sites"
	"webslice/internal/slicer"
	"webslice/internal/store"
	"webslice/internal/trace"
)

// renderAmazon renders the amazon-desktop benchmark at test scale.
func renderAmazon(t *testing.T) *trace.Trace {
	t.Helper()
	b, err := sites.ByName("amazon-desktop", sites.Options{Scale: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	br := browser.New(b.Site, b.Profile)
	br.RunSession()
	if len(br.Errors) > 0 {
		t.Fatalf("render: %v", br.Errors[0])
	}
	return br.M.Tr
}

func pixelSlice(t *testing.T, tr *trace.Trace) *slicer.Result {
	t.Helper()
	p := core.NewProfiler(tr)
	res, err := p.Slice(slicer.PixelCriteria{})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestSliceDeterminism(t *testing.T) {
	tr1 := renderAmazon(t)
	tr2 := renderAmazon(t)

	if k1, k2 := tr1.Digest(), tr2.Digest(); k1 != k2 {
		t.Fatalf("two renders of the same site hash differently: %x vs %x", k1, k2)
	}

	r1 := pixelSlice(t, tr1)
	r2 := pixelSlice(t, tr2)
	if r1.SliceCount != r2.SliceCount || r1.Total != r2.Total {
		t.Fatalf("slice counts differ: %d/%d vs %d/%d", r1.SliceCount, r1.Total, r2.SliceCount, r2.Total)
	}
	if len(r1.InSlice) != len(r2.InSlice) {
		t.Fatalf("bitset lengths differ: %d vs %d", len(r1.InSlice), len(r2.InSlice))
	}
	for i := range r1.InSlice {
		if r1.InSlice[i] != r2.InSlice[i] {
			t.Fatalf("slice bitsets differ at word %d", i)
		}
	}
	// The full serialized results (bitset + every statistic) agree too.
	if !bytes.Equal(store.EncodeResult(r1), store.EncodeResult(r2)) {
		t.Fatal("encoded slice results differ")
	}
}

func TestTraceRoundTripKeepsKeyAndSlice(t *testing.T) {
	tr := renderAmazon(t)
	var buf bytes.Buffer
	if err := tr.WriteV3(&buf); err != nil {
		t.Fatal(err)
	}
	wire := buf.Bytes()
	br, err := trace.OpenV3(wire)
	if err != nil {
		t.Fatal(err)
	}
	// An upload is keyed by its bytes, without decoding a block.
	if kb, err := store.TraceKeyV3(br); err != nil || kb != store.KeyBytes(wire) {
		t.Fatalf("TraceKeyV3 = %s (%v), KeyBytes(wire) = %s", kb, err, store.KeyBytes(wire))
	}

	decoded, err := br.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if k1, k2 := tr.Digest(), decoded.Digest(); k1 != k2 {
		t.Fatalf("encode/decode changed the trace digest: %x vs %x", k1, k2)
	}
	// The writer is deterministic: re-encoding the decoded trace reproduces
	// the wire bytes, so a re-upload keys the same.
	var again bytes.Buffer
	if err := decoded.WriteV3(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again.Bytes(), wire) {
		t.Fatal("re-encoding the decoded trace changed its bytes")
	}

	r1 := pixelSlice(t, tr)
	r2 := pixelSlice(t, decoded)
	if !bytes.Equal(store.EncodeResult(r1), store.EncodeResult(r2)) {
		t.Fatal("slicing the decoded trace differs from slicing the original")
	}
}

// TestForwardPassHandedOver: a profiler given a trace's forward pass, as the
// service hands one over from a trace's share or from its store, uses it as
// given. It records no forward span, and it slices as a profiler that
// computed the pass does.
func TestForwardPassHandedOver(t *testing.T) {
	tr := renderAmazon(t)
	computed := core.NewProfiler(tr)
	want, err := computed.Slice(slicer.SyscallCriteria{})
	if err != nil {
		t.Fatal(err)
	}

	tracer := obs.New(64, nil)
	root := tracer.Root("test")
	given := core.NewProfiler(tr)
	given.Deps = computed.Deps
	given.Obs = root
	got, err := given.Slice(slicer.SyscallCriteria{})
	root.End()
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range tracer.Snapshot() {
		if s.Name == "forward" {
			t.Fatal("a profiler given its forward pass ran one")
		}
	}
	if given.Deps != computed.Deps {
		t.Fatal("the profiler replaced the forward pass it was given")
	}
	if !bytes.Equal(store.EncodeResult(got), store.EncodeResult(want)) {
		t.Fatal("slicing over a given forward pass differs from slicing over a computed one")
	}
}
