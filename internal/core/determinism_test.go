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

// TestForwardPassServedFromStore: a profiler whose trace's forward pass is
// already in the store loads it instead of rebuilding it, as the service's
// other-criteria repeat of a trace does.
func TestForwardPassServedFromStore(t *testing.T) {
	st, err := store.Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	storeProfiler := func() *core.Profiler {
		p := core.NewProfiler(renderAmazon(t))
		// Both profilers render one site, so they share a forward-pass key,
		// as the service's jobs of one JobKey do.
		p.UseStore(st, "amazon-desktop@0.05")
		return p
	}
	p1 := storeProfiler()
	if _, err := p1.Slice(slicer.PixelCriteria{}); err != nil {
		t.Fatal(err)
	}
	if got := st.Stats().Puts; got != 1 {
		t.Fatalf("first profiler stored %d forward passes, want the 1 it computed", got)
	}

	// A second profiler over an identical trace, slicing the other
	// criteria, loads the forward pass from the store.
	p2 := storeProfiler()
	before := st.Stats().Hits
	if _, err := p2.Slice(slicer.SyscallCriteria{}); err != nil {
		t.Fatal(err)
	}
	if st.Stats().Hits <= before {
		t.Fatal("store hit counter did not increment")
	}
	if got := st.Stats().Puts; got != 1 {
		t.Fatalf("%d forward passes stored; the second should have been loaded from the store, not rebuilt", got)
	}
	if p2.Deps() == nil {
		t.Fatal("forward pass missing after store load")
	}
}
