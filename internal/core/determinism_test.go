// Determinism is the invariant the artifact store depends on: rendering
// the same site twice must produce byte-identical traces (hence identical
// content addresses), and slicing must be a pure function of the trace.
// These tests pin both properties down.
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
	p.Opts.ProgressPoints = 160
	res, err := p.Slice(slicer.PixelCriteria{})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestSliceDeterminism(t *testing.T) {
	tr1 := renderAmazon(t)
	tr2 := renderAmazon(t)

	k1, err := store.TraceKey(tr1)
	if err != nil {
		t.Fatal(err)
	}
	k2, err := store.TraceKey(tr2)
	if err != nil {
		t.Fatal(err)
	}
	if k1 != k2 {
		t.Fatalf("two renders of the same site hash differently: %s vs %s", k1, k2)
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
	k1, err := store.TraceKey(tr)
	if err != nil {
		t.Fatal(err)
	}

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
	k2, err := store.TraceKey(decoded)
	if err != nil {
		t.Fatal(err)
	}
	if k1 != k2 {
		t.Fatalf("encode/decode changed the content address: %s vs %s", k1, k2)
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

func TestForwardPassServedFromStore(t *testing.T) {
	st, err := store.Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	tr1 := renderAmazon(t)
	p1 := core.NewProfiler(tr1)
	p1.Opts.ProgressPoints = 160
	if err := p1.UseStore(st); err != nil {
		t.Fatal(err)
	}
	pix := []slicer.Criteria{slicer.PixelCriteria{}}
	r1, hits, err := p1.SliceAll(pix)
	if err != nil {
		t.Fatal(err)
	}
	if hits[0] {
		t.Fatal("first slice reported a cache hit on an empty store")
	}
	if p1.Forest() == nil {
		t.Fatal("first profiler should have computed the forward pass")
	}

	// A second profiler over an identical trace: the whole slice comes out
	// of the store, byte-identical, with no forward pass run.
	tr2 := renderAmazon(t)
	p2 := core.NewProfiler(tr2)
	p2.Opts.ProgressPoints = 160
	if err := p2.UseStore(st); err != nil {
		t.Fatal(err)
	}
	if p1.Key() != p2.Key() {
		t.Fatalf("identical traces got different keys: %s vs %s", p1.Key(), p2.Key())
	}
	before := st.Stats().Hits
	r2, hits, err := p2.SliceAll(pix)
	if err != nil {
		t.Fatal(err)
	}
	if !hits[0] {
		t.Fatal("second slice of an identical trace was not a cache hit")
	}
	if st.Stats().Hits <= before {
		t.Fatal("store hit counter did not increment")
	}
	if p2.Forest() != nil || p2.Deps() != nil {
		t.Fatal("cache hit should have skipped the forward pass entirely")
	}
	if !bytes.Equal(store.EncodeResult(r1[0]), store.EncodeResult(r2[0])) {
		t.Fatal("cached slice result is not byte-identical to the computed one")
	}

	// A third profiler asking for a *different* variant misses the slice
	// cache but still loads the forward pass from the store.
	p3 := core.NewProfiler(renderAmazon(t))
	p3.Opts.ProgressPoints = 160
	if err := p3.UseStore(st); err != nil {
		t.Fatal(err)
	}
	if _, hits, err := p3.SliceAll([]slicer.Criteria{slicer.SyscallCriteria{}}); err != nil || hits[0] {
		t.Fatalf("syscall slice: hits=%v err=%v, want fresh computation", hits, err)
	}
	if p3.Forest() != nil {
		t.Fatal("forward pass should have been loaded from the store, not rebuilt")
	}
	if p3.Deps() == nil {
		t.Fatal("forward pass missing after store load")
	}
}
