package slicer

import (
	"errors"
	"testing"

	"webslice/internal/isa"
	"webslice/internal/vm"
	"webslice/internal/vmem"
)

// TestCanceledHookAbortsWalk: a Canceled hook that fires aborts the
// backward pass with ErrCanceled instead of returning a partial slice,
// for both the single-criterion and fused entry points.
func TestCanceledHookAbortsWalk(t *testing.T) {
	m := vm.New()
	m.Thread(0, "main")
	buf := m.Tile.Alloc(64)
	v := m.Const(7)
	for i := 0; i < 100; i++ {
		v = m.OpImm(isa.OpAdd, v, 1)
	}
	m.StoreU32(buf, v)
	m.MarkPixels(vmem.Range{Addr: buf, Size: 64})
	deps := forward(t, m.Tr)

	polled := false
	opts := Options{Canceled: func() bool { polled = true; return true }}
	if _, err := sliceOne(m.Tr, deps, PixelCriteria{}, opts); !errors.Is(err, ErrCanceled) {
		t.Fatalf("Slice with firing Canceled hook: err = %v, want ErrCanceled", err)
	}
	if !polled {
		t.Fatal("Canceled hook was never polled")
	}
	if _, err := Slice(TraceSource(m.Tr), deps, []Criteria{PixelCriteria{}, SyscallCriteria{}}, opts); !errors.Is(err, ErrCanceled) {
		t.Fatalf("fused Slice with firing Canceled hook: err = %v, want ErrCanceled", err)
	}

	// A hook that never fires must not perturb the result.
	calls := 0
	opts = Options{Canceled: func() bool { calls++; return false }}
	res, err := sliceOne(m.Tr, deps, PixelCriteria{}, opts)
	if err != nil {
		t.Fatal(err)
	}
	base := pixelSlice(t, m, Options{})
	if res.SliceCount != base.SliceCount {
		t.Fatalf("non-firing Canceled hook changed the slice: %d vs %d records", res.SliceCount, base.SliceCount)
	}
	if calls == 0 {
		t.Fatal("non-firing Canceled hook was never polled")
	}
}
