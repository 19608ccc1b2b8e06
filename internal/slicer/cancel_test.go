package slicer

import (
	"errors"
	"testing"

	"webslice/internal/cdg"
	"webslice/internal/isa"
	"webslice/internal/trace"
	"webslice/internal/vm"
	"webslice/internal/vmem"
)

// TestCanceledHookAbortsWalk: a Canceled hook that fires aborts the
// backward pass with ErrCanceled instead of returning a partial slice.
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
	if _, err := Slice(m.Tr, deps, PixelCriteria{}, opts); !errors.Is(err, ErrCanceled) {
		t.Fatalf("Slice with firing Canceled hook: err = %v, want ErrCanceled", err)
	}
	if !polled {
		t.Fatal("Canceled hook was never polled")
	}

	// A hook that never fires must not perturb the result.
	calls := 0
	opts = Options{Canceled: func() bool { calls++; return false }}
	res, err := Slice(m.Tr, deps, PixelCriteria{}, opts)
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

	// The walk stops at the first poll that fires. The hook is polled at
	// record indices that are multiples of cancelStride, so on a trace
	// longer than cancelStride it fires at index cancelStride and must not
	// be asked again at index 0.
	polls := 0
	opts = Options{Canceled: func() bool { polls++; return true }}
	if _, err := Slice(constTrace(t, cancelStride+232), &cdg.Deps{}, PixelCriteria{}, opts); !errors.Is(err, ErrCanceled) {
		t.Fatalf("long walk with firing Canceled hook: err = %v, want ErrCanceled", err)
	}
	if polls != 1 {
		t.Fatalf("Canceled hook polled %d times, want 1: the walk went on past the poll that fired", polls)
	}
}

// constTrace builds an n-record single-function trace of consts with one
// pixel marker at the end.
func constTrace(t *testing.T, n int) *trace.Trace {
	t.Helper()
	tr := trace.New()
	fn, err := tr.AddFunc("f", "gfx")
	if err != nil {
		t.Fatal(err)
	}
	tr.Threads = append(tr.Threads, trace.ThreadInfo{ID: 0, Name: "main"})
	tr.Recs = make([]trace.Rec, n)
	for i := range tr.Recs {
		tr.Recs[i] = trace.Rec{PC: trace.MakePC(fn, uint16(i%100)), Kind: isa.KindConst, Dst: isa.Reg(1 + i%8)}
	}
	tr.Recs[n-1] = trace.Rec{PC: trace.MakePC(fn, 0), Kind: isa.KindMarker, Aux: 1}
	tr.Marks[n-1] = &trace.Mark{ID: 1, Kind: isa.MarkPixels, Buf: vmem.Range{Addr: 0x100, Size: 64}}
	return tr
}
